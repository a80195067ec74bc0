//! Property tests for the durable-store integration (ISSUE 7): for any
//! seed and worker count, (a) attaching a cold store never changes what
//! the search finds, (b) a warm rerun against that store short-circuits
//! to a bit-identical winner with zero measurements, and (c) a store
//! wedged by a mid-run torn write degrades to store-less behavior
//! instead of corrupting the run — and the segment recovers on reopen.

use std::sync::Arc;

use alt_autotune::{tune_graph, Handles, TuneConfig, TuneResult, Tuner};
use alt_sim::intel_cpu;
use alt_store::faults::{FailAppend, IoFault};
use alt_store::{verify_path, Store};
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};
use proptest::prelude::*;

fn conv_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 16, 34, 34]));
    let w = g.add_param("w", Shape::new([32, 16, 3, 3]));
    let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let b = g.add_param("b", Shape::new([32]));
    let ba = ops::bias_add(&mut g, c, b, 1);
    let _ = ops::relu(&mut g, ba);
    g
}

fn base_cfg(seed: u64, jobs: usize) -> TuneConfig {
    TuneConfig {
        joint_budget: 10,
        loop_budget: 10,
        batch: 8,
        topk: 2,
        free_input_layouts: true,
        seed,
        jobs,
        ..TuneConfig::default()
    }
}

/// Tunes `g` under `cfg` with `store` attached.
fn tune_with_store(g: &Graph, cfg: TuneConfig, store: Arc<Store>) -> TuneResult {
    let handles = Handles {
        store: Some(store),
        ..Handles::default()
    };
    Tuner::new(g, intel_cpu(), cfg, handles).tune()
}

fn store_at(tag: &str) -> (std::path::PathBuf, Arc<Store>) {
    let d = std::env::temp_dir().join(format!(
        "alt-autotune-store-proptest-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).expect("mkdir");
    let path = d.join("store.alts");
    let store = Arc::new(Store::open(&path).expect("open store"));
    (path, store)
}

/// Everything the search decides, as one comparable value. The winning
/// plan + schedules compare by the fingerprint of the program they
/// lower to (LayoutPlan's Debug order is map-order-dependent; the
/// lowered program is the semantic content).
fn outcome(g: &Graph, r: &alt_autotune::tuner::TuneResult) -> (u64, Vec<(u64, f64)>, u64, u64) {
    (
        r.latency.to_bits(),
        r.history.clone(),
        r.measurements,
        alt_loopir::program_fingerprint(&alt_loopir::lower(g, &r.plan, &r.sched)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cold store attachment is invisible to the search; the warm rerun
    /// replays the identical winner for free — at 1 or 8 workers.
    #[test]
    fn warm_start_is_bit_identical_to_cold(
        seed in 0u64..10_000,
        wide in any::<bool>(),
    ) {
        let jobs = if wide { 8 } else { 1 };
        let g = conv_graph();

        let bare = tune_graph(&g, intel_cpu(), base_cfg(seed, jobs));
        prop_assert!(!bare.warm_start);
        prop_assert_eq!((bare.store_hits, bare.store_misses), (0, 0));

        let (path, store) = store_at(&format!("warm-{seed}-{jobs}"));
        let cold = tune_with_store(&g, base_cfg(seed, jobs), store.clone());
        prop_assert!(!cold.warm_start);
        prop_assert_eq!(cold.store_hits, 0);
        prop_assert!(cold.store_misses > 0);
        prop_assert_eq!(outcome(&g, &cold), outcome(&g, &bare));

        // Same handle and a fresh handle both serve the warm start (the
        // writer lock is exclusive, so drop the old handle first).
        let mut handle = Some(store);
        for reopen in [false, true] {
            let store = match handle.take() {
                Some(s) if !reopen => s,
                _ => Arc::new(Store::open(&path).expect("reopen store")),
            };
            let warm = tune_with_store(&g, base_cfg(seed, jobs), store);
            prop_assert!(warm.warm_start);
            prop_assert_eq!(warm.measurements, 0);
            prop_assert!(warm.history.is_empty());
            prop_assert_eq!(warm.latency.to_bits(), cold.latency.to_bits());
            prop_assert_eq!(
                alt_loopir::program_fingerprint(&alt_loopir::lower(&g, &warm.plan, &warm.sched)),
                alt_loopir::program_fingerprint(&alt_loopir::lower(&g, &cold.plan, &cold.sched))
            );
        }

        // Worker count changes nothing: a warm start from this store at
        // the other width lands on the same winner bits.
        let other = if wide { 1 } else { 8 };
        let cross = tune_with_store(&g, base_cfg(seed, other), Arc::new(Store::open(&path).expect("reopen store")));
        prop_assert!(cross.warm_start);
        prop_assert_eq!(cross.latency.to_bits(), cold.latency.to_bits());
    }

    /// A store that dies mid-run (torn write at any early append, which
    /// wedges the handle) must not change the search result, and its
    /// segment must recover to a clean valid prefix on reopen.
    #[test]
    fn wedged_store_degrades_to_store_less_search(
        seed in 0u64..10_000,
        crash_at in 0u64..12,
        keep in 0usize..21,
    ) {
        let g = conv_graph();
        let bare = tune_graph(&g, intel_cpu(), base_cfg(seed, 1));

        let d = std::env::temp_dir().join(format!(
            "alt-autotune-store-proptest-wedge-{seed}-{crash_at}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("mkdir");
        let path = d.join("store.alts");
        let hook = Arc::new(FailAppend::new(crash_at, IoFault::Torn { keep }));
        let store =
            Arc::new(Store::open_with_faults(&path, hook).expect("open faulted store"));

        let hurt = tune_with_store(&g, base_cfg(seed, 1), store.clone());
        prop_assert!(store.is_wedged());
        prop_assert!(!hurt.warm_start);
        prop_assert_eq!(outcome(&g, &hurt), outcome(&g, &bare));
        drop(store);

        // The torn tail quarantines on the next open; whatever records
        // landed before the tear are intact and the store is writable.
        let recovered = Store::open(&path).expect("recovering open");
        prop_assert_eq!(recovered.recovery().valid_records as u64, crash_at);
        prop_assert!(!recovered.is_wedged());
        drop(recovered);
        prop_assert!(verify_path(&path).expect("verify").clean());
    }
}
