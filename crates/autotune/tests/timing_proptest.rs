//! Property-based test for the wall-clock self-profiling layer: timing
//! and the progress heartbeat are observation-only. For any seed, any
//! worker count, and with or without a durable store attached, tuning
//! with timing + progress enabled must be bit-identical to tuning with
//! both disabled — the same winner, history, budget and cache
//! accounting, telemetry transcript, and search journal. Timing records
//! must never leak into the deterministic trace stream, and the phase
//! tree must conserve time (children never exceed their parent).

use std::sync::Arc;

use proptest::prelude::*;

use alt_autotune::{Handles, TuneConfig, TuneResult, Tuner};
use alt_sim::intel_cpu;
use alt_store::Store;
use alt_telemetry::{MemorySink, Record, Telemetry, Timing};
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};

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

/// A fresh store in its own directory, so every run starts cold and the
/// plain/timed pair see identical store state.
fn fresh_store(tag: &str) -> (std::path::PathBuf, Arc<Store>) {
    let dir = std::env::temp_dir().join(format!("alt-timing-proptest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create store dir");
    let path = dir.join(format!("{tag}.altstore"));
    std::fs::remove_file(&path).ok();
    let store = Arc::new(Store::open(&path).expect("open store"));
    (path, store)
}

/// Tunes with a trace and journal attached; `timing` switches the
/// self-profiler (and the stderr progress heartbeat) on.
fn run(
    seed: u64,
    jobs: usize,
    store: Option<Arc<Store>>,
    timing: Timing,
    progress: bool,
) -> (TuneResult, Vec<Record>, Vec<String>) {
    let sink = Arc::new(MemorySink::new());
    let (journal, jsink) = alt_journal::Journal::memory();
    let cfg = TuneConfig {
        joint_budget: 12,
        loop_budget: 12,
        batch: 8,
        topk: 2,
        free_input_layouts: true,
        seed,
        jobs,
        ..TuneConfig::default()
    };
    let handles = Handles {
        observer: alt_autotune::Observer {
            trace: Telemetry::new(sink.clone()),
            journal,
            timing,
            progress,
        },
        store,
        resume: None,
    };
    let result = Tuner::new(&conv_graph(), intel_cpu(), cfg, handles).tune();
    let records = sink
        .records()
        .into_iter()
        .filter(|r| !matches!(r, Record::Span(_) | Record::Event(_)))
        .collect();
    (result, records, jsink.lines())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn timing_and_progress_are_observation_only(
        seed in 0u64..10_000,
        jobs_sel in 0usize..2,
        with_store in any::<bool>(),
    ) {
        let jobs = [1usize, 8][jobs_sel];
        let (plain_store, timed_store) = if with_store {
            let (_, a) = fresh_store(&format!("plain-{seed}-{jobs}"));
            let (_, b) = fresh_store(&format!("timed-{seed}-{jobs}"));
            (Some(a), Some(b))
        } else {
            (None, None)
        };
        let (plain, plain_records, plain_journal) =
            run(seed, jobs, plain_store, Timing::disabled(), false);
        let timing = Timing::enabled();
        let (timed, timed_records, timed_journal) =
            run(seed, jobs, timed_store, timing.clone(), true);

        // The tuning outcome is identical down to the float bits.
        prop_assert_eq!(plain.latency.to_bits(), timed.latency.to_bits());
        prop_assert_eq!(plain.measurements, timed.measurements);
        prop_assert_eq!(&plain.history, &timed.history);
        prop_assert_eq!(
            (plain.cache_hits, plain.cache_misses),
            (timed.cache_hits, timed.cache_misses)
        );
        prop_assert_eq!(
            (plain.store_hits, plain.store_misses),
            (timed.store_hits, timed.store_misses)
        );
        // Layout and schedule decisions agree (via the structured log).
        let g = conv_graph();
        prop_assert_eq!(plain.to_log(&g), timed.to_log(&g));
        // The deterministic trace agrees record for record, and timing
        // never leaks into it: the self-profiler has its own sink.
        prop_assert!(
            !timed_records.iter().any(|r| matches!(r, Record::Timing(_))),
            "timing records leaked into the deterministic trace"
        );
        prop_assert_eq!(plain_records, timed_records);
        // The search journal is bit-identical line for line.
        prop_assert!(!plain_journal.is_empty(), "journal captured the run");
        prop_assert_eq!(plain_journal, timed_journal);
        // The phase tree observed the run and conserves time.
        let root = timing.snapshot().expect("enabled timing snapshots");
        prop_assert!(root.is_conserved(), "children exceed parent time");
        prop_assert!(
            root.find("loop_stage").is_some(),
            "loop stage was profiled"
        );
    }
}
