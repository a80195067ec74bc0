//! Property-based test for the parallel measurement engine: for any
//! seed, fault rate, and worker count, tuning with `jobs = N` must be
//! bit-identical to `jobs = 1` — the same [`TuneResult`], the same
//! telemetry record sequence (wall-clock spans excepted), the same
//! budget and cache accounting, and byte-identical checkpoints. Workers
//! only prewarm the memoized simulation cache; every RNG draw, fault,
//! retry, and budget unit stays on the sequential accounting path.

use std::sync::Arc;

use proptest::prelude::*;

use alt_autotune::{tune_graph, FaultConfig, TuneConfig, TuneResult};
use alt_sim::intel_cpu;
use alt_telemetry::{MemorySink, Record, Telemetry};
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

/// Tunes with a full trace and a search journal attached plus periodic
/// checkpoints, returning the result, every telemetry record that is
/// not a wall-clock span/event, and the journal as JSONL lines.
fn traced(seed: u64, rate: f64, jobs: usize, ck: &str) -> (TuneResult, Vec<Record>, Vec<String>) {
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
        observer: alt_autotune::Observer {
            trace: Telemetry::new(sink.clone()),
            journal,
            ..Default::default()
        },
        faults: (rate > 0.0).then(|| FaultConfig::uniform(rate)),
        checkpoint_path: Some(ck.to_string()),
        checkpoint_every: 8,
        ..TuneConfig::default()
    };
    let result = tune_graph(&conv_graph(), intel_cpu(), cfg);
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
    fn any_job_count_is_bit_identical_to_sequential(
        seed in 0u64..10_000,
        jobs_sel in 0usize..2,
        faulted in any::<bool>(),
    ) {
        let jobs = [2usize, 8][jobs_sel];
        let rate = if faulted { 0.2 } else { 0.0 };
        let dir = std::env::temp_dir().join("alt-par-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = |tag: &str| {
            dir.join(format!(
                "ck-{}-{seed}-{jobs}-{faulted}-{tag}.json",
                std::process::id()
            ))
            .to_str()
            .unwrap()
            .to_string()
        };
        let (ck_seq, ck_par) = (ck("seq"), ck("par"));
        let (seq, seq_records, seq_journal) = traced(seed, rate, 1, &ck_seq);
        let (par, par_records, par_journal) = traced(seed, rate, jobs, &ck_par);

        // The tuning outcome is identical down to the float bits.
        prop_assert_eq!(seq.latency.to_bits(), par.latency.to_bits());
        prop_assert_eq!(seq.measurements, par.measurements);
        prop_assert_eq!(&seq.history, &par.history);
        // Cache accounting does not depend on prewarming: a hit means
        // "this budgeted measurement repeated an earlier one" either way.
        prop_assert_eq!(
            (seq.cache_hits, seq.cache_misses),
            (par.cache_hits, par.cache_misses)
        );
        // Layout and schedule decisions agree (via the structured log,
        // which serializes per-tensor layouts and budget accounting).
        let g = conv_graph();
        prop_assert_eq!(seq.to_log(&g), par.to_log(&g));
        // The full telemetry transcript agrees record for record —
        // measurements, failures, retries, PPO/cost-model updates, and
        // flushed counters. Only wall-clock spans may differ.
        prop_assert_eq!(seq_records, par_records);
        // The search journal is bit-identical line for line: every
        // candidate, provenance tag, outcome, and budget index agrees,
        // and the header deliberately omits the worker count.
        prop_assert!(!seq_journal.is_empty(), "journal captured the run");
        prop_assert_eq!(seq_journal, par_journal);
        // Periodic checkpoints are byte-identical too: a parallel run
        // can be resumed by a sequential one and vice versa.
        let a = std::fs::read(&ck_seq).ok();
        let b = std::fs::read(&ck_par).ok();
        std::fs::remove_file(&ck_seq).ok();
        std::fs::remove_file(&ck_par).ok();
        prop_assert!(a.is_some(), "sequential run wrote a checkpoint");
        prop_assert_eq!(a, b);
    }
}
