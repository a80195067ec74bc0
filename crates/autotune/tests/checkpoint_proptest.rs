//! Property-based test for checkpoint/resume: for any seed, halt point,
//! and fault rate, a run killed at a checkpoint and resumed from the
//! serialized file must reach exactly the same final best latency (and
//! budget count) as the uninterrupted run.

use proptest::prelude::*;

use alt_autotune::{tune_graph, FaultConfig, Observer, TuneConfig, TunerCheckpoint};
use alt_sim::intel_cpu;
use alt_telemetry::{Record, Telemetry};
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

fn base_cfg(seed: u64, fault_rate: f64) -> TuneConfig {
    TuneConfig {
        joint_budget: 12,
        loop_budget: 12,
        batch: 8,
        topk: 2,
        free_input_layouts: true,
        seed,
        faults: if fault_rate > 0.0 {
            Some(FaultConfig::uniform(fault_rate))
        } else {
            None
        },
        ..TuneConfig::default()
    }
}

/// `base_cfg` with a memory trace attached; returns the config and the
/// trace's sink.
fn traced_cfg(
    seed: u64,
    fault_rate: f64,
) -> (TuneConfig, std::sync::Arc<alt_telemetry::MemorySink>) {
    let (trace, sink) = Telemetry::memory();
    let cfg = TuneConfig {
        observer: Observer {
            trace,
            ..Observer::default()
        },
        ..base_cfg(seed, fault_rate)
    };
    (cfg, sink)
}

fn ck_path(tag: &str, seed: u64, halt: u64, faulted: bool) -> String {
    let dir = std::env::temp_dir().join("alt-ck-proptest");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "ck-{tag}-{}-{seed}-{halt}-{faulted}.json",
        std::process::id()
    ))
    .to_str()
    .unwrap()
    .to_string()
}

/// The trace's per-unit measurement records.
fn measurements(records: Vec<Record>) -> Vec<Record> {
    records
        .into_iter()
        .filter(|r| matches!(r, Record::Measurement(_)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn resume_reaches_same_best_latency(
        seed in 0u64..10_000,
        halt in 1u64..24,
        faulted in any::<bool>(),
    ) {
        let g = conv_graph();
        let rate = if faulted { 0.2 } else { 0.0 };
        let (full_journal, full_sink) = alt_journal::Journal::memory();
        let full = tune_graph(&g, intel_cpu(), TuneConfig {
            observer: Observer { journal: full_journal, ..Observer::default() },
            ..base_cfg(seed, rate)
        });

        let dir = std::env::temp_dir().join("alt-ck-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("ck-{}-{seed}-{halt}-{faulted}.json", std::process::id()))
            .to_str()
            .unwrap()
            .to_string();

        let (halted_journal, halted_sink) = alt_journal::Journal::memory();
        let halted = tune_graph(&g, intel_cpu(), TuneConfig {
            checkpoint_path: Some(path.clone()),
            halt_after: Some(halt),
            observer: Observer { journal: halted_journal, ..Observer::default() },
            ..base_cfg(seed, rate)
        });

        // Halting can only ever be early or a no-op, never overspend.
        prop_assert!(halted.measurements <= full.measurements);

        if std::path::Path::new(&path).exists() {
            let ck = TunerCheckpoint::load(&path).unwrap();
            let (resumed_journal, resumed_sink) = alt_journal::Journal::memory();
            let resumed = tune_graph(&g, intel_cpu(), TuneConfig {
                resume: Some(ck),
                observer: Observer { journal: resumed_journal, ..Observer::default() },
                ..base_cfg(seed, rate)
            });
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(resumed.measurements, full.measurements);
            prop_assert_eq!(resumed.latency, full.latency);
            prop_assert_eq!(resumed.history, full.history);
            // The halted run's journal plus the resumed run's journal is
            // the uninterrupted run's journal, byte for byte: the header
            // is written only by the first leg, the summary only by the
            // last, and the checkpoint cuts before the iteration whose
            // records the resumed leg re-emits.
            let mut stitched = halted_sink.lines();
            stitched.extend(resumed_sink.lines());
            prop_assert_eq!(stitched, full_sink.lines());
        } else {
            // The halt point fell beyond the run's total budget, so no
            // checkpoint was cut; the "halted" run is the full run.
            prop_assert_eq!(halted.measurements, full.measurements);
            prop_assert_eq!(halted.latency, full.latency);
            prop_assert_eq!(halted_sink.lines(), full_sink.lines());
        }
    }

    /// The checkpoint is tuner state, not observation: attaching a trace
    /// changes none of its bytes.
    #[test]
    fn checkpoint_bytes_do_not_depend_on_the_trace(
        seed in 0u64..10_000,
        halt in 1u64..24,
        faulted in any::<bool>(),
    ) {
        let g = conv_graph();
        let rate = if faulted { 0.2 } else { 0.0 };
        let plain_path = ck_path("plain", seed, halt, faulted);
        let traced_path = ck_path("traced", seed, halt, faulted);
        tune_graph(&g, intel_cpu(), TuneConfig {
            checkpoint_path: Some(plain_path.clone()),
            halt_after: Some(halt),
            ..base_cfg(seed, rate)
        });
        let (cfg, _sink) = traced_cfg(seed, rate);
        tune_graph(&g, intel_cpu(), TuneConfig {
            checkpoint_path: Some(traced_path.clone()),
            halt_after: Some(halt),
            ..cfg
        });
        let plain = std::fs::read(&plain_path).ok();
        let traced = std::fs::read(&traced_path).ok();
        std::fs::remove_file(&plain_path).ok();
        std::fs::remove_file(&traced_path).ok();
        prop_assert_eq!(plain, traced);
    }

    /// A traced resume of an untraced halt continues the uninterrupted
    /// traced run's measurement records exactly, `best_so_far_s`
    /// included.
    #[test]
    fn traced_resume_of_untraced_halt_continues_the_trace(
        seed in 0u64..10_000,
        halt in 1u64..24,
        faulted in any::<bool>(),
    ) {
        let g = conv_graph();
        let rate = if faulted { 0.2 } else { 0.0 };
        let (cfg, full_sink) = traced_cfg(seed, rate);
        tune_graph(&g, intel_cpu(), cfg);
        let full = measurements(full_sink.records());

        let path = ck_path("mixed", seed, halt, faulted);
        tune_graph(&g, intel_cpu(), TuneConfig {
            checkpoint_path: Some(path.clone()),
            halt_after: Some(halt),
            ..base_cfg(seed, rate)
        });
        if std::path::Path::new(&path).exists() {
            let ck = TunerCheckpoint::load(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let (cfg, resumed_sink) = traced_cfg(seed, rate);
            tune_graph(&g, intel_cpu(), TuneConfig {
                resume: Some(ck),
                ..cfg
            });
            let resumed = measurements(resumed_sink.records());
            prop_assert!(resumed.len() <= full.len());
            prop_assert_eq!(&resumed[..], &full[full.len() - resumed.len()..]);
        }
    }
}
