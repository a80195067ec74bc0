//! Wall-clock benchmark of the ALT compiler, end to end and per layer.
//!
//! Closed-loop workloads (one request at a time, one process) drive the
//! public API of `alt-core`: `tune-r18` compiles ResNet-18 cold and then
//! warm from the durable store the cold compile filled, and
//! `infer-bert-tiny` (and the ungated `infer-mv2`) compile once in
//! set-up and then repeat `CompiledGraph::run_native`. An untraced run
//! prints the end-to-end metrics; a traced run times each layer from
//! outside, by calling its public functions, and reads the compile's
//! timing manifest, deterministic trace and journal. See `README.md` for
//! the metric map and the known gaps.

pub mod anchor;
mod infer;
pub mod metrics;
pub mod report;
mod steps;
mod tune;

use std::path::PathBuf;

use report::Report;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TuneR18,
    InferMv2,
    InferBertTiny,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TuneR18,
        Workload::InferMv2,
        Workload::InferBertTiny,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneR18 => "tune-r18",
            Workload::InferMv2 => "infer-mv2",
            Workload::InferBertTiny => "infer-bert-tiny",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    /// Sets the tuning seeds and the input bindings.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Per-layer run (timing, journal and trace on) instead of the
    /// untraced end-to-end run.
    pub traced: bool,
    /// Tiny budgets and single samples: checks that every metric is
    /// produced, measures nothing meaningful.
    pub smoke: bool,
    /// Directory for stores, journals and traces; must exist.
    pub scratch: PathBuf,
}

impl Config {
    /// Fewest samples in a measurement window, however long it runs.
    fn min_samples(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Untraced/traced pairs a traced run measures at least.
    fn min_pairs(&self) -> usize {
        if self.smoke {
            1
        } else {
            2
        }
    }
}

/// Runs one workload and returns what it measured.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    match cfg.workload {
        Workload::TuneR18 => tune::run(cfg, &mut report),
        Workload::InferMv2 | Workload::InferBertTiny => infer::run(cfg, &mut report),
    }
    report
}
