//! `tune-r18`: cold compiles of ResNet-18 at a fixed budget, each
//! followed by a warm recompile from the store it filled.
//!
//! ResNet-18 native inference takes minutes, so the winner runs natively
//! only on the program prefix the reference check covers; that prefix
//! time is this workload's `infer_s`.

use std::time::Instant;

use alt_core::CompiledGraph;

use crate::report::Report;
use crate::steps::{self, CompileSamples, Model, Samples};
use crate::Config;

fn budget(cfg: &Config) -> u64 {
    if cfg.smoke {
        40
    } else {
        1000
    }
}

/// Statement-iteration cap of the winner prefix that runs natively and
/// under the reference check. ResNet-18's convolutions are all larger,
/// so the prefix holds its first padding groups.
const PREFIX_CAP: u64 = 300_000;

/// Native runs of the winner's prefix after each compile cycle, and
/// twice as many pairs of them in a traced run.
const PREFIX_RUNS: usize = 3;

pub(crate) fn run(cfg: &Config, report: &mut Report) {
    let mut setup_s = Vec::new();
    let m = setup(cfg, &mut setup_s);
    if cfg.traced {
        traced(cfg, report, &m);
    } else {
        untraced(cfg, report, &m, &mut setup_s);
    }
}

/// One set-up: build the graph and its run-seed bindings.
fn setup(cfg: &Config, setup_s: &mut Vec<f64>) -> Model {
    let t = Instant::now();
    let m = Model::build(alt_models::resnet18, cfg.seed);
    setup_s.push(steps::secs(t));
    m
}

/// Compile cycles until the window ends (at least `min_samples`), each
/// followed by a set-up and native runs of the first winner's prefix,
/// so every metric samples the whole window.
fn untraced(cfg: &Config, report: &mut Report, m: &Model, setup_s: &mut Vec<f64>) {
    let mut compiles = CompileSamples::default();
    let mut winner: Option<CompiledGraph> = None;
    let mut first = None;
    let mut infer_s = Vec::new();
    let t0 = Instant::now();
    let mut k = 0;
    while k < cfg.min_samples() || steps::secs(t0) < cfg.seconds {
        let store = cfg.scratch.join(format!("tune-{k}.altstore"));
        let opts = steps::options(budget(cfg), steps::tuning_seed(cfg.seed, k), &store);
        let cold = compiles.cycle(report, &m.graph, &opts);
        winner = winner.or(cold);
        setup(cfg, setup_s);
        if let Some(w) = &winner {
            let prefix = w.program().truncated(PREFIX_CAP);
            report.probe_host();
            for _ in 0..PREFIX_RUNS {
                report.op("native_run", |c| {
                    let t = Instant::now();
                    let out = steps::native_run(&prefix, w, m);
                    infer_s.push(steps::secs(t));
                    steps::check_repeat(c, out, &mut first);
                });
            }
        }
        k += 1;
    }
    report.probe_host();
    drop(first);
    compiles.report(report);
    report.wall("setup_s", setup_s);
    report.wall("infer_s", &infer_s);
    if let Some(w) = &winner {
        steps::reference_check(report, w, m, PREFIX_CAP);
    }
    report.set("peak_rss_mb", steps::peak_rss_mb());
}

fn traced(cfg: &Config, report: &mut Report, m: &Model) {
    let mut s = Samples::new();
    let mut winner = None;
    let t0 = Instant::now();
    let mut k = 0;
    while k < cfg.min_pairs() || steps::secs(t0) < cfg.seconds {
        let dir = cfg.scratch.join(format!("observed-{k}"));
        let seeds = (budget(cfg), steps::tuning_seed(cfg.seed, k));
        // Alternate which side runs first so warm-up favours neither.
        let w = steps::observed_pair(report, m, &dir, seeds, k % 2 == 0, &mut s);
        winner = winner.or(w);
        k += 1;
    }
    if let Some(w) = winner {
        report.op("winner_layers", |_| steps::winner_layers(&w, m, &mut s));
        let prefix = w.program().truncated(PREFIX_CAP);
        let whole = || steps::native_run(&prefix, &w, m);
        steps::native_pairs(
            report,
            &prefix,
            &w,
            m,
            (2 * PREFIX_RUNS, 0.0),
            whole,
            &mut s,
        );
        if let Some(interp) = steps::reference_check(report, &w, m, PREFIX_CAP) {
            steps::push(&mut s, "loopir.interp_check_s", interp);
        }
    }
    steps::report_medians(report, &s);
}
