//! `infer-mv2` and `infer-bert-tiny`: compile once in set-up at a small
//! fixed budget, then repeat `CompiledGraph::run_native`.

use std::time::Instant;

use alt_core::CompiledGraph;
use alt_tensor::Graph;

use crate::report::{tail, Report};
use crate::steps::{self, CompileSamples, Model, Outputs, Samples};
use crate::{Config, Workload};

fn budget(cfg: &Config) -> u64 {
    if cfg.smoke {
        16
    } else {
        100
    }
}

/// Statement-iteration cap of the program prefix the reference
/// interpreter checks; the interpreter takes about a second on it.
const CHECK_CAP: u64 = 2_000_000;

/// Tuning seed of the program every run executes. Fixed, because which
/// schedule the tuner picks moves native time by a fifth or more across
/// seeds: `infer_s` should measure the executor on one program, while
/// the tuner's spread over seeds shows in `est_latency_ms`.
const PROGRAM_SEED: u64 = 0;

/// Cold compiles at run-seed tuning seeds after each native run, for
/// `compile_s`, `recompile_s` and `est_latency_ms`. Each takes about
/// 0.1 s, so it takes a few dozen per run for a steady median.
const COMPILES_PER_RUN: usize = 8;

fn model(cfg: &Config) -> fn(i64) -> Graph {
    match cfg.workload {
        Workload::InferMv2 => alt_models::mobilenet_v2,
        _ => alt_models::bert_tiny,
    }
}

pub(crate) fn run(cfg: &Config, report: &mut Report) {
    let mut setup_s = Vec::new();
    report.probe_host();
    let ready = setup(cfg, report, &mut setup_s);
    match ready {
        Some((m, compiled)) if cfg.traced => traced(cfg, report, &m, &compiled),
        Some((m, compiled)) => untraced(cfg, report, &m, &compiled, &mut setup_s),
        None => report.wall("setup_s", &setup_s),
    }
}

/// One set-up: build the graph and its run-seed bindings, and compile
/// the program that runs.
fn setup(
    cfg: &Config,
    report: &mut Report,
    setup_s: &mut Vec<f64>,
) -> Option<(Model, CompiledGraph)> {
    let store = cfg.scratch.join("setup.altstore");
    let opts = steps::options(budget(cfg), PROGRAM_SEED, &store);
    let t = Instant::now();
    let m = Model::build(model(cfg), cfg.seed);
    let cold = steps::cold_compile(report, &m.graph, &opts);
    setup_s.push(steps::secs(t));
    steps::remove_store(&store);
    cold.map(|(c, _)| (m, c))
}

/// Native runs until the window ends (at least `min_samples`), each
/// followed by a set-up and a few compiles, so every metric samples the
/// whole window rather than one burst of it.
fn untraced(
    cfg: &Config,
    report: &mut Report,
    m: &Model,
    compiled: &CompiledGraph,
    setup_s: &mut Vec<f64>,
) {
    let mut compiles = CompileSamples::default();
    let mut first: Option<Outputs> = None;
    let mut infer_s = Vec::new();
    let t0 = Instant::now();
    let mut k = 0;
    while infer_s.len() < cfg.min_samples() || steps::secs(t0) < cfg.seconds {
        report.probe_host();
        let ran = report.op("native_run", |c| {
            let t = Instant::now();
            let out = compiled.run_native(&m.bindings);
            infer_s.push(steps::secs(t));
            steps::check_repeat(c, out, &mut first);
        });
        if ran.is_none() {
            break;
        }
        setup(cfg, report, setup_s);
        for _ in 0..COMPILES_PER_RUN {
            let store = cfg.scratch.join(format!("compile-{k}.altstore"));
            let opts = steps::options(budget(cfg), steps::tuning_seed(cfg.seed, k), &store);
            compiles.cycle(report, &m.graph, &opts);
            k += 1;
        }
    }
    report.probe_host();
    report.wall("setup_s", setup_s);
    compiles.report(report);
    drop(first);
    report.wall("infer_s", &infer_s);
    report.note(match tail(&infer_s) {
        Some((p, v)) => format!("infer_s p{p} {v:.6} s (n={})", infer_s.len()),
        None => format!(
            "infer_s: n={} < 11, so no percentile has ten samples beyond it",
            infer_s.len()
        ),
    });
    steps::reference_check(report, compiled, m, CHECK_CAP);
    report.set("peak_rss_mb", steps::peak_rss_mb());
}

fn traced(cfg: &Config, report: &mut Report, m: &Model, compiled: &CompiledGraph) {
    let mut s = Samples::new();
    // The program's compile again, plain and observed, for its
    // per-layer readings and the overhead of observing it.
    for k in 0..cfg.min_samples() {
        let dir = cfg.scratch.join(format!("observed-{k}"));
        let seeds = (budget(cfg), PROGRAM_SEED);
        steps::observed_pair(report, m, &dir, seeds, k % 2 == 0, &mut s);
    }
    report.op("winner_layers", |_| {
        steps::winner_layers(compiled, m, &mut s)
    });
    let whole = || compiled.run_native(&m.bindings);
    let window = (cfg.min_pairs(), cfg.seconds);
    steps::native_pairs(
        report,
        compiled.program(),
        compiled,
        m,
        window,
        whole,
        &mut s,
    );
    if let Some(interp) = steps::reference_check(report, compiled, m, CHECK_CAP) {
        steps::push(&mut s, "loopir.interp_check_s", interp);
    }
    steps::report_medians(report, &s);
}
