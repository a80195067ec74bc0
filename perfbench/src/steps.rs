//! Building blocks shared by the workloads: model set-up, checked
//! compiles, native runs split into their public steps, the reference
//! check, and the per-layer readings of a traced compile.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use alt_core::{CompileOptions, CompiledGraph, Compiler};
use alt_loopir::Program;
use alt_telemetry::Record;
use alt_tensor::{Graph, NdBuf, TensorId};
use serde_json::Value;

use crate::report::{median, Checks, Report};

pub(crate) type Outputs = HashMap<TensorId, NdBuf>;

/// Per-metric samples of a traced run; each metric reports its median.
pub(crate) type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Worker threads for tuning and native execution: the host's CPUs.
pub(crate) fn threads() -> usize {
    alt_codegen::default_threads()
}

pub(crate) fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

pub(crate) fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

pub(crate) fn report_medians(report: &mut Report, samples: &Samples) {
    for (name, values) in samples {
        report.median(name, values);
    }
}

/// A model graph with its seeded input and parameter bindings.
pub(crate) struct Model {
    pub graph: Graph,
    pub bindings: Outputs,
}

impl Model {
    pub fn build(make: fn(i64) -> Graph, seed: u64) -> Model {
        let graph = make(1);
        let bindings = alt_tensor::exec::random_bindings(&graph, seed);
        Model { graph, bindings }
    }
}

/// Compile options of the benchmark: intel profile, 40% of the budget
/// on the joint stage (as `altc`), tuner workers on every CPU, and a
/// durable store at `store`.
pub(crate) fn options(budget: u64, seed: u64, store: &Path) -> CompileOptions {
    let joint = budget * 2 / 5;
    CompileOptions {
        joint_budget: joint,
        loop_budget: budget - joint,
        seed,
        jobs: threads(),
        store: Some(path_string(store)),
        ..CompileOptions::default()
    }
}

/// `base` with every observation stream on: the timing manifest, the
/// journal and the deterministic trace, written under `dir`.
pub(crate) fn observed(base: &CompileOptions, dir: &Path) -> CompileOptions {
    CompileOptions {
        timing: true,
        journal: Some(path_string(&dir.join("journal.jsonl"))),
        trace: Some(path_string(&dir.join("trace.jsonl"))),
        ..base.clone()
    }
}

fn path_string(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

pub(crate) fn compile(graph: &Graph, opts: &CompileOptions) -> CompiledGraph {
    Compiler::new(alt_sim::intel_cpu())
        .with_options(opts.clone())
        .compile(graph)
}

/// A cold compile, timed, then checked: it spent exactly its budget and
/// the winner passes the static verifier.
pub(crate) fn cold_compile(
    report: &mut Report,
    graph: &Graph,
    opts: &CompileOptions,
) -> Option<(CompiledGraph, f64)> {
    report.op("cold_compile", |c| {
        let t = Instant::now();
        let cold = compile(graph, opts);
        let wall = secs(t);
        let budget = opts.joint_budget + opts.loop_budget;
        c.check("cold.measurements_eq_budget", cold.measurements() == budget);
        c.check("cold.not_warm", !cold.warm_start());
        c.check("cold.verify_empty", cold.verify().is_empty());
        (cold, wall)
    })
}

/// A warm recompile from the store `cold` filled, timed, then checked:
/// it replays the stored winner without spending any budget.
pub(crate) fn warm_compile(
    report: &mut Report,
    graph: &Graph,
    opts: &CompileOptions,
    cold: &CompiledGraph,
) -> Option<(CompiledGraph, f64)> {
    report.op("warm_compile", |c| {
        let t = Instant::now();
        let warm = compile(graph, opts);
        let wall = secs(t);
        c.check("warm.warm_start", warm.warm_start());
        c.check("warm.zero_measurements", warm.measurements() == 0);
        c.check(
            "warm.same_latency_bits",
            warm.estimated_latency().to_bits() == cold.estimated_latency().to_bits(),
        );
        (warm, wall)
    })
}

/// Warm recompiles after each cold compile: each takes milliseconds, so
/// several make `recompile_s` a steady median.
const WARM_REPEATS: usize = 5;

/// The tuning seed of the `k`-th compile of a run: distinct per run seed
/// and per compile, so a run reports medians over several searches.
pub(crate) fn tuning_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

/// Compile-time samples of a run.
#[derive(Default)]
pub(crate) struct CompileSamples {
    pub compile_s: Vec<f64>,
    pub recompile_s: Vec<f64>,
    pub est_latency_ms: Vec<f64>,
}

impl CompileSamples {
    /// One cold compile into a fresh store, then warm recompiles from
    /// it; the store is removed afterwards. Returns the cold winner.
    pub fn cycle(
        &mut self,
        report: &mut Report,
        graph: &Graph,
        opts: &CompileOptions,
    ) -> Option<CompiledGraph> {
        let store = PathBuf::from(opts.store.as_deref().expect("options name a store"));
        report.probe_host();
        let cold = cold_compile(report, graph, opts);
        if let Some((cold, wall)) = &cold {
            self.compile_s.push(*wall);
            self.est_latency_ms.push(cold.estimated_latency() * 1e3);
            for _ in 0..WARM_REPEATS {
                if let Some((_, wall)) = warm_compile(report, graph, opts, cold) {
                    self.recompile_s.push(wall);
                }
            }
        }
        remove_store(&store);
        cold.map(|(c, _)| c)
    }

    pub fn report(&self, report: &mut Report) {
        report.wall("compile_s", &self.compile_s);
        report.wall("recompile_s", &self.recompile_s);
        report.median("est_latency_ms", &self.est_latency_ms);
    }
}

/// Removes a store and its writer lock.
pub(crate) fn remove_store(store: &Path) {
    let lock = PathBuf::from(format!("{}.lock", store.display()));
    for p in [store, lock.as_path()] {
        let _ = std::fs::remove_file(p);
    }
}

pub(crate) fn file_bytes(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64)
}

/// Bit-for-bit equality of two output maps.
pub(crate) fn same_bits(a: &Outputs, b: &Outputs) -> bool {
    a.len() == b.len()
        && a.iter().all(|(t, x)| {
            b.get(t).is_some_and(|y| {
                x.data().len() == y.data().len()
                    && x.data()
                        .iter()
                        .zip(y.data())
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            })
        })
}

pub(crate) fn all_finite(out: &Outputs) -> bool {
    out.values().all(|b| b.data().iter().all(|v| v.is_finite()))
}

/// One inference on `program`, the way `CompiledGraph::run_native` does
/// it (kernel compile, then pack, execute, unpack), for programs that
/// are not a whole `CompiledGraph` (a prefix).
pub(crate) fn native_run(program: &Program, compiled: &CompiledGraph, m: &Model) -> Outputs {
    alt_codegen::compile(program, compiled.target_profile())
        .run(program, &m.graph, compiled.plan(), &m.bindings, threads())
        .0
}

/// One inference split into its public steps, each timed. Returns the
/// outputs and the summed time of the steps.
pub(crate) fn split_run(
    program: &Program,
    compiled: &CompiledGraph,
    m: &Model,
    samples: &mut Samples,
) -> (Outputs, f64) {
    let t = Instant::now();
    let kernel = alt_codegen::compile(program, compiled.target_profile());
    let compile_us = secs(t) * 1e6;
    let t = Instant::now();
    let mut bufs = alt_loopir::pack_buffers(program, &m.graph, compiled.plan(), &m.bindings);
    let pack = secs(t);
    let t = Instant::now();
    let stats = kernel.execute(&mut bufs, threads());
    let execute = secs(t);
    let t = Instant::now();
    let out = alt_loopir::unpack_buffers(program, &m.graph, compiled.plan(), &bufs);
    let unpack = secs(t);
    let flops = program_flops(&m.graph, program);
    let slowest = stats.group_us.iter().map(|(_, us)| *us).fold(0.0, f64::max);
    push(samples, "codegen.compile_us", compile_us);
    push(samples, "loopir.pack_s", pack);
    push(samples, "codegen.execute_s", execute);
    push(samples, "loopir.unpack_s", unpack);
    push(samples, "codegen.group_s_sum", group_sum_s(&stats));
    push(samples, "codegen.groups", stats.group_us.len() as f64);
    push(samples, "codegen.slowest_group_s", slowest * 1e-6);
    push(samples, "codegen.gflops", flops / execute / 1e9);
    (out, compile_us * 1e-6 + pack + execute + unpack)
}

fn group_sum_s(stats: &alt_codegen::NativeRunStats) -> f64 {
    stats.group_us.iter().map(|(_, us)| us).sum::<f64>() * 1e-6
}

/// Floating-point work of the graph operators a program's groups run.
pub(crate) fn program_flops(graph: &Graph, program: &Program) -> f64 {
    program
        .groups
        .iter()
        .flat_map(|g| std::iter::once(g.root).chain(g.fused.iter().copied()))
        .map(|op| graph.node(op).compute.total_flops() as f64)
        .sum()
}

/// The reference check, as `altc run --check-cap`: on the program prefix
/// of at most `cap` statement iterations, the loopir interpreter and the
/// native executor produce bit-identical, finite outputs. Returns the
/// interpreter time.
pub(crate) fn reference_check(
    report: &mut Report,
    compiled: &CompiledGraph,
    m: &Model,
    cap: u64,
) -> Option<f64> {
    let prefix = compiled.program().truncated(cap);
    report.op("reference_check", |c| {
        let t = Instant::now();
        let want = alt_loopir::run_program(&prefix, &m.graph, compiled.plan(), &m.bindings);
        let interp = secs(t);
        let got = native_run(&prefix, compiled, m);
        c.check("reference.native_eq_interp", same_bits(&want, &got));
        c.check("reference.finite", all_finite(&want));
        interp
    })
}

/// Times the winner's own layers from outside: lowering its schedule,
/// verifying it and profiling it on the simulator.
pub(crate) fn winner_layers(compiled: &CompiledGraph, m: &Model, samples: &mut Samples) {
    let t = Instant::now();
    let program = alt_loopir::lower(&m.graph, compiled.plan(), compiled.schedule());
    push(samples, "loopir.winner_lower_us", secs(t) * 1e6);
    push(
        samples,
        "loopir.stmt_iterations",
        program.total_stmt_iterations() as f64,
    );
    let t = Instant::now();
    let (diags, _) = compiled.verify_with_stats();
    push(samples, "verify.winner_us", secs(t) * 1e6);
    assert!(diags.is_empty(), "winner verifies");
    let t = Instant::now();
    let breakdown = compiled.profile_breakdown(*compiled.target_profile());
    push(samples, "sim.winner_profile_us", secs(t) * 1e6);
    assert_eq!(
        breakdown.total_s.to_bits(),
        compiled.estimated_latency().to_bits(),
        "profile total is the tuner's latency"
    );
}

/// Per-layer readings of one observed cold compile: the timing
/// manifest's phase tree and wall histograms, the trace's counters, and
/// the sizes of the journal and the store it wrote. Returns the wall
/// time the named phases do not cover.
pub(crate) fn compile_layers(
    compiled: &CompiledGraph,
    wall_s: f64,
    dir: &Path,
    store: &Path,
    samples: &mut Samples,
) -> f64 {
    let manifest = compiled.timing_manifest().expect("timing was on");
    let phases = &manifest["phases"];
    let phase_s = |name: &str| phase_us(phases, name) * 1e-6;
    push(samples, "autotune.joint_stage_s", phase_s("joint_stage"));
    push(samples, "autotune.loop_stage_s", phase_s("loop_stage"));
    push(
        samples,
        "autotune.candidate_gen_s",
        phase_s("candidate_gen"),
    );
    push(samples, "autotune.gbt_score_s", phase_s("gbt_score"));
    push(samples, "autotune.prewarm_s", phase_s("prewarm"));
    push(samples, "autotune.measure_s", phase_s("measure"));
    push(samples, "loopir.lower_s", phase_s("lower"));
    push(samples, "sim.simulate_s", phase_s("simulate"));
    let measurements = compiled.measurements() as f64;
    push(samples, "autotune.measurements", measurements);
    let wall = &manifest["wall"];
    let hist = |name: &str, key: &str| wall[name][key].as_f64();
    if let Some(n) = hist("candidate.lower_us", "count") {
        push(
            samples,
            "autotune.lowered_per_measurement",
            n / measurements,
        );
    }
    for (metric, name, key, scale) in [
        ("loopir.lower_us.p50", "candidate.lower_us", "p50_us", 1.0),
        ("loopir.lower_us.p99", "candidate.lower_us", "p99_us", 1.0),
        (
            "verify.set_emptiness_s",
            "verify.set_emptiness_us",
            "sum_us",
            1e-6,
        ),
        (
            "verify.set_emptiness_us.p99",
            "verify.set_emptiness_us",
            "p99_us",
            1.0,
        ),
        ("sim.memo_lookup_us.p50", "memo.lookup_us", "p50_us", 1.0),
        (
            "sim.cold_simulate_us.p50",
            "memo.cold_simulate_us",
            "p50_us",
            1.0,
        ),
        ("store.append_us.p50", "store.append_us", "p50_us", 1.0),
        ("store.fsync_us.p50", "store.fsync_us", "p50_us", 1.0),
    ] {
        if let Some(v) = hist(name, key) {
            push(samples, metric, v * scale);
        }
    }
    let counters = trace_counters(&dir.join("trace.jsonl"));
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    push(samples, "verify.set_queries", counter("verify.set_queries"));
    let lookups = counter("cache.hits") + counter("cache.misses");
    if lookups > 0.0 {
        push(
            samples,
            "sim.memo_hit_rate",
            counter("cache.hits") / lookups,
        );
    }
    push(
        samples,
        "journal.bytes",
        file_bytes(&dir.join("journal.jsonl")),
    );
    push(samples, "store.bytes", file_bytes(store));
    let root = phases["inclusive_us"].as_f64().unwrap_or(0.0);
    let root_self = phases["exclusive_us"].as_f64().unwrap_or(0.0);
    wall_s - (root - root_self) * 1e-6
}

/// Summed inclusive microseconds of every phase named `name`.
fn phase_us(node: &Value, name: &str) -> f64 {
    if node["name"].as_str() == Some(name) {
        return node["inclusive_us"].as_f64().unwrap_or(0.0);
    }
    node["children"]
        .as_array()
        .map_or(0.0, |c| c.iter().map(|n| phase_us(n, name)).sum())
}

/// Counter totals of a deterministic trace, by name.
fn trace_counters(path: &Path) -> BTreeMap<String, f64> {
    let mut totals = BTreeMap::new();
    let records = alt_telemetry::read_jsonl(path).expect("trace is readable");
    for r in records {
        if let Record::Counter(c) = r {
            *totals.entry(c.name).or_insert(0.0) += c.value;
        }
    }
    totals
}

/// One plain and one observed cold compile with the same seed, in the
/// given order; the observed one yields the compile's per-layer
/// readings, its warm recompile's, and the overhead of observing.
/// Returns the observed winner.
pub(crate) fn observed_pair(
    report: &mut Report,
    m: &Model,
    dir: &Path,
    (budget, seed): (u64, u64),
    plain_first: bool,
    s: &mut Samples,
) -> Option<CompiledGraph> {
    std::fs::create_dir_all(dir).expect("scratch is writable");
    report.probe_host();
    let store = dir.join("observed.altstore");
    let plain = options(budget, seed, &dir.join("plain.altstore"));
    let opts = observed(&options(budget, seed, &store), dir);
    let mut walls = [f64::NAN; 2];
    let mut winner = None;
    let order = if plain_first { [0, 1] } else { [1, 0] };
    for side in order {
        let o = if side == 0 { &plain } else { &opts };
        let Some((cold, wall)) = cold_compile(report, &m.graph, o) else {
            continue;
        };
        walls[side] = wall;
        if side == 1 {
            let rest = compile_layers(&cold, wall, dir, &store, s);
            push(s, "trace.compile_unaccounted_s", rest);
            if let Some((warm, _)) = warm_compile(report, &m.graph, &opts, &cold) {
                push(s, "store.warm_hit", f64::from(u8::from(warm.warm_start())));
                let manifest = warm.timing_manifest().expect("timing was on");
                if let Some(v) = manifest["wall"]["store.get_us"]["p50_us"].as_f64() {
                    push(s, "store.get_us.p50", v);
                }
            }
            winner = Some(cold);
        }
    }
    push(s, "observe.overhead_frac", walls[1] / walls[0] - 1.0);
    let _ = std::fs::remove_dir_all(dir);
    winner
}

/// Checks a native run's outputs: finite, and bit-identical to the
/// first run's, which `first` keeps.
pub(crate) fn check_repeat(c: &mut Checks, out: Outputs, first: &mut Option<Outputs>) {
    c.check("native.finite", all_finite(&out));
    match first {
        Some(f) => c.check("native.repeat_bit_identical", same_bits(&out, f)),
        None => *first = Some(out),
    }
}

/// Native runs of `program`, whole (`whole`, the untraced call) paired
/// with the same run split into its public steps, whose outputs must
/// match the whole run's bit for bit. At least `min` pairs, and more
/// until `seconds` have passed. Ends with the host anchor's share and
/// the reconciliation of the split steps with the whole run.
pub(crate) fn native_pairs(
    report: &mut Report,
    program: &Program,
    compiled: &CompiledGraph,
    m: &Model,
    (min, seconds): (usize, f64),
    whole: impl Fn() -> Outputs,
    s: &mut Samples,
) {
    let mut first = None;
    let (mut whole_s, mut split_s) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while whole_s.len() < min || secs(t0) < seconds {
        report.probe_host();
        let ran = report.op("native_run", |c| {
            let t = Instant::now();
            let out = whole();
            whole_s.push(secs(t));
            check_repeat(c, out, &mut first);
            let (out, total) = split_run(program, compiled, m, s);
            split_s.push(total);
            check_repeat(c, out, &mut first);
        });
        if ran.is_none() {
            break;
        }
    }
    let (whole_med, split) = (median(&whole_s), median(&split_s));
    report.note(format!(
        "reconcile: whole native run {whole_med:.6} s; kernel compile + pack + execute + \
         unpack {split:.6} s; unaccounted {:.6} s (n={})",
        whole_med - split,
        whole_s.len()
    ));
    let anchor = report.host_gflops();
    let gflops = s.get("codegen.gflops").map_or(f64::NAN, |v| median(v));
    push(s, "anchor.gflops", anchor);
    push(s, "trace.infer_unaccounted_s", whole_med - split);
    push(s, "codegen.anchor_frac", gflops / anchor);
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
