//! The benchmark's metric and workload tables: the single source of
//! truth that `BENCHMARK.json` mirrors (checked by `tests/names.rs`).

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: its name on the command line and why it was chosen.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// The gated workloads, the ones `BENCHMARK.json` lists. `infer-mv2`
/// also runs (see `README.md`) but is not gated: its run-to-run spread
/// on shared 2-vCPU hosts is too wide for any allowed bound.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "tune-r18",
        why: "cold then warm-store compiles of ResNet-18, the flagship net: load on autotune, loopir lowering, verify/isl, sim and store; codegen runs only a small prefix",
    },
    WorkloadSpec {
        name: "infer-bert-tiny",
        why: "native BERT-tiny inference: matmul plus softmax/layernorm/GELU loads codegen and loopir pack/unpack, with tuning only in set-up",
    },
];

/// A user-visible metric printed by an untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "compile_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "recompile_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "infer_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "est_latency_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.1,
    },
];

const TUNE: &[&str] = &["tune-r18"];
const INFER: &[&str] = &["infer-bert-tiny"];
const ALL: &[&str] = &["tune-r18", "infer-bert-tiny"];

/// A single-layer metric printed by a traced run, with the end-to-end
/// metric it should move and the workloads on which it should move it.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub on: &'static [&'static str],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // autotune: the search loop around lowering and simulation.
    layer("autotune.joint_stage_s", "s", Lower, "compile_s", TUNE),
    layer("autotune.loop_stage_s", "s", Lower, "compile_s", TUNE),
    layer("autotune.candidate_gen_s", "s", Lower, "compile_s", TUNE),
    layer("autotune.gbt_score_s", "s", Lower, "compile_s", TUNE),
    layer("autotune.prewarm_s", "s", Lower, "compile_s", TUNE),
    layer("autotune.measure_s", "s", Lower, "compile_s", TUNE),
    layer("autotune.measurements", "count", Higher, "compile_s", TUNE),
    layer(
        "autotune.lowered_per_measurement",
        "ratio",
        Lower,
        "compile_s",
        TUNE,
    ),
    // loopir lowering.
    layer("loopir.lower_s", "s", Lower, "compile_s", TUNE),
    layer("loopir.lower_us.p50", "us", Lower, "compile_s", TUNE),
    layer("loopir.lower_us.p99", "us", Lower, "compile_s", TUNE),
    layer("loopir.winner_lower_us", "us", Lower, "compile_s", TUNE),
    layer("loopir.stmt_iterations", "count", Lower, "compile_s", TUNE),
    // loopir pack/unpack, shared by the native executor and the
    // reference interpreter (whose check is timed but not in infer_s).
    layer("loopir.pack_s", "s", Lower, "infer_s", INFER),
    layer("loopir.unpack_s", "s", Lower, "infer_s", INFER),
    layer("loopir.interp_check_s", "s", Lower, "infer_s", INFER),
    // verify and isl.
    layer("verify.set_emptiness_s", "s", Lower, "compile_s", TUNE),
    layer(
        "verify.set_emptiness_us.p99",
        "us",
        Lower,
        "compile_s",
        TUNE,
    ),
    layer("verify.set_queries", "count", Lower, "compile_s", TUNE),
    layer("verify.winner_us", "us", Lower, "compile_s", TUNE),
    // sim.
    layer("sim.simulate_s", "s", Lower, "compile_s", TUNE),
    layer("sim.memo_hit_rate", "ratio", Higher, "compile_s", TUNE),
    layer("sim.memo_lookup_us.p50", "us", Lower, "compile_s", TUNE),
    layer("sim.cold_simulate_us.p50", "us", Lower, "compile_s", TUNE),
    layer("sim.winner_profile_us", "us", Lower, "compile_s", TUNE),
    // store.
    layer("store.append_us.p50", "us", Lower, "compile_s", TUNE),
    layer("store.fsync_us.p50", "us", Lower, "compile_s", TUNE),
    layer("store.get_us.p50", "us", Lower, "recompile_s", TUNE),
    layer("store.bytes", "bytes", Lower, "recompile_s", TUNE),
    layer("store.warm_hit", "ratio", Higher, "recompile_s", TUNE),
    // codegen.
    layer("codegen.compile_us", "us", Lower, "infer_s", INFER),
    layer("codegen.execute_s", "s", Lower, "infer_s", INFER),
    layer("codegen.group_s_sum", "s", Lower, "infer_s", INFER),
    layer("codegen.groups", "count", Lower, "infer_s", INFER),
    layer("codegen.slowest_group_s", "s", Lower, "infer_s", INFER),
    layer("codegen.gflops", "GFLOP/s", Higher, "infer_s", INFER),
    layer("codegen.anchor_frac", "ratio", Higher, "infer_s", INFER),
    // telemetry, journal, profiler: the cost of observing a compile.
    layer("observe.overhead_frac", "ratio", Lower, "compile_s", TUNE),
    layer("journal.bytes", "bytes", Lower, "compile_s", TUNE),
    // Reconciliation: wall time the layers above do not account for.
    layer("trace.compile_unaccounted_s", "s", Lower, "compile_s", TUNE),
    layer("trace.infer_unaccounted_s", "s", Lower, "infer_s", INFER),
    // The host itself: a faster or slower machine moves every timing.
    layer("anchor.gflops", "GFLOP/s", Higher, "infer_s", ALL),
];

/// The unit of a metric named in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}
