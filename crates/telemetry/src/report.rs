//! Trace-file inspection: the library behind `altc report`.
//!
//! Reads a JSONL trace back into [`Record`]s and renders a plain-text
//! report: the best-so-far latency curve per op (the data behind the
//! paper's Fig. 11 curves), budget spent per stage, fault-tolerance
//! activity (failed measurements by kind, retries, quarantined
//! candidates), cost-model ranking accuracy per round, and the top
//! simulator counters.

use std::collections::BTreeMap;
use std::path::Path;

use crate::record::{Record, Stage};

/// Reads a JSONL trace file into records.
///
/// A line that fails to parse aborts with `InvalidData` naming the line,
/// so schema drift is caught loudly rather than silently skipped.
pub fn read_jsonl(path: impl AsRef<Path>) -> std::io::Result<Vec<Record>> {
    let text = std::fs::read_to_string(path)?;
    crate::sink::parse_jsonl(&text, "trace")
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Formats seconds with an adaptive unit.
pub fn fmt_latency(seconds: f64) -> String {
    if !seconds.is_finite() {
        return "inf".to_string();
    }
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Renders the full plain-text report for a trace.
pub fn render_report(records: &[Record]) -> String {
    let mut out = String::new();
    render_summary(records, &mut out);
    render_latency_curves(records, &mut out);
    render_budget(records, &mut out);
    render_attempts(records, &mut out);
    render_cache(records, &mut out);
    render_store(records, &mut out);
    render_faults(records, &mut out);
    render_cost_model(records, &mut out);
    render_timing(records, &mut out);
    render_counters(records, &mut out);
    out
}

/// Wall-clock self-profiling: the phase tree recorded by the timing
/// layer (inclusive/exclusive micros and call counts per phase) plus
/// the `wall` scope latency histograms (store append/fsync, memoized
/// vs cold simulation, per-candidate lower/verify). Silent for traces
/// recorded without timing enabled.
fn render_timing(records: &[Record], out: &mut String) {
    let tree = records.iter().find_map(|r| match r {
        Record::Timing(t) => Some(&t.phases),
        _ => None,
    });
    let wall: Vec<(String, f64)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Counter(c) if c.scope == "wall" => Some((c.name.clone(), c.value)),
            _ => None,
        })
        .collect();
    if tree.is_none() && wall.is_empty() {
        return;
    }
    out.push_str("--- pipeline timing (wall clock) ---\n");
    if let Some(root) = tree {
        push_phase_lines(root, 0, root.inclusive_us, out);
    }
    let (families, plain) = fold_histogram_families(wall);
    if !families.is_empty() {
        out.push_str("latency histograms (p50/p95/p99 nearest-rank):\n");
        for (base, stats) in &families {
            let g = |k: &str| stats.get(k).copied().unwrap_or(0.0);
            let us = |k: &str| fmt_latency(g(k) * 1e-6);
            let note = if g("sampled") != 0.0 {
                " (percentiles sampled)"
            } else {
                ""
            };
            out.push_str(&format!(
                "    {base}: n={:.0} p50={} p95={} p99={} max={}{note}\n",
                g("count"),
                us("p50"),
                us("p95"),
                us("p99"),
                us("max"),
            ));
        }
    }
    for (name, value) in &plain {
        out.push_str(&format!("    {name} = {value:.3e}\n"));
    }
    out.push('\n');
}

/// One indented line per phase: inclusive time, call count, share of
/// the run, and exclusive (self) time not attributed to any child.
fn push_phase_lines(
    node: &crate::timing::PhaseNode,
    indent: usize,
    total_us: u64,
    out: &mut String,
) {
    let pct = if total_us > 0 {
        node.inclusive_us as f64 / total_us as f64 * 100.0
    } else {
        0.0
    };
    out.push_str(&format!(
        "{:indent$}{}: {} x{} ({pct:.1}%), self {}\n",
        "",
        node.name,
        fmt_latency(node.inclusive_us as f64 * 1e-6),
        node.count,
        fmt_latency(node.exclusive_us() as f64 * 1e-6),
        indent = indent * 4
    ));
    for child in &node.children {
        push_phase_lines(child, indent + 1, total_us, out);
    }
}

fn render_summary(records: &[Record], out: &mut String) {
    out.push_str("=== tuning run report ===\n");
    for r in records {
        if let Record::RunSummary(s) = r {
            out.push_str(&format!(
                "budget: joint {} + loop {} = {} units; consumed {}\n",
                s.joint_budget,
                s.loop_budget,
                s.joint_budget + s.loop_budget,
                s.measurements
            ));
            out.push_str(&format!(
                "best end-to-end latency: {}; compile wall time {:.2} s\n",
                fmt_latency(s.best_latency_s),
                s.wall_s
            ));
        }
    }
    out.push('\n');
}

/// Best-so-far latency at ~8 evenly spaced checkpoints per op.
fn render_latency_curves(records: &[Record], out: &mut String) {
    // op -> Vec<(seq, best_so_far)>, in trace order.
    let mut curves: BTreeMap<&str, Vec<(u64, f64)>> = BTreeMap::new();
    for r in records {
        if let Record::Measurement(m) = r {
            curves
                .entry(&m.op)
                .or_default()
                .push((m.seq, m.best_so_far_s));
        }
    }
    if curves.is_empty() {
        out.push_str("no measurement records in trace\n\n");
        return;
    }
    out.push_str("--- best-latency curve per op (seq -> best so far) ---\n");
    for (op, points) in &curves {
        let n = points.len();
        let checkpoints: Vec<(u64, f64)> = if n <= 8 {
            points.clone()
        } else {
            (0..8).map(|i| points[(i * (n - 1)) / 7]).collect()
        };
        let first = points.first().map(|p| p.1).unwrap_or(f64::INFINITY);
        let last = points.last().map(|p| p.1).unwrap_or(f64::INFINITY);
        let speedup = if last > 0.0 { first / last } else { 1.0 };
        out.push_str(&format!(
            "{op}: {} measurements, {} -> {} ({speedup:.2}x)\n",
            n,
            fmt_latency(first),
            fmt_latency(last)
        ));
        let curve: Vec<String> = checkpoints
            .iter()
            .map(|(seq, best)| format!("@{seq} {}", fmt_latency(*best)))
            .collect();
        out.push_str(&format!("    {}\n", curve.join("  ")));
    }
    out.push('\n');
}

fn render_budget(records: &[Record], out: &mut String) {
    let mut per_stage: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut per_op_stage: BTreeMap<(&str, &'static str), u64> = BTreeMap::new();
    for r in records {
        if let Record::Measurement(m) = r {
            let stage = match m.stage {
                Stage::Joint => "joint",
                Stage::Loop => "loop",
            };
            *per_stage.entry(stage).or_insert(0) += 1;
            *per_op_stage.entry((&m.op, stage)).or_insert(0) += 1;
        }
    }
    if per_stage.is_empty() {
        return;
    }
    out.push_str("--- budget spent per stage ---\n");
    for (stage, n) in &per_stage {
        out.push_str(&format!("{stage}: {n} measurements\n"));
    }
    for ((op, stage), n) in &per_op_stage {
        out.push_str(&format!("    {op} [{stage}]: {n}\n"));
    }
    out.push('\n');
}

/// Attempts vs successes per op: every budgeted attempt (successful
/// measurements plus failed ones) and the zero-budget static-verifier
/// rejections, so an op whose candidates keep failing or getting
/// rejected is visible at a glance.
fn render_attempts(records: &[Record], out: &mut String) {
    // op -> (successes, failures, verify rejections)
    let mut per_op: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        match r {
            Record::Measurement(m) => per_op.entry(&m.op).or_default().0 += 1,
            Record::MeasurementFailure(f) => per_op.entry(&f.op).or_default().1 += 1,
            Record::VerifyRejection(v) => per_op.entry(&v.op).or_default().2 += 1,
            _ => {}
        }
    }
    if per_op.is_empty() {
        return;
    }
    out.push_str("--- attempts vs successes per op ---\n");
    for (op, (ok, failed, rejected)) in &per_op {
        let attempts = ok + failed;
        let rate = if attempts > 0 {
            *ok as f64 / attempts as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{op}: {attempts} attempts -> {ok} successes ({rate:.1}%), \
             {failed} failed, {rejected} verify-rejected\n"
        ));
    }
    out.push('\n');
}

/// Measurement-cache effectiveness: the memoized-simulation hit/miss
/// counters flushed by the measurer. A hit means a budgeted measurement
/// repeated an earlier one and skipped re-simulation (it still consumed
/// a budget unit and emitted a measurement record). Silent for traces
/// that predate the cache.
fn render_cache(records: &[Record], out: &mut String) {
    let mut hits = None;
    let mut misses = None;
    for r in records {
        if let Record::Counter(c) = r {
            if c.scope == "sim" {
                match c.name.as_str() {
                    "cache.hits" => hits = Some(c.value),
                    "cache.misses" => misses = Some(c.value),
                    _ => {}
                }
            }
        }
    }
    if hits.is_none() && misses.is_none() {
        return;
    }
    // A run with zero hits (or zero misses) never creates that counter.
    let hits = hits.unwrap_or(0.0);
    let misses = misses.unwrap_or(0.0);
    let total = hits + misses;
    let rate = if total > 0.0 {
        hits / total * 100.0
    } else {
        0.0
    };
    out.push_str("--- measurement cache ---\n");
    out.push_str(&format!(
        "{total:.0} simulation lookups: {hits:.0} hits, {misses:.0} misses (hit rate {rate:.1}%)\n"
    ));
    out.push('\n');
}

/// Durable-store effectiveness: hits served from the on-disk tuning
/// store without simulating, and misses that simulated then published.
/// Silent for runs without a store attached (the counters only exist
/// when one is).
fn render_store(records: &[Record], out: &mut String) {
    let mut hits = None;
    let mut misses = None;
    for r in records {
        if let Record::Counter(c) = r {
            if c.scope == "sim" {
                match c.name.as_str() {
                    "store.hits" => hits = Some(c.value),
                    "store.misses" => misses = Some(c.value),
                    _ => {}
                }
            }
        }
    }
    if hits.is_none() && misses.is_none() {
        return;
    }
    let hits = hits.unwrap_or(0.0);
    let misses = misses.unwrap_or(0.0);
    let total = hits + misses;
    let rate = if total > 0.0 {
        hits / total * 100.0
    } else {
        0.0
    };
    out.push_str("--- durable tuning store ---\n");
    out.push_str(&format!(
        "{total:.0} store lookups: {hits:.0} served from store, {misses:.0} simulated \
         and published (hit rate {rate:.1}%)\n"
    ));
    out.push('\n');
}

/// Fault-tolerance activity: failed measurements broken down by error
/// kind, plus the tuner's retry/quarantine counters. Silent when the run
/// was fault-free.
fn render_faults(records: &[Record], out: &mut String) {
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    let mut max_attempt = 0u64;
    for r in records {
        if let Record::MeasurementFailure(f) = r {
            *by_kind.entry(&f.kind).or_insert(0) += 1;
            max_attempt = max_attempt.max(f.attempt);
        }
    }
    let tuner_counters: Vec<(&str, f64)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Counter(c) if c.scope == "tuner" => Some((c.name.as_str(), c.value)),
            _ => None,
        })
        .collect();
    if by_kind.is_empty() && tuner_counters.is_empty() {
        return;
    }
    let failed: u64 = by_kind.values().sum();
    out.push_str(
        "--- fault tolerance ---
",
    );
    out.push_str(&format!(
        "failed measurements: {failed} (each consumed one budget unit)
"
    ));
    for (kind, n) in &by_kind {
        out.push_str(&format!(
            "    {kind}: {n}
"
        ));
    }
    if max_attempt > 1 {
        out.push_str(&format!(
            "deepest retry chain: {max_attempt} attempts
"
        ));
    }
    for (name, value) in &tuner_counters {
        out.push_str(&format!(
            "{name}: {value:.0}
"
        ));
    }
    out.push('\n');
}

fn render_cost_model(records: &[Record], out: &mut String) {
    // round -> (sum of spearman, count)
    let mut per_round: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for r in records {
        if let Record::CostModel(c) = r {
            let e = per_round.entry(c.round).or_insert((0.0, 0));
            e.0 += c.spearman;
            e.1 += 1;
        }
    }
    if per_round.is_empty() {
        return;
    }
    out.push_str("--- cost-model top-k rank correlation per round ---\n");
    for (round, (sum, n)) in &per_round {
        out.push_str(&format!(
            "round {round}: mean spearman {:+.3} over {n} op-round(s)\n",
            sum / *n as f64
        ));
    }
    out.push('\n');
}

/// Histogram families flushed by `CounterRegistry` arrive as eight
/// suffixed counters per histogram (nine when the retention cap
/// truncated percentile samples); fold each family back into one
/// entry with its percentiles instead of eight noisy counters. Names
/// that lack the histogram shape (e.g. a plain counter someone named
/// `x.max`) fall back to the plain list.
#[allow(clippy::type_complexity)]
fn fold_histogram_families(
    flushed: Vec<(String, f64)>,
) -> (
    BTreeMap<String, BTreeMap<&'static str, f64>>,
    Vec<(String, f64)>,
) {
    let mut families: BTreeMap<String, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut plain: Vec<(String, f64)> = Vec::new();
    const SUFFIXES: [&str; 9] = [
        "count", "sum", "min", "max", "mean", "p50", "p95", "p99", "sampled",
    ];
    for (name, value) in flushed {
        match name.rsplit_once('.').and_then(|(base, suffix)| {
            SUFFIXES
                .iter()
                .find(|s| **s == suffix)
                .map(|s| (base.to_string(), *s))
        }) {
            Some((base, suffix)) => {
                families.entry(base).or_default().insert(suffix, value);
            }
            None => plain.push((name, value)),
        }
    }
    families.retain(|base, stats| {
        if stats.contains_key("count") && stats.contains_key("p50") {
            true
        } else {
            for (suffix, value) in stats.iter() {
                plain.push((format!("{base}.{suffix}"), *value));
            }
            false
        }
    });
    (families, plain)
}

fn render_counters(records: &[Record], out: &mut String) {
    // Aggregate simulator counters over every measured program.
    let mut total = crate::record::SimCounters::default();
    let mut simd_weighted = 0.0f64;
    let mut measured = 0u64;
    for r in records {
        if let Record::Measurement(m) = r {
            let c = &m.counters;
            total.instructions += c.instructions;
            total.flops += c.flops;
            total.l1_loads += c.l1_loads;
            total.l1_stores += c.l1_stores;
            total.l1_misses += c.l1_misses;
            total.l2_misses += c.l2_misses;
            total.prefetch_issued += c.prefetch_issued;
            total.prefetch_useful += c.prefetch_useful;
            simd_weighted += c.simd_utilization * c.instructions;
            measured += 1;
        }
    }
    // `wall` scope counters belong to the pipeline-timing section.
    let flushed: Vec<(String, f64)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Counter(c) if c.scope != "wall" => {
                Some((format!("{}/{}", c.scope, c.name), c.value))
            }
            _ => None,
        })
        .collect();
    if measured == 0 && flushed.is_empty() {
        return;
    }
    out.push_str("--- cache / prefetch counters (all measured programs) ---\n");
    if measured > 0 {
        let accesses = total.l1_loads + total.l1_stores;
        let miss_rate = if accesses > 0.0 {
            total.l1_misses / accesses
        } else {
            0.0
        };
        let pf_acc = if total.prefetch_issued > 0.0 {
            total.prefetch_useful / total.prefetch_issued
        } else {
            0.0
        };
        let simd = if total.instructions > 0.0 {
            simd_weighted / total.instructions
        } else {
            0.0
        };
        out.push_str(&format!(
            "l1 accesses {:.3e} (miss rate {:.2}%), l2 misses {:.3e}\n",
            accesses,
            miss_rate * 100.0,
            total.l2_misses
        ));
        out.push_str(&format!(
            "prefetch issued {:.3e}, useful {:.3e} (accuracy {:.1}%)\n",
            total.prefetch_issued,
            total.prefetch_useful,
            pf_acc * 100.0
        ));
        out.push_str(&format!(
            "mean SIMD lane utilization {:.1}% over {measured} programs\n",
            simd * 100.0
        ));
    }
    let (families, mut plain) = fold_histogram_families(flushed);
    if !families.is_empty() {
        out.push_str("histograms (p50/p95/p99 nearest-rank):\n");
        for (base, stats) in &families {
            let g = |k: &str| stats.get(k).copied().unwrap_or(0.0);
            // A `.sampled` marker means the histogram overflowed its
            // retention cap: percentiles cover only the first samples
            // and are rendered as approximate.
            let t = if g("sampled") != 0.0 { "~" } else { "" };
            let note = if g("sampled") != 0.0 {
                " (percentiles sampled)"
            } else {
                ""
            };
            out.push_str(&format!(
                "    {base}: n={:.0} mean={:.3e} {t}p50={:.3e} {t}p95={:.3e} {t}p99={:.3e} \
                 max={:.3e}{note}\n",
                g("count"),
                g("mean"),
                g("p50"),
                g("p95"),
                g("p99"),
                g("max"),
            ));
        }
    }
    if !plain.is_empty() {
        plain.sort_by(|a, b| b.1.total_cmp(&a.1));
        out.push_str("top flushed counters:\n");
        for (name, value) in plain.iter().take(10) {
            out.push_str(&format!("    {name} = {value:.3e}\n"));
        }
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::*;

    fn measurement(seq: u64, op: &str, stage: Stage, lat: f64, best: f64) -> Record {
        Record::Measurement(MeasurementRecord {
            seq,
            op: op.to_string(),
            stage,
            round: 1,
            candidate: "[0]".to_string(),
            predicted_cost: None,
            latency_s: lat,
            best_so_far_s: best,
            counters: SimCounters {
                instructions: 100.0,
                flops: 200.0,
                l1_loads: 50.0,
                l1_stores: 10.0,
                l1_misses: 5.0,
                l2_misses: 1.0,
                prefetch_issued: 8.0,
                prefetch_useful: 6.0,
                simd_utilization: 0.5,
            },
        })
    }

    #[test]
    fn report_contains_all_sections() {
        let records = vec![
            measurement(1, "conv2d#0", Stage::Joint, 2e-3, 2e-3),
            measurement(2, "conv2d#0", Stage::Joint, 1e-3, 1e-3),
            measurement(3, "conv2d#0", Stage::Loop, 5e-4, 5e-4),
            Record::CostModel(CostModelRecord {
                op: "conv2d#0".to_string(),
                stage: Stage::Loop,
                round: 1,
                measured: 8,
                spearman: 0.5,
                train_size: 32,
            }),
            Record::Counter(CounterRecord {
                scope: "sim".to_string(),
                name: "l1.accesses".to_string(),
                value: 1234.0,
            }),
            Record::MeasurementFailure(MeasurementFailureRecord {
                seq: 4,
                op: "conv2d#0".to_string(),
                stage: Stage::Loop,
                round: 2,
                candidate: "[1]".to_string(),
                kind: "injected_compile".to_string(),
                error: "injected compile failure".to_string(),
                attempt: 2,
                backoff_us: 100,
            }),
            Record::Counter(CounterRecord {
                scope: "tuner".to_string(),
                name: "retries".to_string(),
                value: 1.0,
            }),
            Record::RunSummary(RunSummaryRecord {
                joint_budget: 2,
                loop_budget: 1,
                measurements: 3,
                best_latency_s: 5e-4,
                wall_s: 0.1,
            }),
        ];
        let report = render_report(&records);
        assert!(report.contains("best-latency curve"), "{report}");
        assert!(report.contains("conv2d#0: 3 measurements"), "{report}");
        assert!(report.contains("4.00x"), "{report}");
        assert!(report.contains("joint: 2 measurements"), "{report}");
        assert!(report.contains("loop: 1 measurements"), "{report}");
        assert!(report.contains("mean spearman +0.500"), "{report}");
        assert!(report.contains("sim/l1.accesses"), "{report}");
        assert!(report.contains("prefetch issued"), "{report}");
        assert!(report.contains("SIMD lane utilization 50.0%"), "{report}");
        assert!(report.contains("consumed 3"), "{report}");
        assert!(report.contains("fault tolerance"), "{report}");
        assert!(report.contains("injected_compile: 1"), "{report}");
        assert!(
            report.contains("deepest retry chain: 2 attempts"),
            "{report}"
        );
        assert!(report.contains("retries: 1"), "{report}");
    }

    #[test]
    fn attempts_vs_successes_counts_failures_and_rejections() {
        let records = vec![
            measurement(1, "conv2d#0", Stage::Joint, 2e-3, 2e-3),
            measurement(2, "conv2d#0", Stage::Loop, 1e-3, 1e-3),
            Record::MeasurementFailure(MeasurementFailureRecord {
                seq: 3,
                op: "conv2d#0".to_string(),
                stage: Stage::Loop,
                round: 2,
                candidate: "[1]".to_string(),
                kind: "injected_timeout".to_string(),
                error: "injected timeout".to_string(),
                attempt: 1,
                backoff_us: 0,
            }),
            Record::VerifyRejection(VerifyRejectionRecord {
                op: "conv2d#0".to_string(),
                stage: Stage::Loop,
                round: 2,
                candidate: "[2]".to_string(),
                code: "V201".to_string(),
                detail: "illegal layout".to_string(),
            }),
            measurement(4, "gmm#1", Stage::Loop, 5e-4, 5e-4),
        ];
        let report = render_report(&records);
        assert!(
            report.contains("--- attempts vs successes per op ---"),
            "{report}"
        );
        assert!(
            report.contains(
                "conv2d#0: 3 attempts -> 2 successes (66.7%), 1 failed, 1 verify-rejected"
            ),
            "{report}"
        );
        assert!(
            report
                .contains("gmm#1: 1 attempts -> 1 successes (100.0%), 0 failed, 0 verify-rejected"),
            "{report}"
        );
    }

    #[test]
    fn fault_free_trace_has_no_fault_section() {
        let records = vec![measurement(1, "conv2d#0", Stage::Joint, 1e-3, 1e-3)];
        let report = render_report(&records);
        assert!(!report.contains("fault tolerance"), "{report}");
    }

    #[test]
    fn long_curves_are_downsampled_to_eight_points() {
        let records: Vec<Record> = (1..=100)
            .map(|i| measurement(i, "gmm#0", Stage::Loop, 1e-3, 1e-3 / i as f64))
            .collect();
        let report = render_report(&records);
        let curve_line = report
            .lines()
            .find(|l| l.trim_start().starts_with("@"))
            .unwrap();
        assert_eq!(curve_line.matches('@').count(), 8, "{curve_line}");
        assert!(curve_line.contains("@1 "), "{curve_line}");
        assert!(curve_line.contains("@100 "), "{curve_line}");
    }

    #[test]
    fn histogram_families_fold_into_one_line() {
        let mut records = vec![measurement(1, "op", Stage::Joint, 1e-3, 1e-3)];
        let reg = crate::CounterRegistry::new("sim");
        for v in 1..=100 {
            reg.observe("trial_latency_us", v as f64);
        }
        let (t, sink) = crate::Telemetry::memory();
        reg.flush_to(&t);
        records.extend(sink.records());
        let report = render_report(&records);
        assert!(report.contains("sim/trial_latency_us: n=100"), "{report}");
        assert!(report.contains("p95=9.500e1"), "{report}");
        // The eight suffixed counters do not leak into the flat list.
        assert!(!report.contains("trial_latency_us.p95"), "{report}");
        // A lone `.max`-named counter is not mistaken for a histogram.
        let records2 = vec![
            measurement(1, "op", Stage::Joint, 1e-3, 1e-3),
            Record::Counter(CounterRecord {
                scope: "sim".into(),
                name: "queue.max".into(),
                value: 7.0,
            }),
        ];
        let report2 = render_report(&records2);
        assert!(report2.contains("sim/queue.max = 7.000e0"), "{report2}");
    }

    #[test]
    fn cache_counters_render_a_hit_rate_section() {
        let counter = |name: &str, value: f64| {
            Record::Counter(CounterRecord {
                scope: "sim".into(),
                name: name.into(),
                value,
            })
        };
        let records = vec![
            measurement(1, "op", Stage::Joint, 1e-3, 1e-3),
            counter("cache.hits", 3.0),
            counter("cache.misses", 7.0),
        ];
        let report = render_report(&records);
        assert!(report.contains("--- measurement cache ---"), "{report}");
        assert!(
            report.contains("10 simulation lookups: 3 hits, 7 misses (hit rate 30.0%)"),
            "{report}"
        );
        // Hit-free runs never create `cache.hits`; the section still renders.
        let report2 = render_report(&[counter("cache.misses", 5.0)]);
        assert!(
            report2.contains("5 simulation lookups: 0 hits, 5 misses (hit rate 0.0%)"),
            "{report2}"
        );
        // Pre-cache traces have no section.
        let report3 = render_report(&[measurement(1, "op", Stage::Joint, 1e-3, 1e-3)]);
        assert!(!report3.contains("measurement cache"), "{report3}");
    }

    #[test]
    fn store_counters_render_their_own_section() {
        let counter = |name: &str, value: f64| {
            Record::Counter(CounterRecord {
                scope: "sim".into(),
                name: name.into(),
                value,
            })
        };
        let records = vec![
            measurement(1, "op", Stage::Joint, 1e-3, 1e-3),
            counter("store.hits", 6.0),
            counter("store.misses", 2.0),
        ];
        let report = render_report(&records);
        assert!(report.contains("--- durable tuning store ---"), "{report}");
        assert!(
            report.contains(
                "8 store lookups: 6 served from store, 2 simulated \
                 and published (hit rate 75.0%)"
            ),
            "{report}"
        );
        // Store-less runs have no section.
        let report2 = render_report(&[measurement(1, "op", Stage::Joint, 1e-3, 1e-3)]);
        assert!(!report2.contains("durable tuning store"), "{report2}");
    }

    #[test]
    fn truncated_histograms_render_approximate_percentiles() {
        let mut records = vec![measurement(1, "op", Stage::Joint, 1e-3, 1e-3)];
        let stats: &[(&str, f64)] = &[
            ("count", 70000.0),
            ("sum", 70000.0),
            ("min", 1.0),
            ("max", 1.0),
            ("mean", 1.0),
            ("p50", 1.0),
            ("p95", 1.0),
            ("p99", 1.0),
            ("sampled", 1.0),
        ];
        for (suffix, value) in stats {
            records.push(Record::Counter(CounterRecord {
                scope: "sim".into(),
                name: format!("lat.{suffix}"),
                value: *value,
            }));
        }
        let report = render_report(&records);
        assert!(report.contains("~p50="), "{report}");
        assert!(report.contains("(percentiles sampled)"), "{report}");
        // The marker folds into the family line rather than leaking.
        assert!(!report.contains("lat.sampled"), "{report}");
    }

    #[test]
    fn timing_records_render_a_pipeline_timing_section() {
        use crate::timing::PhaseNode;
        let mut root = PhaseNode {
            name: "run".to_string(),
            count: 1,
            inclusive_us: 1_000_000,
            children: Vec::new(),
        };
        root.children.push(PhaseNode {
            name: "loop_stage".to_string(),
            count: 1,
            inclusive_us: 800_000,
            children: vec![PhaseNode {
                name: "measure".to_string(),
                count: 40,
                inclusive_us: 600_000,
                children: Vec::new(),
            }],
        });
        let mut records = vec![Record::Timing(TimingRecord { phases: root })];
        let reg = crate::CounterRegistry::new("wall");
        for v in 1..=100 {
            reg.observe("store.append_us", v as f64);
        }
        let (t, sink) = crate::Telemetry::memory();
        reg.flush_to(&t);
        records.extend(sink.records());
        let report = render_report(&records);
        assert!(
            report.contains("--- pipeline timing (wall clock) ---"),
            "{report}"
        );
        assert!(report.contains("run: 1.000 s x1 (100.0%)"), "{report}");
        // The loop stage is indented under the run and shows its share.
        assert!(
            report.contains("    loop_stage: 800.000 ms x1 (80.0%), self 200.000 ms"),
            "{report}"
        );
        assert!(
            report.contains("        measure: 600.000 ms x40 (60.0%)"),
            "{report}"
        );
        // Wall histograms render in the timing section with time units,
        // not in the generic counters section.
        assert!(
            report.contains("store.append_us: n=100 p50=50.000 us p95=95.000 us"),
            "{report}"
        );
        assert!(!report.contains("wall/store.append_us"), "{report}");
        // A trace without timing has no section.
        let plain = render_report(&[measurement(1, "op", Stage::Joint, 1e-3, 1e-3)]);
        assert!(!plain.contains("pipeline timing"), "{plain}");
    }

    #[test]
    fn fmt_latency_picks_units() {
        assert_eq!(fmt_latency(2.5), "2.500 s");
        assert_eq!(fmt_latency(2.5e-3), "2.500 ms");
        assert_eq!(fmt_latency(2.5e-6), "2.500 us");
        assert_eq!(fmt_latency(2.5e-8), "25.0 ns");
    }

    #[test]
    fn jsonl_roundtrip_through_file() {
        let dir = std::env::temp_dir().join("alt-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        {
            let t = crate::Telemetry::jsonl(&path).unwrap();
            t.emit(measurement(1, "op", Stage::Joint, 1e-3, 1e-3));
            t.emit(Record::RunSummary(RunSummaryRecord {
                joint_budget: 1,
                loop_budget: 0,
                measurements: 1,
                best_latency_s: 1e-3,
                wall_s: 0.0,
            }));
            t.flush();
        }
        let records = read_jsonl(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(matches!(records[0], Record::Measurement(_)));
        assert!(matches!(records[1], Record::RunSummary(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_jsonl_rejects_malformed_lines() {
        let dir = std::env::temp_dir().join("alt-telemetry-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bad-{}.jsonl", std::process::id()));
        std::fs::write(&path, "{\"type\":\"nope\"}\n").unwrap();
        let err = read_jsonl(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
