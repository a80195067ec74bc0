//! Conservation laws for the search journal: every budget unit the
//! tuner spends is visible in the journal, and every candidate the
//! tuner generates appears exactly once with a terminal outcome.
//!
//! The load-bearing identity is `sum(candidate.attempts) ==
//! result.measurements`: the journal's per-candidate budget accounting
//! tiles the strict budget ledger with no gaps and no overlaps. In a
//! fault-free run every attempt succeeds, so the identity sharpens to
//! `#measured + #cache_hit == budget`.

use alt_autotune::{tune_graph, FaultConfig, TuneConfig, TuneResult};
use alt_journal::{outcome, JournalRecord, MemoryJournal};
use alt_sim::intel_cpu;
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};
use std::sync::Arc;

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

const JOINT_BUDGET: u64 = 40;
const LOOP_BUDGET: u64 = 40;

fn journaled_run(seed: u64, fault_rate: f64) -> (TuneResult, Arc<MemoryJournal>) {
    let (journal, sink) = alt_journal::Journal::memory();
    let cfg = TuneConfig {
        joint_budget: JOINT_BUDGET,
        loop_budget: LOOP_BUDGET,
        batch: 8,
        topk: 2,
        free_input_layouts: true,
        seed,
        observer: alt_autotune::Observer {
            journal,
            ..Default::default()
        },
        faults: (fault_rate > 0.0).then(|| FaultConfig::uniform(fault_rate)),
        ..TuneConfig::default()
    };
    let result = tune_graph(&conv_graph(), intel_cpu(), cfg);
    (result, sink)
}

const TERMINAL_OUTCOMES: &[&str] = &[
    outcome::MEASURED,
    outcome::CACHE_HIT,
    outcome::FAILED,
    outcome::VERIFY_REJECTED,
    outcome::LOWER_FAILED,
    outcome::QUARANTINED,
    outcome::SKIPPED,
];

/// Shared invariants that hold with or without fault injection.
/// Returns the per-outcome counts for scenario-specific checks.
fn check_conservation(
    result: &TuneResult,
    records: &[JournalRecord],
) -> std::collections::BTreeMap<String, u64> {
    // Exactly one header, first; exactly one summary, last.
    assert!(
        matches!(records.first(), Some(JournalRecord::Header(_))),
        "journal starts with a header"
    );
    assert!(
        matches!(records.last(), Some(JournalRecord::Summary(_))),
        "journal ends with a summary"
    );
    let headers = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Header(_)))
        .count();
    let summaries = records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Summary(_)))
        .count();
    assert_eq!((headers, summaries), (1, 1));

    let header = match &records[0] {
        JournalRecord::Header(h) => h,
        _ => unreachable!(),
    };
    assert_eq!(header.joint_budget, JOINT_BUDGET);
    assert_eq!(header.loop_budget, LOOP_BUDGET);

    let summary = match records.last() {
        Some(JournalRecord::Summary(s)) => s,
        _ => unreachable!(),
    };
    assert_eq!(summary.measurements, result.measurements);

    let mut spent = 0u64;
    let mut last_budget_end = 0u64;
    let mut counts = std::collections::BTreeMap::<String, u64>::new();
    for r in records {
        let JournalRecord::Candidate(c) = r else {
            continue;
        };
        assert!(
            TERMINAL_OUTCOMES.contains(&c.outcome.as_str()),
            "unknown outcome `{}`",
            c.outcome
        );
        *counts.entry(c.outcome.clone()).or_default() += 1;
        spent += c.attempts;

        // The budget axis is monotone and every candidate's attempts
        // land inside the window its budget_end closes.
        assert!(
            c.budget_end >= last_budget_end,
            "budget_end regressed: {} -> {}",
            last_budget_end,
            c.budget_end
        );
        assert!(c.attempts <= c.budget_end);
        last_budget_end = c.budget_end;

        match c.outcome.as_str() {
            outcome::MEASURED | outcome::CACHE_HIT => {
                assert!(c.attempts >= 1, "{} outcome consumed budget", c.outcome);
                let lat = c.latency_s.expect("successful candidate has a latency");
                assert!(lat.is_finite() && lat > 0.0);
                // Fingerprints round-trip through the memo-cache key
                // derivation: a journal consumer can re-derive the
                // cache key from the header's profile fingerprint.
                let program_fp = c.program_fp.expect("simulated candidate has a program_fp");
                let cache_key = c.cache_key.expect("simulated candidate has a cache_key");
                assert_eq!(
                    alt_sim::compose_cache_key(header.profile_fp, program_fp),
                    cache_key
                );
            }
            outcome::FAILED => {
                assert!(c.attempts >= 1, "failed candidate burned budget");
                assert!(c.error.is_some(), "failed candidate records its error kind");
                assert_eq!(c.latency_s, None);
            }
            _ => {
                // verify_rejected / lower_failed / quarantined / skipped
                // are dropped before any budget is spent.
                assert_eq!(c.attempts, 0, "{} outcome is zero-budget", c.outcome);
                assert_eq!(c.latency_s, None);
                if c.outcome == outcome::VERIFY_REJECTED {
                    assert!(c.vcode.is_some(), "rejection carries its V-code");
                }
            }
        }
    }

    // THE conservation law: journal attempts tile the budget ledger.
    assert_eq!(
        spent, result.measurements,
        "sum of journal attempts == budget consumed"
    );
    assert_eq!(
        last_budget_end, result.measurements,
        "final budget_end == budget consumed"
    );
    counts
}

#[test]
fn fault_free_journal_conserves_budget() {
    let (result, sink) = journaled_run(7, 0.0);
    let records = sink.records();
    let counts = check_conservation(&result, &records);

    // Strict budget: the run consumes exactly joint + loop.
    assert_eq!(result.measurements, JOINT_BUDGET + LOOP_BUDGET);
    // Fault-free, every budget unit is a success, so the measured and
    // cache-hit candidates partition the budget exactly.
    let measured = counts.get(outcome::MEASURED).copied().unwrap_or(0);
    let hits = counts.get(outcome::CACHE_HIT).copied().unwrap_or(0);
    assert_eq!(measured + hits, result.measurements);
    assert_eq!(counts.get(outcome::FAILED), None, "no faults injected");

    // And each successful candidate took exactly one unit.
    for r in &records {
        if let JournalRecord::Candidate(c) = r {
            if c.outcome == outcome::MEASURED || c.outcome == outcome::CACHE_HIT {
                assert_eq!(c.attempts, 1);
            }
        }
    }
}

#[test]
fn faulted_journal_conserves_budget() {
    let (result, sink) = journaled_run(7, 0.25);
    let records = sink.records();
    let counts = check_conservation(&result, &records);

    // With a 25% fault rate some candidates must have needed retries or
    // failed outright; the conservation law in `check_conservation`
    // already proved the retry units are all accounted for.
    let retried = records.iter().any(|r| {
        matches!(r, JournalRecord::Candidate(c)
            if c.attempts > 1 || c.outcome == outcome::FAILED)
    });
    assert!(retried, "fault injection left a trace in the journal");
    // Successes alone no longer cover the whole budget.
    let measured = counts.get(outcome::MEASURED).copied().unwrap_or(0);
    let hits = counts.get(outcome::CACHE_HIT).copied().unwrap_or(0);
    assert!(measured + hits <= result.measurements);
}

#[test]
fn every_record_survives_the_wire() {
    // The in-memory journal and its JSONL rendering describe the same
    // run: serialize, reparse, compare.
    let (_, sink) = journaled_run(11, 0.1);
    let text = sink.lines().join("\n");
    let reparsed = alt_journal::parse_journal(&text).expect("journal parses");
    assert_eq!(reparsed, sink.records());
}

/// Legal candidates are never rejected, so verifier rejections on a real
/// run need an operator the verifier must refuse: `conv_graph` plus a
/// GMM whose body reads its weight one row past the end. Every lowered
/// loop candidate of that GMM reads out of bounds.
fn rejecting_graph() -> Graph {
    use alt_tensor::{Axis, ComplexKind, Compute, Expr, OpTag, ReduceKind, ScalarExpr};
    let mut g = conv_graph();
    let a = g.add_input("a", Shape::new([16, 24]));
    let w = g.add_param("w_oob", Shape::new([24, 16]));
    let (m, n, k) = (
        g.vargen.fresh("m"),
        g.vargen.fresh("n"),
        g.vargen.fresh("k"),
    );
    let past_end = Expr::v(&k).add(&Expr::c(1));
    let body = ScalarExpr::load(0, vec![Expr::v(&m), Expr::v(&k)])
        .mul(ScalarExpr::load(1, vec![past_end, Expr::v(&n)]));
    let compute = Compute {
        name: "gmm_oob".into(),
        axes: vec![Axis::new(m, 16), Axis::new(n, 16)],
        reduce_axes: vec![Axis::new(k, 24)],
        reduce: ReduceKind::Sum,
        init: 0.0,
        body,
        post_scale: 1.0,
    };
    g.add_op(compute, vec![a, w], OpTag::Complex(ComplexKind::Gmm));
    g
}

/// One faulted, verified run of `graph` with a trace and a journal both
/// attached. Both streams are projections of one candidate event, so
/// they must tell the same story record for record. Returns the number
/// of verifier rejections and layout commits the pairing covered.
fn check_streams_agree(graph: &Graph, seed: u64) -> (usize, usize) {
    use alt_telemetry::{Record, Stage, Telemetry};
    let (trace, trace_sink) = Telemetry::memory();
    let (journal, journal_sink) = alt_journal::Journal::memory();
    let cfg = TuneConfig {
        joint_budget: JOINT_BUDGET,
        loop_budget: LOOP_BUDGET,
        batch: 8,
        topk: 2,
        free_input_layouts: true,
        seed,
        verify: true,
        faults: Some(FaultConfig::uniform(0.2)),
        observer: alt_autotune::Observer {
            trace,
            journal,
            ..Default::default()
        },
        ..TuneConfig::default()
    };
    let result = tune_graph(graph, intel_cpu(), cfg);
    let trace = trace_sink.records();
    let journal = journal_sink.records();

    // Per-unit trace records, in budget order: seq runs 1..=budget.
    let units: Vec<&Record> = trace
        .iter()
        .filter(|r| matches!(r, Record::Measurement(_) | Record::MeasurementFailure(_)))
        .collect();
    let seqs: Vec<u64> = units
        .iter()
        .map(|r| match r {
            Record::Measurement(m) => m.seq,
            Record::MeasurementFailure(f) => f.seq,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(seqs, (1..=result.measurements).collect::<Vec<u64>>());

    // Each journal candidate with `attempts = n` owns the next n
    // unit records, which name the same op, stage, round and
    // candidate; its outcome is the last one's.
    let mut next = 0usize;
    let mut rejected = Vec::new();
    let mut commits = Vec::new();
    for r in &journal {
        let c = match r {
            JournalRecord::Candidate(c) => c,
            JournalRecord::LayoutCommit(l) => {
                commits.push((l.op.clone(), format!("{:?}", l.point)));
                continue;
            }
            _ => continue,
        };
        let label = if c.provenance == alt_journal::provenance::INCUMBENT {
            "incumbent".to_string()
        } else {
            format!("{:?}", c.point)
        };
        if c.outcome == outcome::VERIFY_REJECTED {
            let point = format!("{:?}", c.point);
            rejected.push((c.op.clone(), c.round, point, c.vcode.clone()));
        }
        let owned = &units[next..next + c.attempts as usize];
        next += c.attempts as usize;
        for (i, u) in owned.iter().enumerate() {
            let (op, stage, round, candidate) = match u {
                Record::Measurement(m) => (&m.op, m.stage, m.round, &m.candidate),
                Record::MeasurementFailure(f) => {
                    assert_eq!(f.attempt, i as u64 + 1, "attempt index");
                    (&f.op, f.stage, f.round, &f.candidate)
                }
                _ => unreachable!(),
            };
            let stage = match stage {
                Stage::Joint => "joint",
                Stage::Loop => "loop",
            };
            assert_eq!(
                (op, stage, round, candidate),
                (&c.op, c.stage.as_str(), c.round, &label)
            );
        }
        match owned.last() {
            Some(Record::Measurement(m)) => {
                assert_eq!(c.latency_s, Some(m.latency_s));
                assert!(c.outcome == outcome::MEASURED || c.outcome == outcome::CACHE_HIT);
            }
            Some(_) => assert_eq!(c.outcome, outcome::FAILED),
            None => assert_eq!(c.attempts, 0),
        }
    }
    assert_eq!(
        next,
        units.len(),
        "every unit record belongs to a candidate"
    );

    // Verifier rejections and layout commits pair one to one.
    let rejections: Vec<_> = trace
        .iter()
        .filter_map(|r| match r {
            Record::VerifyRejection(v) => Some((
                v.op.clone(),
                v.round,
                v.candidate.clone(),
                Some(v.code.clone()),
            )),
            _ => None,
        })
        .collect();
    assert_eq!(rejections, rejected);
    let committed: Vec<_> = trace
        .iter()
        .filter_map(|r| match r {
            Record::Event(e) if e.name == "layout_committed" => {
                Some((e.fields[0].1.clone(), e.fields[1].1.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(committed, commits);
    (rejected.len(), commits.len())
}

#[test]
fn trace_and_journal_agree_record_for_record() {
    for seed in [3, 7, 19] {
        let (_, commits) = check_streams_agree(&conv_graph(), seed);
        assert!(commits > 0, "the joint stage committed a layout");
    }
    let (rejections, _) = check_streams_agree(&rejecting_graph(), 3);
    assert!(rejections > 0, "the verifier rejected a candidate");
}
