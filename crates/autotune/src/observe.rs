//! The tuner's one observation point.
//!
//! The tuner records each fact of a search once, on its sequential
//! accounting path, and hands it to its [`Observer`]: a candidate's
//! terminal outcome (a [`CandidateEvent`]), an assessed joint-stage
//! layout point, or a committed layout. Every observation stream is a
//! projection of those events:
//!
//! * the trace: per attempt one `measurement` or `measurement_failure`
//!   record plus the `sim` counters and histograms; `verify_rejection`
//!   records; the `layout_committed` event;
//! * the journal: `candidate`, `layout_visit` and `layout_commit`
//!   records;
//! * the progress heartbeat: one tick per attempt.
//!
//! With every projection off no event is built. No projection draws
//! from the RNG or consumes budget, so observing a run cannot change it.

use alt_error::AltError;
use alt_journal::{
    finite, outcome, provenance, CandidateRecord, Journal, JournalHeader, JournalRecord,
    JournalSummary, LayoutCommitRecord, LayoutVisitRecord,
};
use alt_telemetry::{
    emit_event, CounterRegistry, MeasurementFailureRecord, MeasurementRecord, Record, SimCounters,
    Stage, Telemetry, Timing, VerifyRejectionRecord,
};

use crate::measure::Measured;
use crate::progress::Progress;

/// Where a tuning run's observations go. Every stream is off by
/// default.
#[derive(Clone, Debug, Default)]
pub struct Observer {
    /// Deterministic JSONL trace (`altc --trace`).
    pub trace: Telemetry,
    /// Search journal (`altc --journal`).
    pub journal: Journal,
    /// Wall-clock self-profile (`altc --timing`). It has its own sink,
    /// never the trace or journal.
    pub timing: Timing,
    /// Throttled stderr heartbeat (`altc --progress`).
    pub progress: bool,
}

impl Observer {
    /// Opens the trace and journal files a run asked for; a resumed run
    /// appends to its predecessor's journal. Observation must never kill
    /// a compile: a path that cannot be opened is a typed, survivable
    /// error — warn and continue without that stream.
    pub fn open(trace: Option<&str>, journal: Option<&str>, resumed: bool) -> Self {
        Self {
            journal: open_or_warn(journal, resumed, "journal", |detail| AltError::Journal {
                detail,
            }),
            trace: open_or_warn(trace, false, "trace", |detail| AltError::Trace { detail }),
            ..Self::default()
        }
    }
}

fn open_or_warn<R: serde::Serialize + 'static>(
    path: Option<&str>,
    append: bool,
    stream: &str,
    typed: fn(String) -> AltError,
) -> Telemetry<R> {
    let Some(path) = path else {
        return Telemetry::noop();
    };
    let opened = if append {
        Telemetry::jsonl_append(path)
    } else {
        Telemetry::jsonl(path)
    };
    opened.unwrap_or_else(|e| {
        let err = typed(format!("cannot open {path}: {e}"));
        eprintln!("warning: {err}; continuing without a {stream}");
        Telemetry::noop()
    })
}

/// A candidate as every projection of its event names it.
#[derive(Clone, Copy)]
pub(crate) struct Candidate<'a> {
    /// Operator tag, e.g. `conv2d#3`.
    pub op: &'a str,
    pub stage: Stage,
    /// Loop-tuning round of the op.
    pub round: u64,
    /// Who proposed it (`alt_journal::provenance`).
    pub provenance: &'a str,
    /// Loop point (empty for the incumbent schedule).
    pub point: &'a [usize],
    /// Cost-model prediction, when the round was ranked.
    pub predicted: Option<f64>,
}

impl Candidate<'_> {
    /// The trace's name for the candidate.
    pub(crate) fn label(&self) -> String {
        if self.provenance == provenance::INCUMBENT {
            "incumbent".to_string()
        } else {
            format!("{:?}", self.point)
        }
    }
}

/// A candidate's terminal outcome.
pub(crate) struct CandidateEvent<'a> {
    pub candidate: Candidate<'a>,
    pub fate: Fate<'a>,
    /// Budget counter after the candidate's last attempt.
    pub budget_end: u64,
    /// Memo-cache and store `(hits, misses)` at that point.
    pub cache: (u64, u64),
    pub store: (u64, u64),
}

/// How a candidate ended.
pub(crate) enum Fate<'a> {
    /// Dropped without spending budget: `skipped`, `quarantined` or
    /// `lower_failed` (`alt_journal::outcome`).
    Dropped(&'static str),
    /// Rejected by the static verifier, without spending budget.
    VerifyRejected(&'a alt_verify::Diagnostic),
    /// Measured: one attempt per budget unit spent; the last one decides
    /// the outcome. `best_s` is the op's best latency after it.
    Attempted {
        attempts: &'a [Attempt],
        best_s: f64,
    },
}

/// One budget unit spent on a candidate.
pub(crate) struct Attempt {
    /// Budget counter value of this unit (1-based).
    pub seq: u64,
    /// Which attempt at the candidate this is (1 = first try).
    pub index: u64,
    /// Virtual backoff before this attempt, in microseconds (recorded,
    /// never slept — the simulator has no wall clock).
    pub backoff_us: u64,
    pub result: Result<Measured, AltError>,
}

/// An [`Observer`] attached to one tuning run, with the run-level state
/// its projections accumulate.
pub(crate) struct RunObserver {
    obs: Observer,
    /// `sim`-scoped counters and histograms over every successful
    /// attempt, flushed to the trace when the run ends.
    sim: CounterRegistry,
    /// The `--progress` heartbeat, when asked for.
    heartbeat: Option<Progress>,
}

impl RunObserver {
    /// Attaches `obs` to a run of `total_budget` units.
    pub(crate) fn new(obs: Observer, total_budget: u64) -> Self {
        Self {
            heartbeat: obs.progress.then(|| Progress::new(total_budget)),
            obs,
            sim: CounterRegistry::new("sim"),
        }
    }

    /// Whether any projection consumes events. Callers check this before
    /// building one.
    pub(crate) fn is_enabled(&self) -> bool {
        self.obs.trace.is_enabled() || self.obs.journal.is_enabled() || self.obs.progress
    }

    pub(crate) fn trace(&self) -> &Telemetry {
        &self.obs.trace
    }

    pub(crate) fn timing(&self) -> &Timing {
        &self.obs.timing
    }

    /// Writes the journal header (first leg of a run only).
    pub(crate) fn start(&self, header: JournalHeader) {
        self.obs.journal.emit(JournalRecord::Header(header));
    }

    /// Derives every output of a candidate's terminal outcome.
    pub(crate) fn candidate(&self, ev: &CandidateEvent) {
        self.trace_candidate(ev);
        let journal = &self.obs.journal;
        if journal.is_enabled() {
            journal.emit(JournalRecord::Candidate(journal_record(ev)));
        }
    }

    /// Derives every output of an assessed joint-stage layout point.
    pub(crate) fn layout_visit(&self, op: &str, provenance: &str, point: &[usize], latency_s: f64) {
        self.obs
            .journal
            .emit(JournalRecord::LayoutVisit(LayoutVisitRecord {
                op: op.to_string(),
                provenance: provenance.to_string(),
                point: to_u64s(point),
                latency_s: finite(latency_s),
            }));
    }

    /// Derives every output of a layout committed to the plan.
    pub(crate) fn layout_commit(&self, op: &str, point: &[usize], latency_s: f64) {
        self.obs
            .journal
            .emit(JournalRecord::LayoutCommit(LayoutCommitRecord {
                op: op.to_string(),
                point: to_u64s(point),
                latency_s: finite(latency_s),
            }));
        let fields = [("op", op.to_string()), ("point", format!("{point:?}"))];
        emit_event(&self.obs.trace, "layout_committed", &fields);
    }

    /// The trace side of a candidate event, plus its heartbeat ticks.
    fn trace_candidate(&self, ev: &CandidateEvent) {
        let trace = &self.obs.trace;
        let c = &ev.candidate;
        match &ev.fate {
            Fate::VerifyRejected(d) if trace.is_enabled() => {
                trace.emit(Record::VerifyRejection(VerifyRejectionRecord {
                    op: c.op.to_string(),
                    stage: c.stage,
                    round: c.round,
                    candidate: format!("{:?}", c.point),
                    code: d.code.to_string(),
                    detail: format!("{}: {}", d.group, d.detail),
                }));
            }
            Fate::Attempted { attempts, best_s } => {
                for a in *attempts {
                    if let Some(heartbeat) = &self.heartbeat {
                        heartbeat.tick(a.seq, ev.cache, ev.store);
                    }
                    if trace.is_enabled() {
                        trace.emit(self.attempt_record(c, a, *best_s));
                    }
                }
            }
            Fate::Dropped(_) | Fate::VerifyRejected(_) => {}
        }
    }

    /// The trace record of one attempt: a measurement (whose counters
    /// also feed the `sim` registry) or a failure.
    fn attempt_record(&self, c: &Candidate, a: &Attempt, best_s: f64) -> Record {
        let m = match &a.result {
            Ok(m) => m,
            Err(e) => {
                return Record::MeasurementFailure(MeasurementFailureRecord {
                    seq: a.seq,
                    op: c.op.to_string(),
                    stage: c.stage,
                    round: c.round,
                    candidate: c.label(),
                    kind: e.kind().to_string(),
                    error: e.to_string(),
                    attempt: a.index,
                    backoff_us: a.backoff_us,
                })
            }
        };
        let k = &m.counters;
        let sim = &self.sim;
        sim.add(if m.hit { "cache.hits" } else { "cache.misses" }, 1.0);
        sim.add("l1.accesses", k.l1_loads + k.l1_stores);
        sim.add("l1.misses", k.l1_misses);
        sim.add("l2.misses", k.l2_misses);
        sim.add("prefetch.issued", k.prefetch_issued);
        sim.add("prefetch.useful", k.prefetch_useful);
        sim.observe("simd.utilization", k.simd_utilization());
        sim.observe("latency_us", m.latency_s * 1e6);
        Record::Measurement(MeasurementRecord {
            seq: a.seq,
            op: c.op.to_string(),
            stage: c.stage,
            round: c.round,
            candidate: c.label(),
            predicted_cost: c.predicted,
            latency_s: m.latency_s,
            best_so_far_s: best_s,
            counters: SimCounters {
                instructions: k.instructions,
                flops: k.flops,
                l1_loads: k.l1_loads,
                l1_stores: k.l1_stores,
                l1_misses: k.l1_misses,
                l2_misses: k.l2_misses,
                prefetch_issued: k.prefetch_issued,
                prefetch_useful: k.prefetch_useful,
                simd_utilization: k.simd_utilization(),
            },
        })
    }

    /// Ends the run: the journal summary (absent on a halted run, whose
    /// resumed successor writes it), then the tuner's and the `sim`
    /// counters. `store` is the durable store's `(hits, misses)` when one
    /// is attached.
    pub(crate) fn finish(
        &self,
        summary: Option<JournalSummary>,
        tuner: &CounterRegistry,
        store: Option<(u64, u64)>,
    ) {
        if let Some(summary) = summary {
            self.obs.journal.emit(JournalRecord::Summary(summary));
        }
        self.obs.journal.flush();
        tuner.flush_to(&self.obs.trace);
        if let Some((hits, misses)) = store {
            self.sim.add("store.hits", hits as f64);
            self.sim.add("store.misses", misses as f64);
        }
        self.sim.flush_to(&self.obs.trace);
    }
}

/// The journal's `candidate` record of one event.
fn journal_record(ev: &CandidateEvent) -> CandidateRecord {
    let c = &ev.candidate;
    let mut rec = CandidateRecord {
        op: c.op.to_string(),
        stage: match c.stage {
            Stage::Joint => "joint",
            Stage::Loop => "loop",
        }
        .to_string(),
        round: c.round,
        provenance: c.provenance.to_string(),
        point: to_u64s(c.point),
        budget_end: ev.budget_end,
        ..CandidateRecord::default()
    };
    let fate = match &ev.fate {
        Fate::Dropped(fate) => fate,
        Fate::VerifyRejected(d) => {
            rec.vcode = Some(d.code.to_string());
            outcome::VERIFY_REJECTED
        }
        Fate::Attempted { attempts, .. } => {
            rec.predicted = c.predicted;
            rec.attempts = attempts.len() as u64;
            match attempts.last().map(|a| &a.result) {
                Some(Ok(m)) => {
                    rec.latency_s = finite(m.latency_s);
                    rec.program_fp = Some(m.program_fp);
                    rec.cache_key = Some(m.cache_key);
                    if m.hit {
                        outcome::CACHE_HIT
                    } else {
                        outcome::MEASURED
                    }
                }
                Some(Err(e)) => {
                    rec.error = Some(e.kind().to_string());
                    outcome::FAILED
                }
                None => outcome::FAILED,
            }
        }
    };
    rec.outcome = fate.to_string();
    rec
}

fn to_u64s(point: &[usize]) -> Vec<u64> {
    point.iter().map(|&x| x as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    type Sinks = (
        std::sync::Arc<alt_telemetry::MemorySink>,
        std::sync::Arc<alt_journal::MemoryJournal>,
    );

    fn observed() -> (RunObserver, Sinks) {
        let (trace, tsink) = Telemetry::memory();
        let (journal, jsink) = Journal::memory();
        let obs = Observer {
            trace,
            journal,
            ..Observer::default()
        };
        (RunObserver::new(obs, 10), (tsink, jsink))
    }

    fn event<'a>(point: &'a [usize], fate: Fate<'a>) -> CandidateEvent<'a> {
        CandidateEvent {
            candidate: Candidate {
                op: "c2d#1",
                stage: Stage::Loop,
                round: 4,
                provenance: provenance::RANDOM,
                point,
                predicted: Some(0.5),
            },
            fate,
            budget_end: 2,
            cache: (0, 1),
            store: (0, 0),
        }
    }

    #[test]
    fn only_an_attached_stream_consumes_events() {
        assert!(!RunObserver::new(Observer::default(), 10).is_enabled());
        let progress_only = Observer {
            progress: true,
            ..Observer::default()
        };
        assert!(RunObserver::new(progress_only, 10).is_enabled());
    }

    #[test]
    fn a_retried_candidate_projects_one_trace_record_per_attempt() {
        let (obs, (tsink, jsink)) = observed();
        let counters = alt_sim::Counters {
            latency_s: 2e-3,
            flops: 64.0,
            ..alt_sim::Counters::default()
        };
        let attempts = [
            Attempt {
                seq: 1,
                index: 1,
                backoff_us: 0,
                result: Err(AltError::MeasureTimeout {
                    candidate: "[1, 2]".to_string(),
                }),
            },
            Attempt {
                seq: 2,
                index: 2,
                backoff_us: 100,
                result: Ok(Measured {
                    latency_s: 2e-3,
                    counters,
                    program_fp: 7,
                    cache_key: 8,
                    hit: false,
                }),
            },
        ];
        let fate = Fate::Attempted {
            attempts: &attempts,
            best_s: 1e-3,
        };
        obs.candidate(&event(&[1, 2], fate));
        obs.finish(None, &CounterRegistry::new("tuner"), None);
        let trace = tsink.records();
        match &trace[..2] {
            [Record::MeasurementFailure(f), Record::Measurement(m)] => {
                assert_eq!((f.seq, f.attempt, f.backoff_us), (1, 1, 0));
                assert_eq!(f.kind, "timeout");
                assert_eq!((m.seq, m.candidate.as_str()), (2, "[1, 2]"));
                assert_eq!((m.predicted_cost, m.best_so_far_s), (Some(0.5), 1e-3));
            }
            other => panic!("unexpected trace {other:?}"),
        }
        assert!(trace.iter().any(
            |r| matches!(r, Record::Counter(c) if c.scope == "sim" && c.name == "cache.misses")
        ));
        let journal = jsink.records();
        let [JournalRecord::Candidate(c)] = &journal[..] else {
            panic!("unexpected journal {journal:?}");
        };
        assert_eq!((c.outcome.as_str(), c.attempts), (outcome::MEASURED, 2));
        assert_eq!((c.program_fp, c.cache_key), (Some(7), Some(8)));
    }

    #[test]
    fn cache_hits_and_misses_feed_the_sim_counters() {
        let (obs, (tsink, jsink)) = observed();
        let measured = |hit| Measured {
            latency_s: 2e-3,
            counters: alt_sim::Counters {
                latency_s: 2e-3,
                flops: 64.0,
                prefetch_issued: 4.0,
                prefetch_useful: 3.0,
                ..alt_sim::Counters::default()
            },
            program_fp: 7,
            cache_key: 8,
            hit,
        };
        for (seq, hit) in [(1, false), (2, true)] {
            let attempts = [Attempt {
                seq,
                index: 1,
                backoff_us: 0,
                result: Ok(measured(hit)),
            }];
            let fate = Fate::Attempted {
                attempts: &attempts,
                best_s: 2e-3,
            };
            obs.candidate(&event(&[1, 2], fate));
        }
        obs.finish(None, &CounterRegistry::new("tuner"), None);
        let trace = tsink.records();
        let seqs: Vec<u64> = trace
            .iter()
            .filter_map(|r| match r {
                Record::Measurement(m) => Some(m.seq),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, [1, 2], "a hit still emits its trace record");
        let sim = |name: &str| {
            trace
                .iter()
                .find_map(|r| match r {
                    Record::Counter(c) if c.scope == "sim" && c.name == name => Some(c.value),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("missing sim counter {name}"))
        };
        assert_eq!(sim("cache.hits"), 1.0);
        assert_eq!(sim("cache.misses"), 1.0);
        assert_eq!(sim("prefetch.useful"), 6.0);
        assert!(sim("simd.utilization.mean").is_finite());
        let outcomes: Vec<String> = jsink
            .records()
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Candidate(c) => Some(c.outcome.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes, [outcome::MEASURED, outcome::CACHE_HIT]);
    }

    #[test]
    fn a_verifier_rejection_projects_to_both_streams() {
        let (obs, (tsink, jsink)) = observed();
        let d = alt_verify::Diagnostic::new("V201", "group 0", "out of bounds");
        obs.candidate(&event(&[3], Fate::VerifyRejected(&d)));
        let [Record::VerifyRejection(v)] = &tsink.records()[..] else {
            panic!("one verify_rejection record");
        };
        assert_eq!((v.candidate.as_str(), v.code.as_str()), ("[3]", "V201"));
        assert_eq!(v.detail, "group 0: out of bounds");
        let [JournalRecord::Candidate(c)] = &jsink.records()[..] else {
            panic!("one candidate record");
        };
        assert_eq!(c.outcome, outcome::VERIFY_REJECTED);
        assert_eq!((c.vcode.as_deref(), c.attempts), (Some("V201"), 0));
    }

    #[test]
    fn a_layout_commit_projects_to_both_streams() {
        let (obs, (tsink, jsink)) = observed();
        obs.layout_commit("c2d#1", &[2, 0], 3e-3);
        let [Record::Event(e)] = &tsink.records()[..] else {
            panic!("one layout_committed event");
        };
        assert_eq!(e.name, "layout_committed");
        assert_eq!(e.fields[1], ("point".to_string(), "[2, 0]".to_string()));
        let [JournalRecord::LayoutCommit(c)] = &jsink.records()[..] else {
            panic!("one layout_commit record");
        };
        assert_eq!(
            (c.point.as_slice(), c.latency_s),
            (&[2u64, 0][..], Some(3e-3))
        );
    }
}
