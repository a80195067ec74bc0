//! Search journal: full tuning-run introspection for ALT.
//!
//! `TuneResult::history` keeps only `(budget, latency)` pairs for
//! successful measurements; everything else about a search — who
//! proposed each candidate, what the cost model predicted, why the
//! verifier rejected it, which regions of the joint space were never
//! visited — evaporates when the process exits. This crate is the
//! durable record of that search:
//!
//! * [`record`] — the append-only JSONL schema: a header identifying
//!   the run, one [`record::CandidateRecord`] per candidate the tuner
//!   touched (provenance, predicted vs measured, verify V-code, cache
//!   hit/miss, fault outcome, budget index, program/profile
//!   fingerprints), layout visits/commits, and a summary.
//! * [`sink`] — [`Journal`] and [`MemoryJournal`]: the workspace's one
//!   sink stack (`alt_telemetry::Telemetry`) over the journal schema,
//!   plus the reader.
//! * [`diagnostics`] — convergence, cost-model calibration, and
//!   joint-space coverage computed from a journal.
//! * [`render`] / [`html`] — the `altc inspect` text report and the
//!   self-contained single-file HTML report.
//!
//! The tuner never writes journal records directly: it hands each
//! candidate's terminal outcome, layout visit and layout commit to its
//! observer as one event, and the journal records here are one
//! projection of that event (the trace's measurement records are
//! another).
//!
//! Journals are deterministic artifacts: `--jobs N` runs are
//! journal-bit-identical to sequential runs, and an interrupted run's
//! journal concatenated with its resumed continuation equals the
//! uninterrupted journal byte-for-byte.

pub mod diagnostics;
pub mod html;
pub mod record;
pub mod render;
pub mod sink;

pub use diagnostics::{inspect, Calibration, Convergence, Coverage, Inspection, Totals};
pub use html::render_html;
pub use record::{
    finite, outcome, provenance, CandidateRecord, JournalHeader, JournalRecord, JournalSummary,
    LayoutCommitRecord, LayoutVisitRecord, JOURNAL_VERSION,
};
pub use render::render_text;
pub use sink::{parse_journal, read_journal, Journal, MemoryJournal};
