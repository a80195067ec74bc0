//! RAII spans and point events with monotonic timestamps.
//!
//! Timestamps are microseconds since a process-wide epoch captured on
//! first use, so all records within a run share one clock. Nesting depth
//! is tracked per thread: a span entered while another is open records
//! `depth + 1`.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

use crate::record::{EventRecord, Record, SpanRecord};
use crate::sink::Telemetry;

static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static DEPTH: Cell<u64> = const { Cell::new(0) };
}

/// Microseconds since the process telemetry epoch.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Current per-thread span nesting depth.
pub fn current_depth() -> u64 {
    DEPTH.with(|d| d.get())
}

/// An open timed region. Emits a [`SpanRecord`] when dropped.
pub struct Span {
    telemetry: Telemetry,
    name: String,
    depth: u64,
    start_us: u64,
}

impl Span {
    /// Opens a span. Cheap when telemetry is disabled (no clock read).
    pub fn enter(telemetry: &Telemetry, name: impl Into<String>) -> Self {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let start_us = if telemetry.is_enabled() { now_us() } else { 0 };
        Self {
            telemetry: telemetry.clone(),
            name: name.into(),
            depth,
            start_us,
        }
    }
}

/// Emits a point event with key/value fields, one level below the
/// innermost open span of this thread.
pub fn emit_event(telemetry: &Telemetry, name: &str, fields: &[(&str, String)]) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.emit(Record::Event(EventRecord {
        name: name.to_string(),
        depth: current_depth(),
        t_us: now_us(),
        fields: fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    }));
}

impl Drop for Span {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        if self.telemetry.is_enabled() {
            let end = now_us();
            self.telemetry.emit(Record::Span(SpanRecord {
                name: std::mem::take(&mut self.name),
                depth: self.depth,
                start_us: self.start_us,
                dur_us: end.saturating_sub(self.start_us),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_nesting_depth() {
        let (t, sink) = Telemetry::memory();
        {
            let _outer = Span::enter(&t, "outer");
            emit_event(&t, "tick", &[("k", "v".to_string())]);
            {
                let _inner = Span::enter(&t, "inner");
            }
        }
        let records = sink.records();
        // Event first, then inner span closes, then outer.
        assert_eq!(records.len(), 3);
        match &records[0] {
            Record::Event(e) => {
                assert_eq!(e.name, "tick");
                assert_eq!(e.depth, 1);
                assert_eq!(e.fields, vec![("k".to_string(), "v".to_string())]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &records[1] {
            Record::Span(s) => {
                assert_eq!(s.name, "inner");
                assert_eq!(s.depth, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &records[2] {
            Record::Span(s) => {
                assert_eq!(s.name, "outer");
                assert_eq!(s.depth, 0);
                assert!(s.dur_us >= records[1].span_dur());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    impl Record {
        fn span_dur(&self) -> u64 {
            match self {
                Record::Span(s) => s.dur_us,
                _ => 0,
            }
        }
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }

    #[test]
    fn spawned_threads_start_at_depth_zero() {
        let (t, sink) = Telemetry::memory();
        let _outer = Span::enter(&t, "outer");
        assert_eq!(current_depth(), 1);
        let t2 = t.clone();
        std::thread::spawn(move || {
            // Depth is per-thread: the parent's open span is invisible.
            assert_eq!(current_depth(), 0);
            let _child = Span::enter(&t2, "child");
            assert_eq!(current_depth(), 1);
        })
        .join()
        .expect("spawned thread");
        assert_eq!(current_depth(), 1);
        match &sink.records()[0] {
            Record::Span(s) => {
                assert_eq!(s.name, "child");
                assert_eq!(s.depth, 0, "spawned thread starts at depth 0");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn interleaved_spans_on_two_threads_record_independent_depths() {
        use std::sync::mpsc;
        let (t, sink) = Telemetry::memory();
        // Lockstep interleaving: A opens a0, then B opens b0+b1 and
        // closes both, then A opens and closes a1, then a0 closes.
        let (to_b, b_rx) = mpsc::channel::<()>();
        let (to_a, a_rx) = mpsc::channel::<()>();
        let tb = t.clone();
        let b = std::thread::spawn(move || {
            b_rx.recv().expect("a0 open");
            let b0 = Span::enter(&tb, "b0");
            {
                let _b1 = Span::enter(&tb, "b1");
                assert_eq!(current_depth(), 2);
            }
            drop(b0);
            to_a.send(()).expect("signal a");
        });
        {
            let _a0 = Span::enter(&t, "a0");
            to_b.send(()).expect("signal b");
            a_rx.recv().expect("b done");
            let _a1 = Span::enter(&t, "a1");
            assert_eq!(current_depth(), 2);
        }
        b.join().expect("thread b");
        let depth_of = |name: &str| {
            sink.records()
                .iter()
                .find_map(|r| match r {
                    Record::Span(s) if s.name == name => Some(s.depth),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        // B's depths never see A's open a0; A's never see B's spans.
        assert_eq!(depth_of("b0"), 0);
        assert_eq!(depth_of("b1"), 1);
        assert_eq!(depth_of("a0"), 0);
        assert_eq!(depth_of("a1"), 1);
    }

    #[test]
    fn disabled_spans_leave_no_records_but_track_depth() {
        let t = Telemetry::noop();
        assert_eq!(current_depth(), 0);
        {
            let _s = Span::enter(&t, "quiet");
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
    }
}
