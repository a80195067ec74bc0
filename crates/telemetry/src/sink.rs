//! Pluggable record sinks, the cheap handle instrumented code emits
//! through, and the JSONL reader — one stack, generic over the record
//! type.
//!
//! The trace uses it with [`Record`] (the default type parameter, so
//! `Telemetry`, `MemorySink` and `Sink` name the trace stack); the
//! search journal uses the same types with its own record schema. A
//! [`Telemetry`] handle is either disabled (the default — one `Option`
//! check per emit, no allocation) or wraps an `Arc<dyn Sink<R>>` shared
//! across threads.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::record::Record;

/// Destination for records. Implementations must be safe to share
/// across tuning threads.
pub trait Sink<R = Record>: Send + Sync {
    /// Accepts one record. Called on the hot measurement path, so
    /// implementations should be cheap or buffered.
    fn record(&self, record: &R);

    /// Flushes any buffered output. Default: no-op.
    fn flush(&self) {}
}

/// Thread-safe in-memory collector, for tests, bench runs that inspect
/// a stream without touching disk, and embedding a run summary in
/// benchmark output.
pub struct MemorySink<R = Record> {
    records: Mutex<Vec<R>>,
}

impl<R> Default for MemorySink<R> {
    fn default() -> Self {
        Self {
            records: Mutex::new(Vec::new()),
        }
    }
}

impl<R: Clone> MemorySink<R> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn records(&self) -> Vec<R> {
        self.records.lock().expect("memory sink poisoned").clone()
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.lock().expect("memory sink poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<R: Clone + Serialize> MemorySink<R> {
    /// The records rendered exactly as their JSONL file would be — the
    /// byte-identity currency of the `--jobs` / checkpoint proptests.
    pub fn lines(&self) -> Vec<String> {
        self.records().iter().map(to_line).collect()
    }
}

impl<R: Clone + Send> Sink<R> for MemorySink<R> {
    fn record(&self, record: &R) {
        self.records
            .lock()
            .expect("memory sink poisoned")
            .push(record.clone());
    }
}

/// One record as compact JSON (one JSONL line, without the newline).
fn to_line<R: Serialize>(record: &R) -> String {
    serde_json::to_string(record).expect("record serializes")
}

/// Appends one compact-JSON line per record to a file.
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::over(File::create(path)?))
    }

    /// Opens the file for appending — how a resumed run continues the
    /// journal its interrupted predecessor started.
    pub fn append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::over(
            File::options().create(true).append(true).open(path)?,
        ))
    }

    fn over(file: File) -> Self {
        Self {
            writer: Mutex::new(BufWriter::new(file)),
        }
    }
}

impl<R: Serialize> Sink<R> for JsonlSink {
    fn record(&self, record: &R) {
        let line = to_line(record);
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Cheap, clonable handle instrumented code emits through.
///
/// The disabled (`noop`) handle costs one branch per emit and is the
/// default everywhere, so uninstrumented runs pay essentially nothing.
#[derive(Clone)]
pub struct Telemetry<R = Record> {
    sink: Option<Arc<dyn Sink<R>>>,
}

impl<R> Default for Telemetry<R> {
    fn default() -> Self {
        Self::noop()
    }
}

impl<R> std::fmt::Debug for Telemetry<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl<R> Telemetry<R> {
    /// Disabled handle; emits are dropped before any work happens.
    pub fn noop() -> Self {
        Self { sink: None }
    }

    /// Wraps an existing shared sink.
    pub fn new(sink: Arc<dyn Sink<R>>) -> Self {
        Self { sink: Some(sink) }
    }

    /// Whether emits reach a sink.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Sends one record to the sink, if any.
    pub fn emit(&self, record: R) {
        if let Some(sink) = &self.sink {
            sink.record(&record);
        }
    }

    /// Flushes the underlying sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

impl<R: Clone + Send + 'static> Telemetry<R> {
    /// Collects records in memory; returns the handle and the sink for
    /// later inspection.
    pub fn memory() -> (Self, Arc<MemorySink<R>>) {
        let sink = Arc::new(MemorySink::new());
        (Self::new(sink.clone()), sink)
    }
}

impl<R: Serialize + 'static> Telemetry<R> {
    /// Streams records to a JSONL file (truncating).
    pub fn jsonl(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(Arc::new(JsonlSink::create(path)?)))
    }

    /// Continues an existing JSONL file (appending), for resumed runs.
    pub fn jsonl_append(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::new(Arc::new(JsonlSink::append(path)?)))
    }
}

/// Parses JSONL text (one JSON record per line; blank lines allowed).
///
/// Fails loudly on a malformed line, naming it as `<what> line <n>`:
/// a stream that does not parse is a bug, and silently dropping lines
/// would corrupt everything computed from it downstream.
pub fn parse_jsonl<R: Deserialize>(text: &str, what: &str) -> Result<Vec<R>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record =
            serde_json::from_str(line).map_err(|e| format!("{what} line {}: {}", i + 1, e.0))?;
        out.push(record);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CounterRecord, EventRecord};

    fn event(name: &str) -> Record {
        Record::Event(EventRecord {
            name: name.to_string(),
            depth: 0,
            t_us: 0,
            fields: Vec::new(),
        })
    }

    #[test]
    fn noop_handle_drops_records() {
        let t = Telemetry::noop();
        assert!(!t.is_enabled());
        t.emit(event("ignored"));
        t.flush();
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let (t, sink) = Telemetry::memory();
        assert!(t.is_enabled());
        t.emit(event("a"));
        t.emit(event("b"));
        let records = sink.records();
        assert_eq!(records.len(), 2);
        match &records[0] {
            Record::Event(e) => assert_eq!(e.name, "a"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sink.lines()[1], serde_json::to_string(&records[1]).unwrap());
    }

    #[test]
    fn concurrent_emit_is_thread_safe() {
        let (t, sink) = Telemetry::memory();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        t.emit(Record::Counter(CounterRecord {
                            scope: format!("thread{i}"),
                            name: format!("n{j}"),
                            value: j as f64,
                        }));
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(sink.len(), 800);
    }

    #[test]
    fn parse_jsonl_skips_blank_lines_and_names_bad_ones() {
        let good = serde_json::to_string(&event("a")).unwrap();
        let parsed: Vec<Record> = parse_jsonl(&format!("{good}\n\n{good}\n"), "trace").unwrap();
        assert_eq!(parsed.len(), 2);
        let err = parse_jsonl::<Record>(&format!("{good}\n{{\"type\":\"nope\"}}\n"), "trace")
            .unwrap_err();
        assert!(err.starts_with("trace line 2"), "{err}");
    }
}
