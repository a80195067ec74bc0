//! Wall-clock self-profiling for the tuning pipeline (PR 8).
//!
//! PR 3's profiler explains every *simulated* nanosecond of a measured
//! program; this module explains where the tuner's *own* wall-clock time
//! goes — candidate generation, lowering, verification, GBT scoring,
//! simulation, store I/O, checkpointing. Two aggregation shapes:
//!
//! * a **phase tree** ([`PhaseNode`]): RAII [`PhaseGuard`]s opened via
//!   [`Timing::phase`] aggregate by name into a per-run tree with call
//!   counts and inclusive microseconds (exclusive time is derived), and
//! * **latency histograms** through the PR 1 [`CounterRegistry`]
//!   (`Timing::observe_us`, or the shared registry handle attached to
//!   the store and the simulation memo cache).
//!
//! The phase tree is deliberately single-threaded: guards live on the
//! tuner's sequential accounting thread only, which is what makes the
//! conservation law hold (the children of a phase can never sum to more
//! than the phase itself — concurrent worker wall-time can). Worker-side
//! timings go into the thread-safe histograms instead.
//!
//! Timing is **observation-only**. It writes to its own sink
//! ([`Timing::emit_to`]) and never the deterministic trace or journal
//! streams; attaching it cannot change a run's winners, transcripts or
//! budgets (property-tested in `alt-autotune`). The clock is injectable
//! ([`Clock`]) so tests are deterministic: production uses
//! [`MonotonicClock`], tests use [`ManualClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::counters::CounterRegistry;
use crate::record::{Record, TimingRecord};
use crate::sink::Telemetry;

/// A monotonic microsecond clock. Injectable so the phase tree is
/// testable with a deterministic [`ManualClock`].
pub trait Clock: Send + Sync {
    /// Microseconds since the clock's epoch.
    fn now_us(&self) -> u64;
}

/// The production clock: microseconds since construction, monotonic.
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A hand-advanced clock for deterministic tests.
#[derive(Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.now.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// One aggregated node of the per-run phase tree.
///
/// Phases with the same name under the same parent merge: `count` is how
/// many guards closed there and `inclusive_us` their summed wall time.
/// The conservation law — checked by [`PhaseNode::is_conserved`] and CI —
/// is that children can never sum past their parent, which holds because
/// guards are strictly nested on one thread.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PhaseNode {
    /// Phase name, e.g. `loop_stage` or `measure`.
    pub name: String,
    /// Number of guards aggregated into this node.
    pub count: u64,
    /// Total wall time spent inside this phase, children included.
    pub inclusive_us: u64,
    /// Child phases, in first-entry order.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            count: 0,
            inclusive_us: 0,
            children: Vec::new(),
        }
    }

    /// Wall time spent in this phase *outside* any child phase.
    pub fn exclusive_us(&self) -> u64 {
        self.inclusive_us.saturating_sub(self.children_us())
    }

    /// Summed inclusive time of the direct children.
    pub fn children_us(&self) -> u64 {
        self.children.iter().map(|c| c.inclusive_us).sum()
    }

    /// Direct child by name.
    pub fn child(&self, name: &str) -> Option<&PhaseNode> {
        self.children.iter().find(|c| c.name == name)
    }

    /// First node with this name anywhere in the subtree (pre-order).
    pub fn find(&self, name: &str) -> Option<&PhaseNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Checks the conservation law recursively: in every node the
    /// children's inclusive times sum to at most the node's own.
    pub fn is_conserved(&self) -> bool {
        self.children_us() <= self.inclusive_us && self.children.iter().all(PhaseNode::is_conserved)
    }

    /// Merges `other` into this node's children (matching by name,
    /// recursively).
    fn merge_child(&mut self, other: PhaseNode) {
        match self.children.iter_mut().find(|c| c.name == other.name) {
            Some(c) => {
                c.count += other.count;
                c.inclusive_us += other.inclusive_us;
                for grandchild in other.children {
                    c.merge_child(grandchild);
                }
            }
            None => self.children.push(other),
        }
    }
}

/// An open frame on the (single-threaded) phase stack.
struct Frame {
    name: String,
    start_us: u64,
    /// Children already closed under this frame.
    closed: PhaseNode,
}

struct TimingState {
    /// Closed top-level phases accumulate into this root's children.
    root: PhaseNode,
    stack: Vec<Frame>,
    /// Clock reading when timing was enabled (the root's start).
    t0_us: u64,
}

struct TimingInner {
    clock: Box<dyn Clock>,
    state: Mutex<TimingState>,
    /// Wall-clock latency histograms (`wall.*`), shareable with the
    /// store and the simulation memo cache.
    registry: Arc<CounterRegistry>,
}

/// Cheap clonable handle to the run's wall-clock self-profile. Disabled
/// by default ([`Timing::disabled`]): every operation is a no-op and
/// costs no clock read.
#[derive(Clone, Default)]
pub struct Timing {
    inner: Option<Arc<TimingInner>>,
}

impl std::fmt::Debug for Timing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timing")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Timing {
    /// The disabled handle: no clock, no allocation, no output.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle on the production monotonic clock.
    pub fn enabled() -> Self {
        Self::with_clock(Box::new(MonotonicClock::new()))
    }

    /// An enabled handle on an injected clock (tests).
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        let t0_us = clock.now_us();
        Self {
            inner: Some(Arc::new(TimingInner {
                clock,
                state: Mutex::new(TimingState {
                    root: PhaseNode::new("run"),
                    stack: Vec::new(),
                    t0_us,
                }),
                registry: Arc::new(CounterRegistry::new("wall")),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock reading (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_us())
    }

    /// Opens a phase. The returned RAII guard closes it on drop and
    /// merges it into the tree. Phases must be opened and closed on one
    /// thread (the tuner's accounting thread); guards dropped out of
    /// LIFO order fold any still-open inner phases into themselves, so
    /// the tree stays conserved even under misuse.
    pub fn phase(&self, name: &str) -> PhaseGuard {
        let depth = match &self.inner {
            None => 0,
            Some(inner) => {
                let now = inner.clock.now_us();
                let mut st = inner.state.lock().expect("timing state poisoned");
                st.stack.push(Frame {
                    name: name.to_string(),
                    start_us: now,
                    closed: PhaseNode::new(""),
                });
                st.stack.len()
            }
        };
        PhaseGuard {
            timing: self.clone(),
            depth,
        }
    }

    /// Records one wall-clock observation (microseconds) into the named
    /// histogram. Thread-safe; this is the worker-side channel that
    /// keeps concurrent timings out of the phase tree.
    pub fn observe_us(&self, name: &str, us: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.observe(name, us as f64);
        }
    }

    /// Shared histogram registry, for attaching to the store / memo
    /// cache. `None` when disabled.
    pub fn registry(&self) -> Option<Arc<CounterRegistry>> {
        self.inner.as_ref().map(|i| i.registry.clone())
    }

    /// Snapshot of the phase tree. The root spans from enablement to
    /// now; still-open frames are folded in as partial phases so the
    /// snapshot is conserved at any point. `None` when disabled.
    pub fn snapshot(&self) -> Option<PhaseNode> {
        let inner = self.inner.as_ref()?;
        let now = inner.clock.now_us();
        let st = inner.state.lock().expect("timing state poisoned");
        let mut root = st.root.clone();
        root.count = 1;
        root.inclusive_us = now.saturating_sub(st.t0_us);
        let mut open: Option<PhaseNode> = None;
        for frame in st.stack.iter().rev() {
            let mut node = PhaseNode {
                name: frame.name.clone(),
                count: 1,
                inclusive_us: now.saturating_sub(frame.start_us),
                children: frame.closed.children.clone(),
            };
            if let Some(inner_node) = open.take() {
                node.merge_child(inner_node);
            }
            open = Some(node);
        }
        if let Some(node) = open {
            root.merge_child(node);
        }
        Some(root)
    }

    /// Machine-readable per-run manifest: the phase tree, every wall
    /// histogram/counter, caller-supplied environment facts, and the
    /// run's configuration fingerprint. `None` when disabled.
    pub fn manifest(
        &self,
        env: &[(&str, serde_json::Value)],
        config_fp: u64,
    ) -> Option<serde_json::Value> {
        let inner = self.inner.as_ref()?;
        let phases = self.snapshot()?;
        let mut wall: Vec<(String, serde_json::Value)> = inner
            .registry
            .histograms()
            .into_iter()
            .map(|(name, h)| {
                (
                    name,
                    serde_json::json!({
                        "count": h.count,
                        "sum_us": h.sum,
                        "min_us": h.min,
                        "max_us": h.max,
                        "mean_us": h.mean(),
                        "p50_us": h.p50,
                        "p95_us": h.p95,
                        "p99_us": h.p99,
                        "sampled": h.sampled,
                    }),
                )
            })
            .collect();
        wall.extend(
            inner
                .registry
                .snapshot()
                .into_iter()
                .map(|(name, v)| (name, serde_json::json!(v))),
        );
        Some(serde_json::json!({
            "alt_timing_manifest": 1,
            "config_fp": format!("{config_fp:016x}"),
            "env": serde_json::Value::Object(
                env.iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .collect(),
            ),
            "phases": phase_to_json(&phases),
            "wall": serde_json::Value::Object(wall.into_iter().collect()),
        }))
    }

    /// Emits the phase tree (one [`TimingRecord`]) plus every wall
    /// histogram/counter into `sink` — the timing stream's **own** sink,
    /// never the deterministic trace. Clears the registry.
    pub fn emit_to(&self, sink: &Telemetry) {
        let Some(inner) = &self.inner else { return };
        if let Some(phases) = self.snapshot() {
            sink.emit(Record::Timing(TimingRecord { phases }));
        }
        inner.registry.flush_to(sink);
        sink.flush();
    }
}

/// Renders a [`PhaseNode`] as a `serde_json` value (the manifest's
/// `phases` field; `exclusive_us` is materialized for consumers).
pub fn phase_to_json(node: &PhaseNode) -> serde_json::Value {
    serde_json::json!({
        "name": node.name.clone(),
        "count": node.count,
        "inclusive_us": node.inclusive_us,
        "exclusive_us": node.exclusive_us(),
        "children": node.children.iter().map(phase_to_json).collect::<Vec<_>>(),
    })
}

/// RAII guard for one open phase; see [`Timing::phase`].
pub struct PhaseGuard {
    timing: Timing,
    /// Stack depth right after this guard's frame was pushed (1-based);
    /// 0 when timing is disabled.
    depth: usize,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let Some(inner) = &self.timing.inner else {
            return;
        };
        if self.depth == 0 {
            return;
        }
        let now = inner.clock.now_us();
        let mut st = inner.state.lock().expect("timing state poisoned");
        // Close everything down to (and including) this guard's frame.
        // Inner frames still open (guards leaked or dropped out of
        // order) fold into their parents here, keeping conservation.
        while st.stack.len() >= self.depth {
            let frame = st.stack.pop().expect("stack length checked");
            let node = PhaseNode {
                name: frame.name,
                count: 1,
                inclusive_us: now.saturating_sub(frame.start_us),
                children: frame.closed.children,
            };
            match st.stack.last_mut() {
                Some(parent) => parent.closed.merge_child(node),
                None => st.root.merge_child(node),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual() -> (Timing, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        struct Shared(Arc<ManualClock>);
        impl Clock for Shared {
            fn now_us(&self) -> u64 {
                self.0.now_us()
            }
        }
        let timing = Timing::with_clock(Box::new(Shared(clock.clone())));
        (timing, clock)
    }

    #[test]
    fn disabled_timing_is_inert() {
        let t = Timing::disabled();
        assert!(!t.is_enabled());
        let _g = t.phase("anything");
        t.observe_us("lat", 5);
        assert!(t.snapshot().is_none());
        assert!(t.registry().is_none());
        assert!(t.manifest(&[], 0).is_none());
    }

    #[test]
    fn nested_phases_aggregate_with_counts_and_exclusive_time() {
        let (t, clock) = manual();
        for _ in 0..2 {
            let _outer = t.phase("outer");
            clock.advance_us(10);
            {
                let _inner = t.phase("inner");
                clock.advance_us(5);
            }
            clock.advance_us(1);
        }
        clock.advance_us(3);
        let root = t.snapshot().expect("enabled");
        assert_eq!(root.inclusive_us, 35);
        let outer = root.child("outer").expect("outer recorded");
        assert_eq!(outer.count, 2);
        assert_eq!(outer.inclusive_us, 32);
        let inner = outer.child("inner").expect("inner nested");
        assert_eq!(inner.count, 2);
        assert_eq!(inner.inclusive_us, 10);
        assert_eq!(outer.exclusive_us(), 22);
        assert_eq!(root.exclusive_us(), 3);
        assert!(root.is_conserved());
    }

    #[test]
    fn out_of_order_drops_fold_open_children_and_stay_conserved() {
        let (t, clock) = manual();
        let outer = t.phase("outer");
        clock.advance_us(4);
        let inner = t.phase("inner");
        clock.advance_us(6);
        drop(outer); // closes `inner` too
        drop(inner); // stale guard: no-op
        let root = t.snapshot().expect("enabled");
        let outer = root.child("outer").expect("outer recorded");
        assert_eq!(outer.inclusive_us, 10);
        assert_eq!(outer.child("inner").expect("folded in").inclusive_us, 6);
        assert!(root.is_conserved());
    }

    #[test]
    fn snapshot_includes_open_frames_and_is_conserved() {
        let (t, clock) = manual();
        let _outer = t.phase("outer");
        clock.advance_us(7);
        let _inner = t.phase("inner");
        clock.advance_us(2);
        let root = t.snapshot().expect("enabled");
        assert_eq!(root.inclusive_us, 9);
        let outer = root.child("outer").expect("open frame visible");
        assert_eq!(outer.inclusive_us, 9);
        assert_eq!(outer.child("inner").expect("open child").inclusive_us, 2);
        assert!(root.is_conserved());
    }

    #[test]
    fn histograms_flow_through_the_shared_registry() {
        let (t, _clock) = manual();
        let reg = t.registry().expect("enabled");
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for k in 0..8 {
                        reg.observe("store.append_us", (i * 8 + k) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        t.observe_us("verify_us", 3);
        let h = reg.histogram("store.append_us").expect("observed");
        assert_eq!(h.count, 32);
        assert_eq!(reg.histogram("verify_us").expect("observed").count, 1);
    }

    #[test]
    fn manifest_carries_phases_env_and_wall_histograms() {
        let (t, clock) = manual();
        {
            let _g = t.phase("tune");
            clock.advance_us(11);
        }
        t.observe_us("sim.cold_us", 9);
        let m = t
            .manifest(&[("jobs", serde_json::json!(8))], 0xabcd)
            .expect("enabled");
        assert_eq!(m["alt_timing_manifest"], serde_json::json!(1));
        assert_eq!(m["config_fp"], serde_json::json!("000000000000abcd"));
        assert_eq!(m["env"]["jobs"], serde_json::json!(8));
        assert_eq!(m["phases"]["name"], "run");
        assert_eq!(m["phases"]["inclusive_us"].as_u64(), Some(11));
        let tune = &m["phases"]["children"][0];
        assert_eq!(tune["name"], "tune");
        assert_eq!(tune["exclusive_us"].as_u64(), Some(11));
        assert_eq!(m["wall"]["sim.cold_us"]["count"].as_u64(), Some(1));
    }

    #[test]
    fn emit_to_writes_only_the_timing_sink() {
        let (t, clock) = manual();
        {
            let _g = t.phase("tune");
            clock.advance_us(5);
        }
        t.observe_us("lat_us", 5);
        let (sink, mem) = Telemetry::memory();
        t.emit_to(&sink);
        let records = mem.records();
        match &records[0] {
            Record::Timing(rec) => {
                assert_eq!(rec.phases.child("tune").expect("tune").inclusive_us, 5);
                assert!(rec.phases.is_conserved());
            }
            other => panic!("expected timing record first, got {other:?}"),
        }
        // 8 histogram stats for `lat_us` follow.
        assert_eq!(records.len(), 9);
        // Round-trip through the wire format.
        let line = serde_json::to_string(&records[0]).expect("serialize");
        let back: Record = serde_json::from_str(&line).expect("deserialize");
        assert_eq!(back, records[0]);
    }

    #[test]
    fn phase_tree_conservation_proptest() {
        // Deterministic pseudo-random walks over enter/exit/advance ops:
        // conservation and total-time accounting must hold for every
        // interleaving, including walks that leave frames open.
        let mut rng = 0x243f6a8885a308d3u64;
        let mut next = move || {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for _case in 0..64 {
            let (t, clock) = manual();
            let mut guards: Vec<PhaseGuard> = Vec::new();
            let mut advanced = 0u64;
            for _step in 0..200 {
                match next() % 4 {
                    0 | 1 => {
                        let name = format!("p{}", next() % 5);
                        guards.push(t.phase(&name));
                    }
                    2 => {
                        guards.pop();
                    }
                    _ => {
                        let us = next() % 50;
                        clock.advance_us(us);
                        advanced += us;
                    }
                }
                let snap = t.snapshot().expect("enabled");
                assert!(snap.is_conserved(), "mid-walk conservation");
            }
            guards.clear();
            let root = t.snapshot().expect("enabled");
            assert!(root.is_conserved(), "final conservation");
            assert_eq!(root.inclusive_us, advanced, "root covers the whole run");
        }
    }
}
