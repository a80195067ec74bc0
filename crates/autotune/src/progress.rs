//! Live tuning progress: a throttled stderr heartbeat.
//!
//! The heartbeat is strictly observational — one of the projections of
//! the tuner's candidate events (`crate::observe`): it reads the budget
//! counter and cache/store statistics the events carry, draws nothing
//! from the RNG, and writes only to stderr (never to the trace, journal
//! or timing sinks), so `--progress` cannot change a run.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Minimum wall-clock seconds between heartbeat lines.
const DEFAULT_INTERVAL_S: f64 = 1.0;

/// Width of the recent-rate window, in seconds. The candidate rate (and
/// hence the ETA) extrapolates from ticks inside this window rather than
/// the whole-run average: a warm store serving the first N candidates
/// instantly would otherwise inflate the average and make the ETA for
/// the remaining cold candidates wildly optimistic until the very end.
const RATE_WINDOW_S: f64 = 5.0;

/// A throttled stderr progress reporter. The run's observer builds one
/// only when `--progress` asked for it.
pub struct Progress {
    /// Total budget (joint + loop), for the fraction and the ETA.
    total: u64,
    t0: Instant,
    min_interval_s: f64,
    /// Mutex, not atomic: ticks are rare and the lock also serializes
    /// the stderr writes of concurrent measurers.
    state: Mutex<ProgressState>,
}

#[derive(Default)]
struct ProgressState {
    /// Elapsed seconds at the last printed line (`None` before the
    /// first).
    last_print_s: Option<f64>,
    /// Recent `(elapsed_s, used)` tick samples, oldest first, trimmed to
    /// [`RATE_WINDOW_S`].
    samples: VecDeque<(f64, u64)>,
}

impl Progress {
    /// A reporter for a run of `total` budget units, printing at most
    /// once a second.
    pub fn new(total: u64) -> Self {
        Self::with_interval(total, DEFAULT_INTERVAL_S)
    }

    /// A reporter with a custom throttle interval (tests use `0.0` to
    /// capture every tick).
    pub fn with_interval(total: u64, min_interval_s: f64) -> Self {
        Self {
            total,
            t0: Instant::now(),
            min_interval_s,
            state: Mutex::new(ProgressState::default()),
        }
    }

    /// Reports one consumed budget unit. Prints a heartbeat line to
    /// stderr when at least the throttle interval has passed since the
    /// last one (the first tick always prints).
    pub fn tick(&self, used: u64, cache: (u64, u64), store: (u64, u64)) {
        let elapsed = self.t0.elapsed().as_secs_f64();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.samples.push_back((elapsed, used));
        trim_window(&mut state.samples, elapsed);
        if let Some(prev) = state.last_print_s {
            if elapsed - prev < self.min_interval_s {
                return;
            }
        }
        state.last_print_s = Some(elapsed);
        // Recent-window rate when the window spans enough ticks; the
        // whole-run average only as a fallback for the first ticks.
        let samples: Vec<(f64, u64)> = state.samples.iter().copied().collect();
        let rate = window_rate(&samples).unwrap_or(if elapsed > 0.0 {
            used as f64 / elapsed
        } else {
            0.0
        });
        eprintln!("{}", line(used, self.total, rate, cache, store));
    }
}

/// Drops samples that fell out of the rate window, always retaining the
/// two most recent ones so a rate exists even when every candidate takes
/// longer than the window.
fn trim_window(samples: &mut VecDeque<(f64, u64)>, now: f64) {
    while samples.len() > 2 {
        match samples.front() {
            Some(&(t, _)) if t < now - RATE_WINDOW_S => {
                samples.pop_front();
            }
            _ => break,
        }
    }
}

/// Candidate rate over a span of `(elapsed_s, used)` tick samples:
/// consumed units between the oldest and newest sample divided by the
/// wall time between them. `None` when the span is degenerate (fewer
/// than two samples, or no time/progress between them).
pub fn window_rate(samples: &[(f64, u64)]) -> Option<f64> {
    let (t0, u0) = *samples.first()?;
    let (t1, u1) = *samples.last()?;
    if t1 > t0 && u1 > u0 {
        Some((u1 - u0) as f64 / (t1 - t0))
    } else {
        None
    }
}

/// Formats one heartbeat line (pure; the testable core of [`Progress`]).
///
/// `progress: 37/1000 (3.7%) | 123.4 cand/s | cache 45.0% | store 10.0% | eta 7.8s`
///
/// `rate` is the recent-window candidate rate ([`window_rate`]); the
/// store segment reads `store -` when no store has served anything, and
/// the ETA reads `eta -` until a rate exists to extrapolate from.
pub fn line(used: u64, total: u64, rate: f64, cache: (u64, u64), store: (u64, u64)) -> String {
    let pct = if total > 0 {
        used as f64 / total as f64 * 100.0
    } else {
        100.0
    };
    let cache_part = match cache.0 + cache.1 {
        0 => "cache -".to_string(),
        n => format!("cache {:.1}%", cache.0 as f64 / n as f64 * 100.0),
    };
    let store_part = match store.0 + store.1 {
        0 => "store -".to_string(),
        n => format!("store {:.1}%", store.0 as f64 / n as f64 * 100.0),
    };
    let eta_part = if total <= used {
        "eta 0.0s".to_string()
    } else if rate > 0.0 {
        format!("eta {:.1}s", (total - used) as f64 / rate)
    } else {
        "eta -".to_string()
    };
    format!(
        "progress: {used}/{total} ({pct:.1}%) | {rate:.1} cand/s | {cache_part} | {store_part} | {eta_part}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_formats_every_segment() {
        let s = line(37, 1000, 18.5, (45, 55), (10, 90));
        assert_eq!(
            s,
            "progress: 37/1000 (3.7%) | 18.5 cand/s | cache 45.0% | store 10.0% | eta 52.1s"
        );
    }

    #[test]
    fn empty_statistics_render_as_dashes() {
        let s = line(0, 100, 0.0, (0, 0), (0, 0));
        assert!(s.contains("cache -"), "{s}");
        assert!(s.contains("store -"), "{s}");
        assert!(s.contains("eta -"), "{s}");
    }

    #[test]
    fn finished_run_reports_zero_eta() {
        let s = line(100, 100, 20.0, (50, 50), (0, 0));
        assert!(s.contains("(100.0%)"), "{s}");
        assert!(s.contains("eta 0.0s"), "{s}");
    }

    #[test]
    fn throttle_suppresses_rapid_ticks() {
        // With a huge interval only the first tick prints; the test
        // observes the throttle state rather than capturing stderr.
        let p = Progress::with_interval(10, 1e9);
        p.tick(1, (0, 0), (0, 0));
        let first = p
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .last_print_s
            .expect("first tick prints");
        p.tick(2, (0, 0), (0, 0));
        let second = p
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .last_print_s
            .expect("state survives");
        assert_eq!(first.to_bits(), second.to_bits(), "second tick throttled");
    }

    #[test]
    fn window_rate_needs_a_real_span() {
        assert_eq!(window_rate(&[]), None);
        assert_eq!(window_rate(&[(1.0, 5)]), None);
        // No time between samples (instant warm burst): no rate.
        assert_eq!(window_rate(&[(1.0, 5), (1.0, 50)]), None);
        assert_eq!(window_rate(&[(0.0, 0), (2.0, 10)]), Some(5.0));
    }

    #[test]
    fn trim_drops_stale_samples_but_keeps_two() {
        let mut q: VecDeque<(f64, u64)> = [(0.0, 0), (0.1, 50), (6.0, 51), (7.0, 52)]
            .into_iter()
            .collect();
        trim_window(&mut q, 7.0);
        assert_eq!(Vec::from(q.clone()), vec![(6.0, 51), (7.0, 52)]);
        // Slow candidates (every tick older than the window): the two
        // newest samples survive so a rate always exists.
        let mut q: VecDeque<(f64, u64)> = [(0.0, 0), (30.0, 1), (60.0, 2)].into_iter().collect();
        trim_window(&mut q, 60.0);
        assert_eq!(Vec::from(q), vec![(30.0, 1), (60.0, 2)]);
    }

    #[test]
    fn warm_start_burst_does_not_deflate_the_cold_eta() {
        // Regression (warm-store ETA): a warm store serves the first 50
        // of 100 candidates in 0.1s, then cold candidates land once per
        // second. At t = 8s the whole-run average (58 used / 8s =
        // 7.25 cand/s) would promise the 42 remaining candidates in
        // ~5.8s; they actually need ~42s.
        let mut q: VecDeque<(f64, u64)> = VecDeque::new();
        q.push_back((0.0, 0));
        q.push_back((0.1, 50)); // warm burst
        for k in 1..=8u64 {
            q.push_back((0.1 + k as f64, 50 + k));
            trim_window(&mut q, 0.1 + k as f64);
        }
        let samples: Vec<(f64, u64)> = q.iter().copied().collect();
        let rate = window_rate(&samples).expect("rate exists");
        // The burst has aged out of the 5s window: only the ~1 cand/s
        // cold rate remains.
        assert!((0.8..=1.2).contains(&rate), "window rate {rate}");
        let eta = (100 - 58) as f64 / rate;
        assert!((35.0..=55.0).contains(&eta), "eta {eta}");
        // The whole-run average would have been wildly optimistic.
        let avg = 58.0 / 8.1;
        assert!((100 - 58) as f64 / avg < 7.0, "average eta not optimistic?");
        // And the rendered line carries the honest figure.
        let s = line(58, 100, rate, (0, 0), (50, 8));
        assert!(s.contains("eta 4") || s.contains("eta 5"), "{s}");
    }
}
