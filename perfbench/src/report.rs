//! Operation accounting, correctness checks and the printed result.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::anchor::{HostSpeed, NOMINAL_GFLOPS};
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};

/// The named checks one operation ran.
#[derive(Default)]
pub struct Checks {
    results: Vec<(&'static str, bool)>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.results.push((name, ok));
    }
}

/// Everything one run measured: operations attempted and failed, check
/// tallies, and metric values with their sample counts.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    /// Check name -> (passed, run).
    checks: BTreeMap<&'static str, (u64, u64)>,
    /// Metric name -> (value, samples).
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Wall-time samples of end-to-end metrics, reported at the nominal
    /// host speed by the run's host probes.
    walls: BTreeMap<&'static str, Vec<f64>>,
    host: HostSpeed,
    /// Extra human-readable lines (tail percentiles, reconciliation).
    notes: Vec<String>,
}

impl Report {
    /// Runs one operation. A panic, or any failed check, makes it a
    /// failed operation; a panic also yields `None`.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Checks) -> T) -> Option<T> {
        self.attempted += 1;
        let mut checks = Checks::default();
        let out = catch_unwind(AssertUnwindSafe(|| f(&mut checks))).ok();
        checks.results.push((name, out.is_some()));
        let mut ok = true;
        for (check, passed) in checks.results {
            let tally = self.checks.entry(check).or_default();
            tally.0 += u64::from(passed);
            tally.1 += 1;
            ok &= passed;
        }
        self.failed += u64::from(!ok);
        out
    }

    /// Probes the host's speed; call between timed operations, all
    /// through the run.
    pub fn probe_host(&mut self) {
        self.host.probe(2);
    }

    /// Median anchor GFLOP/s over the run's host probes.
    pub fn host_gflops(&self) -> f64 {
        self.host.gflops()
    }

    /// Sets a wall-time metric to the median of `samples`, reported at
    /// the nominal host speed once the run's probes are all in.
    pub fn wall(&mut self, name: &'static str, samples: &[f64]) {
        self.walls.insert(name, samples.to_vec());
    }

    /// Sets a metric to the median of `samples`.
    pub fn median(&mut self, name: &'static str, samples: &[f64]) {
        self.values.insert(name, (median(samples), samples.len()));
    }

    /// Sets a metric from one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, 1));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints the human-readable table and, as the last line, the JSON
    /// result with exactly the metrics the trace mode owes.
    pub fn print(&self, header: &str, traced: bool) {
        let names: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        println!("{header}");
        let mut values = self.values.clone();
        let gflops = self.host.gflops();
        println!(
            "  host anchor {gflops:.2} GFLOP/s per CPU (median of {} probes, nominal \
             {NOMINAL_GFLOPS}); wall medians:",
            self.host.probes()
        );
        for (&name, samples) in &self.walls {
            let wall = median(samples);
            println!("  {name:<34} {wall:>16.6} s wall");
            values.insert(name, (wall * gflops / NOMINAL_GFLOPS, samples.len()));
        }
        let mut metrics = serde_json::Map::new();
        let mut missing = Vec::new();
        for name in names {
            let unit = unit_of(name).expect("metric is in a table");
            let (value, n) = match values.get(name) {
                Some(&(v, n)) if v.is_finite() => (v, n),
                _ => {
                    missing.push(name);
                    (0.0, 0)
                }
            };
            println!("  {name:<34} {value:>16.6} {unit:<8} n={n}");
            metrics.insert(
                name.to_string(),
                serde_json::json!({ "value": value, "unit": unit }),
            );
        }
        for line in &self.notes {
            println!("  {line}");
        }
        for (check, (passed, run)) in &self.checks {
            println!("  check {check:<32} {passed}/{run}");
        }
        let failed = self.failed + missing.len() as u64;
        let attempted = self.attempted.max(1);
        if !missing.is_empty() {
            println!("  MISSING metrics: {}", missing.join(", "));
        }
        println!(
            "  fail_frac {failed}/{attempted} = {:.4}",
            failed as f64 / attempted as f64
        );
        let result = serde_json::json!({
            "correct": self.correct() && missing.is_empty(),
            "attempted": attempted,
            "failed": failed,
            "metrics": serde_json::Value::Object(metrics),
        });
        println!(
            "{}",
            serde_json::to_string(&result).expect("result serializes")
        );
    }
}

/// Median of the samples (mean of the middle two for an even count);
/// NaN when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` below eleven samples.
pub fn tail(samples: &[f64]) -> Option<(usize, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100 * (n - 10) / n, v[n - 11]))
}
