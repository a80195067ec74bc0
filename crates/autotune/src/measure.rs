//! "On-device" measurement against the hardware model, with the paper's
//! budget accounting (one measurement = one budget unit).
//!
//! `measure_program` is the single point where budget is consumed. It
//! measures and does not observe: each call returns what the attempt
//! produced — latency, simulator counters and the cache probe, or the
//! error — and the tuner turns that into its one candidate event
//! ([`crate::observe`]), from which the trace, journal and progress
//! heartbeat are derived.

use std::collections::HashSet;
use std::sync::Arc;

use alt_error::AltError;
use alt_layout::LayoutPlan;
use alt_loopir::{lower, try_lower_filtered, GraphSchedule, Program};
use alt_sim::{Counters, MachineProfile, SimCache, Simulator};
use alt_telemetry::Timing;
use alt_tensor::{Graph, OpId};

use crate::fault::{Fault, FaultInjector};

/// One successful measurement: what a consumed budget unit produced.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// Measured latency in seconds (injected noise included).
    pub latency_s: f64,
    /// Simulator counters of the measured program.
    pub counters: Counters,
    /// Canonical fingerprint of the measured lowered program.
    pub program_fp: u64,
    /// Memo-cache key (profile fingerprint + program fingerprint).
    pub cache_key: u64,
    /// Whether the memo cache served a repeat of an earlier budgeted
    /// measurement.
    pub hit: bool,
}

/// Measurement driver: lowers programs and queries the performance model,
/// counting every measurement against the search budget.
pub struct Measurer<'g> {
    graph: &'g Graph,
    sim: Simulator,
    /// Memoized simulations keyed by canonical program fingerprint.
    /// Worker threads prewarm it; only `measure_program` reads it with
    /// statistics, so the hit/miss transcript is jobs-invariant.
    cache: Arc<SimCache>,
    /// Wall-clock self-profile (disabled by default). Observation-only:
    /// it has its own sink and registry, so enabling it cannot change
    /// the measurement transcript.
    timing: Timing,
    injector: Option<FaultInjector>,
    /// Budget units consumed so far.
    pub used: u64,
    /// History of (budget used, latency measured) pairs, for efficiency
    /// curves like Fig. 11.
    pub history: Vec<(u64, f64)>,
}

impl<'g> Measurer<'g> {
    /// Creates a measurer for a graph on a machine.
    pub fn new(graph: &'g Graph, profile: MachineProfile) -> Self {
        Self {
            graph,
            sim: Simulator::new(profile),
            cache: Arc::new(SimCache::new(&profile)),
            timing: Timing::disabled(),
            injector: None,
            used: 0,
            history: Vec::new(),
        }
    }

    /// Attaches (or removes) a fault injector. With `None` — the default
    /// — the measurement path is byte-for-byte the reliable one.
    pub fn set_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// Attaches the wall-clock self-profile: `measure_program` opens a
    /// `simulate` phase around each cache probe. Timing writes to its
    /// own sink, so attaching it cannot change the run.
    pub fn set_timing(&mut self, timing: Timing) {
        self.timing = timing;
    }

    /// The underlying simulator (for profiling runs that should not count
    /// against the budget).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The shared measurement memo cache (for worker-thread prewarming).
    pub fn sim_cache(&self) -> &SimCache {
        &self.cache
    }

    /// Attaches the durable result store as the memo cache's warm tier:
    /// stored measurements skip the simulation, fresh ones are published
    /// back. Call before the first measurement (the tuner does this at
    /// construction time) so the store statistics cover the whole run.
    pub fn attach_store(&self, store: Arc<alt_store::Store>) {
        self.cache.attach_store(store);
    }

    /// `(hits, misses)` of the measurement cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// `(hits, misses)` of the durable store so far (zeros when no store
    /// is attached).
    pub fn store_stats(&self) -> (u64, u64) {
        (self.cache.store_hits(), self.cache.store_misses())
    }

    /// Lowers only `op`'s fusion group (plus its conversion groups).
    /// Fallible variant: an invalid candidate reports instead of
    /// panicking, and costs nothing (no budget is consumed).
    pub fn try_lower_op(
        &self,
        plan: &LayoutPlan,
        sched: &GraphSchedule,
        op: OpId,
    ) -> Result<Program, AltError> {
        let mut roots = HashSet::new();
        roots.insert(op);
        try_lower_filtered(self.graph, plan, sched, Some(&roots))
    }

    /// Lowers only `op`'s fusion group (plus its conversion groups).
    pub fn lower_op(&self, plan: &LayoutPlan, sched: &GraphSchedule, op: OpId) -> Program {
        self.try_lower_op(plan, sched, op).expect("lowering failed")
    }

    /// Measures one operator's group; consumes one budget unit.
    pub fn measure_op(
        &mut self,
        plan: &LayoutPlan,
        sched: &GraphSchedule,
        op: OpId,
    ) -> Result<f64, AltError> {
        let mut roots = HashSet::new();
        roots.insert(op);
        self.measure_ops(plan, sched, &roots, "")
            .map(|m| m.latency_s)
    }

    /// Measures the groups rooted at a set of operators; one budget unit.
    /// A candidate that fails to lower still consumes its unit — on real
    /// hardware the compile attempt was paid for — and is returned as an
    /// error rather than a panic. `candidate` labels injected-fault
    /// errors.
    pub fn measure_ops(
        &mut self,
        plan: &LayoutPlan,
        sched: &GraphSchedule,
        roots: &HashSet<OpId>,
        candidate: &str,
    ) -> Result<Measured, AltError> {
        match try_lower_filtered(self.graph, plan, sched, Some(roots)) {
            Ok(program) => self.measure_program(&program, candidate),
            Err(e) => {
                self.used += 1;
                Err(e)
            }
        }
    }

    /// Measures an already-lowered program; consumes one budget unit and
    /// fails when the fault injector strikes or the simulator rejects
    /// the program. The fault draw happens exactly once per call, so the
    /// run depends only on its seed and fault configuration.
    pub fn measure_program(
        &mut self,
        program: &Program,
        candidate: &str,
    ) -> Result<Measured, AltError> {
        self.used += 1;
        let mut noise = 1.0;
        if let Some(inj) = self.injector.as_mut() {
            match inj.draw() {
                Some(Fault::Noise(factor)) => noise = factor,
                // Total mapping: an injector outcome that has no
                // dedicated error (a bug, not a tuning event) degrades
                // into a typed `AltError` instead of aborting the run.
                Some(fault) => return Err(FaultInjector::error_for_total(fault, candidate)),
                None => {}
            }
        }
        // One memoized simulation serves every measurement: a cached
        // `Counters` entry reproduces a cold simulation bit-for-bit, and
        // a hit still consumed this call's budget unit above.
        // The cache probe (memo hit, store serve, or cold simulation) is
        // the unit of `simulate` wall-clock attribution; the memo cache's
        // attached registry breaks the same interval down by path.
        let (counters, hit) = {
            let _simulate = self.timing.phase("simulate");
            self.cache.try_profile(&self.sim, program)?
        };
        let program_fp = alt_loopir::program_fingerprint(program);
        let latency_s = counters.latency_s * noise;
        self.history.push((self.used, latency_s));
        Ok(Measured {
            latency_s,
            counters,
            program_fp,
            cache_key: alt_sim::compose_cache_key(self.cache.profile_fp(), program_fp),
            hit,
        })
    }

    /// Measures the whole graph (does not count against the budget; used
    /// for final reporting).
    pub fn measure_graph_free(&self, plan: &LayoutPlan, sched: &GraphSchedule) -> f64 {
        let program = lower(self.graph, plan, sched);
        self.sim.measure(&program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_layout::PropagationMode;
    use alt_sim::intel_cpu;
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
        let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let _ = ops::relu(&mut g, c);
        g
    }

    fn roots(g: &Graph) -> HashSet<OpId> {
        [g.complex_ops()[0]].into_iter().collect()
    }

    #[test]
    fn budget_accounting_counts_measurements() {
        let g = graph();
        let mut m = Measurer::new(&g, intel_cpu());
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        assert_eq!(m.used, 0);
        let a = m.measure_op(&plan, &sched, op).unwrap();
        let b = m.measure_op(&plan, &sched, op).unwrap();
        assert_eq!(m.used, 2);
        assert_eq!(a, b, "same program must measure identically");
        assert_eq!(m.history.len(), 2);
        // Whole-graph measurement is free (reporting only).
        let full = m.measure_graph_free(&plan, &sched);
        assert_eq!(m.used, 2);
        assert!(full >= a, "graph includes the conv group and more");
    }

    #[test]
    fn repeat_measurements_are_cache_hits_with_identical_accounting() {
        let g = graph();
        let mut m = Measurer::new(&g, intel_cpu());
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let a = m.measure_ops(&plan, &sched, &roots(&g), "c").unwrap();
        let b = m.measure_ops(&plan, &sched, &roots(&g), "c").unwrap();
        assert_eq!(
            a.latency_s.to_bits(),
            b.latency_s.to_bits(),
            "cache must be bit-faithful"
        );
        assert!(!a.hit && b.hit, "second measurement is a hit");
        assert_eq!(a.cache_key, b.cache_key);
        assert_eq!(a.counters.flops.to_bits(), b.counters.flops.to_bits());
        assert!(a.counters.flops > 0.0);
        assert_eq!(m.cache_stats(), (1, 1));
        assert_eq!(m.used, 2, "a hit still consumes its budget unit");
    }

    #[test]
    fn prewarming_changes_no_measurement_and_no_statistic() {
        let g = graph();
        let mut m = Measurer::new(&g, intel_cpu());
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let program = m.lower_op(&plan, &sched, op);
        m.sim_cache().prewarm(m.simulator(), &program);
        assert_eq!(m.cache_stats(), (0, 0), "prewarm is stat-silent");
        // First budgeted measurement of a prewarmed program records the
        // same (miss) transcript an unwarmed run would.
        let lat = m.measure_op(&plan, &sched, op).unwrap();
        assert_eq!(m.cache_stats(), (0, 1));
        assert_eq!(lat.to_bits(), m.simulator().measure(&program).to_bits());
        let again = m.measure_op(&plan, &sched, op).unwrap();
        assert_eq!(m.cache_stats(), (1, 1));
        assert_eq!(lat.to_bits(), again.to_bits());
    }

    #[test]
    fn filtered_lowering_contains_only_requested_group() {
        let g = graph();
        let m = Measurer::new(&g, intel_cpu());
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let program = m.lower_op(&plan, &sched, op);
        assert_eq!(program.groups.len(), 1);
        assert_eq!(program.groups[0].root, op);
    }

    #[test]
    fn injected_faults_consume_budget_and_name_the_candidate() {
        use crate::fault::{FaultConfig, FaultInjector};
        use crate::rng::SharedRng;
        let g = graph();
        let mut m = Measurer::new(&g, intel_cpu());
        // Every measurement fails to compile.
        m.set_injector(Some(FaultInjector::new(
            FaultConfig {
                compile_failure_rate: 1.0,
                timeout_rate: 0.0,
                noise_rate: 0.0,
                noise_min: 1.5,
                noise_max: 4.0,
            },
            SharedRng::seed_from_u64(0),
        )));
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        for _ in 0..3 {
            let err = m
                .measure_ops(&plan, &sched, &roots(&g), "[1, 2]")
                .unwrap_err();
            assert_eq!(err.kind(), "injected_compile");
            assert!(err.is_transient());
            assert!(err.to_string().contains("[1, 2]"), "{err}");
        }
        assert_eq!(m.used, 3, "failures still consume budget");
        assert!(m.history.is_empty(), "failures have no latency");
    }

    #[test]
    fn noise_faults_inflate_latency_deterministically() {
        use crate::fault::{FaultConfig, FaultInjector};
        use crate::rng::SharedRng;
        let g = graph();
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let noisy_cfg = FaultConfig {
            compile_failure_rate: 0.0,
            timeout_rate: 0.0,
            noise_rate: 1.0,
            noise_min: 2.0,
            noise_max: 3.0,
        };
        let mut clean = Measurer::new(&g, intel_cpu());
        let true_lat = clean.measure_op(&plan, &sched, op).unwrap();
        let noisy = || {
            let mut m = Measurer::new(&g, intel_cpu());
            m.set_injector(Some(FaultInjector::new(
                noisy_cfg.clone(),
                SharedRng::seed_from_u64(11),
            )));
            m.measure_op(&plan, &sched, op).unwrap()
        };
        let (a, b) = (noisy(), noisy());
        assert_eq!(a, b, "same seed, same noise");
        assert!(
            a > true_lat * 1.5,
            "outlier must inflate: {a} vs {true_lat}"
        );
    }
}
