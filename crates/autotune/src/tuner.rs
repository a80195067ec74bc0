//! The ALT joint tuner (paper §5).
//!
//! Tuning runs in two stages:
//!
//! 1. **Joint stage** — for each complex operator (topological order), a
//!    layout PPO actor proposes template split factors; each proposed
//!    layout is assessed by several rounds of loop tuning (the
//!    cross-exploration architecture of Fig. 8) and the best loop latency
//!    is fed back as the layout's reward. The winning layouts are
//!    committed to the layout plan and propagated (§4.2).
//! 2. **Loop-only stage** — with layouts frozen (so loop spaces stop
//!    being reconstructed), the remaining budget keeps refining loop
//!    schedules round-robin across operators.
//!
//! Candidate points are generated in batches, ranked by the GBT cost
//! model, and only the predicted top-k are measured — one measurement
//! consumes one unit of the search budget, exactly the paper's
//! accounting.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use alt_journal::{finite, outcome, provenance, JournalHeader, JournalSummary, JOURNAL_VERSION};
use alt_layout::{presets, Layout, LayoutPlan, PropagationMode};
use alt_loopir::{try_lower_filtered, GraphSchedule, OpSchedule};
use alt_sim::MachineProfile;
use alt_telemetry::{CostModelRecord, CounterRegistry, PpoUpdateRecord, Record, Span, Stage};
use alt_tensor::{Graph, OpId, OpTag};

use crate::checkpoint::{
    graph_signature, BestPointSnap, CommitSnap, LoopStateSnap, SchedSnap, TunerCheckpoint,
    CHECKPOINT_VERSION,
};
use crate::fault::{FaultConfig, FaultInjector};
use crate::features::extract_features;
use crate::gbt::{GbtModel, GbtParams};
use crate::measure::Measurer;
use crate::observe::{Attempt, Candidate, CandidateEvent, Fate, Observer, RunObserver};
use crate::parallel::ordered_map;
use crate::ppo::{pad_obs, CriticState, PpoAgent, PpoWeights, SharedCritic};
use crate::rng::SharedRng;
use crate::space::{
    apply_layout_decision, build_layout_template_ex, decode_layout_point, decode_loop_point, Point,
};

/// How the joint stage picks layout candidates (Fig. 11's comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutSearch {
    /// PPO actor (optionally pretrained).
    Ppo,
    /// Uniform random sampling.
    Random,
}

/// A fixed layout family applied when layout tuning is disabled
/// (baselines and the ALT-OL ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixedLayout {
    /// Leave every tensor in its logical (NCHW-style) layout.
    Identity,
    /// Channels-last (`NHWO`/`NDHWO`/`NWO`), the ALT-OL setting.
    ChannelsLast,
    /// NeoCPU-style `N C/ct ... ct` with a fixed `ct` (AutoTVM/Ansor
    /// setting after integrating NeoCPU).
    ChannelTiled(i64),
}

/// Tuner configuration.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Budget (measurements) for the joint stage.
    pub joint_budget: u64,
    /// Budget for the loop-only stage.
    pub loop_budget: u64,
    /// Candidate batch size per round.
    pub batch: usize,
    /// Measured candidates per round (top-k by cost model).
    pub topk: usize,
    /// Rounds of loop tuning used to assess one layout candidate.
    pub rounds_per_layout: usize,
    /// Layout template tiling levels (1 or 2, Fig. 13).
    pub levels: u8,
    /// Loop-space spatial tiling levels (1 or 2).
    pub loop_levels: u8,
    /// Append the advanced `xform` knob (XOR swizzle, block-diagonal
    /// remap, Morton interleave) to every layout template. Off by
    /// default: the extra knob multiplies the pruned template spaces and
    /// changes seeded-run trajectories, so it is strictly opt-in
    /// (`altc tune --advanced-layouts`).
    pub advanced_layouts: bool,
    /// Layout propagation mode (Full / WithoutFusionAlign / None).
    pub mode: PropagationMode,
    /// Treat graph inputs as free to re-layout (single-operator
    /// benchmarks).
    pub free_input_layouts: bool,
    /// RNG seed.
    pub seed: u64,
    /// Pretrained PPO weights (Fig. 11's PPO-Pret).
    pub pretrained: Option<PpoWeights>,
    /// Layout candidate generator.
    pub layout_search: LayoutSearch,
    /// Disable the joint stage entirely and use this fixed layout
    /// (ALT-OL and baseline tuners).
    pub fixed_layout: Option<FixedLayout>,
    /// Visit well-known template points (channels-last, NeoCPU tiling,
    /// NCHW) before exploring. On by default; the search-method study
    /// (Fig. 11) disables it to compare raw explorers.
    pub seed_candidates: bool,
    /// Fault injection for the measurement path (`None` = perfectly
    /// reliable). Faults draw from the tuner's own seeded stream, so a
    /// run is reproduced by its seed and fault configuration.
    pub faults: Option<FaultConfig>,
    /// Retries after a transient measurement failure (injected compile
    /// failure or timeout). Every retry consumes one budget unit, like
    /// a re-measurement on real hardware would.
    pub max_retries: u64,
    /// Times a candidate may exhaust its retries before it is
    /// quarantined and never proposed again.
    pub quarantine_threshold: u64,
    /// Write checkpoints to this JSON file at cut points.
    pub checkpoint_path: Option<String>,
    /// Checkpoint every N consumed budget units (0 disables periodic
    /// checkpointing; a final checkpoint is still written on halt).
    pub checkpoint_every: u64,
    /// Resume from a previously written checkpoint: the run continues
    /// from the exact budget unit the checkpoint was taken at.
    pub resume: Option<TunerCheckpoint>,
    /// Stop at the first cut point at/after this many consumed units,
    /// writing a checkpoint first (simulates a killed run; tests).
    pub halt_after: Option<u64>,
    /// Worker threads for candidate lowering/simulation (`--jobs` on
    /// `altc`). Workers only do pure work — lowering, feature
    /// extraction, and prewarming the measurement cache — while all RNG
    /// draws, fault injection, accounting and telemetry stay on the
    /// tuning thread, so any `jobs` value produces a bit-identical run;
    /// `1` (the default) keeps everything inline. Clamped to the
    /// machine's available parallelism at run time (the clamp cannot
    /// change results, only wall-clock).
    pub jobs: usize,
    /// Run the static verifier (`alt-verify`) on every lowered candidate
    /// before it can be scored or measured. Statically-rejected
    /// candidates consume *no* budget — they are dropped exactly like
    /// candidates that fail to lower — and are reported through the
    /// `verify.rejected` counter plus one `verify_rejection` trace
    /// record each. On by default.
    pub verify: bool,
    /// Durable cross-run result store (`altc --store`). When attached,
    /// measurements are served from / published into the store through
    /// the memo cache, and a completed run's winner is stored under its
    /// task fingerprint; a later identical task short-circuits the whole
    /// search by replaying the stored winner. Attaching a store never
    /// changes *what* a run computes — winners, transcripts and budgets
    /// stay bit-identical to store-less runs — only how much simulation
    /// work it takes to get there.
    pub store: Option<std::sync::Arc<alt_store::Store>>,
    /// Where the run's observations go: trace, journal, wall-clock
    /// timing and progress heartbeat, all off by default. The tuner
    /// hands it one event per candidate outcome, layout visit and layout
    /// commit, and it derives every stream from those events. With
    /// timing on, the tuner also opens phases (`joint_stage`,
    /// `loop_stage`, `candidate_gen`, `lower`, `gbt_score`, `prewarm`,
    /// `measure`, `simulate`, `retry`, `checkpoint`) on the accounting
    /// thread and attaches the timing registry to the memo cache and
    /// store. Observation never draws from the RNG or consumes budget,
    /// so it cannot change a run.
    pub observer: Observer,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            joint_budget: 300,
            loop_budget: 700,
            batch: 128,
            topk: 8,
            rounds_per_layout: 1,
            levels: 1,
            loop_levels: 1,
            advanced_layouts: false,
            mode: PropagationMode::Full,
            free_input_layouts: false,
            seed: 0,
            pretrained: None,
            layout_search: LayoutSearch::Ppo,
            fixed_layout: None,
            seed_candidates: true,
            faults: None,
            max_retries: 2,
            quarantine_threshold: 2,
            checkpoint_path: None,
            checkpoint_every: 0,
            resume: None,
            halt_after: None,
            jobs: 1,
            verify: true,
            store: None,
            observer: Observer::default(),
        }
    }
}

/// Tuning outcome.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// Final layout plan.
    pub plan: LayoutPlan,
    /// Final schedules.
    pub sched: GraphSchedule,
    /// End-to-end latency of the tuned graph (seconds).
    pub latency: f64,
    /// (budget used, measured latency) history.
    pub history: Vec<(u64, f64)>,
    /// Total measurements consumed.
    pub measurements: u64,
    /// Measurement-cache hits (budgeted measurements served from the
    /// memoized simulation table).
    pub cache_hits: u64,
    /// Measurement-cache misses (budgeted measurements that ran the
    /// full performance model).
    pub cache_misses: u64,
    /// Accounted measurements served from the durable store (0 without a
    /// store).
    pub store_hits: u64,
    /// Accounted measurements the durable store lacked; each was
    /// simulated and published back (0 without a store).
    pub store_misses: u64,
    /// Whether the whole search was short-circuited by a stored winner
    /// (in which case `measurements == 0` and `history` is empty).
    pub warm_start: bool,
}

impl TuneResult {
    /// Serializes a machine-readable tuning log: per-tensor layouts, the
    /// best-so-far curve, and budget accounting. Useful for dashboards
    /// and for comparing tuning runs (the paper reports four months of
    /// production deployment; logs are how such deployments are
    /// monitored).
    pub fn to_log(&self, graph: &Graph) -> serde_json::Value {
        let layouts: Vec<serde_json::Value> = graph
            .tensors()
            .iter()
            .enumerate()
            .filter_map(|(k, info)| {
                let id = alt_tensor::TensorId(k);
                let l = self.plan.layout_of(graph, id);
                if l.is_identity() {
                    None
                } else {
                    Some(serde_json::json!({
                        "tensor": info.name,
                        "layout": l.to_string(),
                        "physical_shape": l.physical_shape().dims(),
                    }))
                }
            })
            .collect();
        let mut best = f64::INFINITY;
        let curve: Vec<(u64, f64)> = self
            .history
            .iter()
            .map(|&(b, l)| {
                best = best.min(l);
                (b, best)
            })
            .collect();
        serde_json::json!({
            "latency_s": self.latency,
            "measurements": self.measurements,
            "layouts": layouts,
            "conversions": self.plan.conversions().len(),
            "best_so_far": curve,
        })
    }
}

/// Per-operator loop-tuning state that survives layout changes (the cost
/// model transfers across reconstructed spaces; the best point does not).
struct LoopTuneState {
    dataset_x: Vec<Vec<f32>>,
    dataset_y: Vec<f32>,
    model: GbtModel,
    /// Loop-tuning rounds executed for this op (trace labelling).
    rounds: u64,
    /// Dataset size the current model was trained on.
    trained_on: u64,
}

impl LoopTuneState {
    fn new() -> Self {
        Self {
            dataset_x: Vec::new(),
            dataset_y: Vec::new(),
            model: GbtModel::default(),
            rounds: 0,
            trained_on: 0,
        }
    }

    fn record(&mut self, feats: Vec<f32>, latency: f64) {
        self.dataset_x.push(feats);
        self.dataset_y.push(-(latency.max(1e-12).ln() as f32));
    }

    fn retrain(&mut self) {
        if self.dataset_x.len() >= 16 {
            self.model = GbtModel::fit(&self.dataset_x, &self.dataset_y, GbtParams::default());
            self.trained_on = self.dataset_x.len() as u64;
        }
    }
}

/// The tuner.
pub struct Tuner<'g> {
    graph: &'g Graph,
    /// The run's configuration. Its `observer` is moved into `obs` at
    /// construction and left at its (all-off) default here.
    cfg: TuneConfig,
    measurer: Measurer<'g>,
    rng: SharedRng,
    loop_state: HashMap<OpId, LoopTuneState>,
    /// Best loop point per op for the *current* layout of that op.
    best_points: HashMap<OpId, (Point, f64)>,
    /// Candidate keys (`op:point`) banned after repeated failures.
    quarantine: HashSet<String>,
    /// Give-up count per candidate key (feeds the quarantine).
    fail_counts: HashMap<String, u64>,
    /// Run-level robustness counters (retries, quarantined, failures.*).
    registry: CounterRegistry,
    /// Committed joint-stage layout decisions, for checkpoint replay.
    committed: Vec<CommitSnap>,
    /// Budget counter value at the last checkpoint write.
    last_checkpoint: u64,
    /// The run's observer: every trace, journal and heartbeat output is
    /// derived from the events handed to it.
    obs: RunObserver,
    /// Stage currently spending the budget.
    stage: Stage,
    /// Best latency measured so far per op tag (checkpointed, in key
    /// order; the trace's `best_so_far_s`).
    best_by_op: BTreeMap<String, f64>,
}

impl<'g> Tuner<'g> {
    /// Creates a tuner.
    pub fn new(graph: &'g Graph, profile: MachineProfile, mut cfg: TuneConfig) -> Self {
        let mut measurer = Measurer::new(graph, profile);
        // One stream for search and faults: the injector interleaves its
        // draws with the tuner's, so "same seed, same fault config" means
        // the same run. With zero fault rate no injector is attached and
        // the measurement path is exactly the reliable one.
        let rng = SharedRng::seed_from_u64(cfg.seed);
        if let Some(fc) = &cfg.faults {
            if fc.total_rate() > 0.0 {
                measurer.set_injector(Some(FaultInjector::new(fc.clone(), rng.clone())));
            }
        }
        // The durable store becomes the memo cache's warm tier before
        // any measurement runs, so the store statistics cover the run.
        if let Some(store) = &cfg.store {
            measurer.attach_store(store.clone());
        }
        // Wall-clock timing: the handle's registry becomes the latency
        // sink of the memo cache (`memo.*_us`) and the store
        // (`store.*_us`), and the measurer opens a `simulate` phase per
        // cache probe. All of it is observation-only.
        if let Some(reg) = cfg.observer.timing.registry() {
            measurer.sim_cache().attach_registry(reg.clone());
            if let Some(store) = &cfg.store {
                store.attach_registry(reg);
            }
            measurer.set_timing(cfg.observer.timing.clone());
        }
        let obs = RunObserver::new(
            std::mem::take(&mut cfg.observer),
            cfg.joint_budget + cfg.loop_budget,
        );
        Self {
            graph,
            cfg,
            measurer,
            rng,
            loop_state: HashMap::new(),
            best_points: HashMap::new(),
            quarantine: HashSet::new(),
            fail_counts: HashMap::new(),
            registry: CounterRegistry::new("tuner"),
            committed: Vec::new(),
            last_checkpoint: 0,
            obs,
            stage: Stage::Joint,
            best_by_op: BTreeMap::new(),
        }
    }

    /// Runs the full two-stage tuning and returns the result.
    pub fn tune(mut self) -> TuneResult {
        let mut plan = LayoutPlan::new(self.cfg.mode);
        let mut sched = base_schedule(self.graph);

        if let Some(fixed) = self.cfg.fixed_layout {
            apply_fixed_layout(self.graph, &mut plan, fixed, self.cfg.free_input_layouts);
        }

        // Task extraction: operators with identical signatures (kind +
        // shapes) share one tuning task, exactly like Ansor's task
        // deduplication — ResNet's repeated blocks and BERT's identical
        // layers are tuned once and the result is replicated.
        let complex = self.graph.complex_ops();
        let mut reps: Vec<OpId> = Vec::new();
        let mut clones_of: HashMap<OpId, Vec<OpId>> = HashMap::new();
        {
            let mut by_sig: HashMap<String, OpId> = HashMap::new();
            for &op in &complex {
                let sig = op_signature(self.graph, op);
                match by_sig.get(&sig) {
                    Some(&rep) => clones_of.entry(rep).or_default().push(op),
                    None => {
                        by_sig.insert(sig, op);
                        reps.push(op);
                        clones_of.entry(op).or_default();
                    }
                }
            }
        }
        let shares = budget_shares(self.graph, &reps);

        let telemetry = self.obs.trace().clone();
        let joint_ran = self.cfg.fixed_layout.is_none() && self.cfg.joint_budget > 0;

        // ---- Warm start ----
        // With a store attached, a completed identical task (same graph,
        // machine and result-relevant configuration) short-circuits the
        // whole search: the stored winner's decisions are replayed —
        // template rebuild, point decode, plan application — exactly
        // like a checkpoint restore, consuming zero budget. Resumed runs
        // never warm-start: they continue their own transcript.
        let task_fp = crate::winner::task_fingerprint(
            self.graph,
            self.measurer.sim_cache().profile_fp(),
            &self.cfg,
        );
        if let (Some(store), Some(fp)) = (self.cfg.store.clone(), task_fp) {
            if self.cfg.resume.is_none() && self.cfg.halt_after.is_none() {
                let winner = store.get(alt_store::kind::WINNER, fp).and_then(|payload| {
                    crate::winner::decode_winner(&payload, fp, &graph_signature(self.graph))
                });
                if let Some(w) = winner {
                    return self.replay_winner(&w, plan, sched, &clones_of);
                }
            }
        }

        // ---- Resume ----
        // A checkpoint cuts at a joint-stage op boundary or a loop-stage
        // iteration. Restoring replays the committed layout decisions
        // (deterministic), restores flat state (schedules, datasets, RNG
        // words, budget counter) and then falls through into the normal
        // stage loops at the recorded cursor.
        let mut start_rep = 0usize;
        let mut start_loop_iter = 0u64;
        let mut joint_start = 0u64;
        let mut skip_joint = false;
        let mut critic_state: Option<CriticState> = None;
        let resumed = self.cfg.resume.is_some();
        if let Some(ck) = self.cfg.resume.take() {
            ck.validate(self.graph, self.cfg.seed)
                .expect("checkpoint does not match this run");
            self.restore_from(&ck, &mut plan, &mut sched, &clones_of);
            critic_state = ck.critic;
            joint_start = ck.joint_start;
            if ck.phase == "joint" {
                start_rep = ck.next_rep as usize;
            } else {
                skip_joint = true;
                start_loop_iter = ck.loop_iter;
            }
        }

        // The header is written once per journal: a resumed run appends
        // to the journal its interrupted predecessor started, which
        // already begins with this exact header.
        if !resumed {
            self.obs.start(self.journal_header());
        }

        // ---- Joint stage (Fig. 8) ----
        // Budget accounting is strict: the joint stage never spends more
        // than `joint_budget` in total (per-op shares are capped by what
        // is left), and anything it under-spends is handed to the
        // loop-only stage, so a run with at least one complex operator
        // consumes exactly `joint_budget + loop_budget` measurements.
        let mut halted = false;
        if joint_ran && !reps.is_empty() && !skip_joint {
            let _span = Span::enter(&telemetry, "joint_stage");
            let _timing = self.obs.timing().phase("joint_stage");
            self.stage = Stage::Joint;
            if start_rep == 0 {
                joint_start = self.measurer.used;
            }
            let critic = match (&critic_state, &self.cfg.pretrained) {
                (Some(cs), _) => SharedCritic::from_state(cs),
                (None, Some(w)) => SharedCritic::from_weights(w),
                (None, None) => SharedCritic::new(self.cfg.seed ^ 0x9e37),
            };
            for i in start_rep..reps.len() {
                let op = reps[i];
                if self.checkpoint_cut("joint", i as u64, 0, joint_start, &sched, Some(&critic)) {
                    halted = true;
                    break;
                }
                let joint_left = self
                    .cfg
                    .joint_budget
                    .saturating_sub(self.measurer.used - joint_start);
                if joint_left == 0 {
                    break;
                }
                let op_budget =
                    ((self.cfg.joint_budget as f64 * shares[i]).ceil() as u64).min(joint_left);
                let agent = match &self.cfg.pretrained {
                    Some(w) => PpoAgent::from_weights(w, critic.clone(), self.cfg.seed + i as u64),
                    None => PpoAgent::new(critic.clone(), self.cfg.seed + i as u64),
                };
                let best = self.joint_tune_op(op, op_budget, agent, &mut plan, &mut sched);
                // Replicate the winning layout and schedule to the task's
                // clones.
                if let Some((point, lsched)) = best {
                    self.committed.push(CommitSnap {
                        op: op.0,
                        point: point.clone(),
                    });
                    for &clone in &clones_of[&op] {
                        if self.apply_layout_point(&mut plan, clone, &point) {
                            sched.set(clone, lsched.clone());
                        }
                    }
                }
            }
        }

        // ---- Loop-only stage ----
        // Tops the total up to exactly `joint_budget + loop_budget`
        // (or just `loop_budget` when the joint stage was disabled).
        let target = if joint_ran { self.cfg.joint_budget } else { 0 } + self.cfg.loop_budget;
        if !halted && !reps.is_empty() && self.measurer.used < target {
            let _span = Span::enter(&telemetry, "loop_stage");
            let _timing = self.obs.timing().phase("loop_stage");
            self.stage = Stage::Loop;
            let mut i = start_loop_iter;
            while self.measurer.used < target {
                if self.checkpoint_cut("loop", 0, i, joint_start, &sched, None) {
                    halted = true;
                    break;
                }
                let op = reps[i as usize % reps.len()];
                let remaining = target - self.measurer.used;
                self.loop_tune_rounds(op, &plan, &mut sched, 1, remaining);
                for &clone in &clones_of[&op] {
                    sched.set(clone, sched.get(op));
                }
                i += 1;
                if i > 100_000 {
                    break;
                }
            }
        }

        // Graceful degradation: whatever faults or halts happened above,
        // the run always completes with the best healthy plan/schedule
        // found so far (worst case: the base schedule).
        let latency = self.measurer.measure_graph_free(&plan, &sched);
        // A halted run writes no summary — its resumed successor will,
        // so the halted and resumed journals concatenate into exactly
        // the journal an uninterrupted run would have written.
        let has_store = self.cfg.store.is_some();
        let (sh, sm) = self.measurer.store_stats();
        let summary = (!halted).then_some(JournalSummary {
            measurements: self.measurer.used,
            best_latency_s: finite(latency),
            store_hits: has_store.then_some(sh),
            store_misses: has_store.then_some(sm),
            warm_start: has_store.then_some(false),
        });
        if !halted {
            // A completed run publishes its winner for future identical
            // tasks; a halted run does not (its resumed successor will).
            // A failed publish degrades the store, never the run.
            if let (Some(store), Some(fp)) = (&self.cfg.store, task_fp) {
                let record = crate::winner::WinnerRecord {
                    version: crate::winner::WINNER_VERSION,
                    graph_sig: graph_signature(self.graph),
                    task_fp: fp,
                    seed: self.cfg.seed,
                    measurements: self.measurer.used,
                    committed: self.committed.clone(),
                    sched: (0..self.graph.nodes().len())
                        .map(|k| SchedSnap::of(&sched.get(OpId(k))))
                        .collect(),
                    latency_s: latency,
                };
                if let Ok(payload) = crate::winner::encode_winner(&record) {
                    let _ = store.put(alt_store::kind::WINNER, fp, &payload);
                }
            }
        }
        self.obs.finish(
            summary,
            &self.registry,
            self.measurer
                .sim_cache()
                .has_store()
                .then(|| self.measurer.store_stats()),
        );
        let (cache_hits, cache_misses) = self.measurer.cache_stats();
        let (store_hits, store_misses) = self.measurer.store_stats();
        TuneResult {
            plan,
            sched,
            latency,
            history: self.measurer.history.clone(),
            measurements: self.measurer.used,
            cache_hits,
            cache_misses,
            store_hits,
            store_misses,
            warm_start: false,
        }
    }

    /// Replays a stored winner: rebuilds the layout plan from its
    /// committed decisions (representatives *and* clones, exactly like a
    /// checkpoint restore), installs the schedule snapshots, and returns
    /// a zero-budget result. The replayed configuration re-measures
    /// (free) and cross-checks the stored latency — a mismatch is
    /// counted, not fatal: the replayed decisions are still this build's
    /// ground truth.
    fn replay_winner(
        self,
        w: &crate::winner::WinnerRecord,
        mut plan: LayoutPlan,
        mut sched: GraphSchedule,
        clones_of: &HashMap<OpId, Vec<OpId>>,
    ) -> TuneResult {
        for c in &w.committed {
            self.replay_commit(&mut plan, c, clones_of);
        }
        for (k, snap) in w.sched.iter().enumerate() {
            sched.set(OpId(k), snap.to_sched());
        }
        let latency = self.measurer.measure_graph_free(&plan, &sched);
        if latency.to_bits() != w.latency_s.to_bits() {
            self.registry.add("store.winner_mismatch", 1.0);
        }
        // The journal still records the (trivial) run, so downstream
        // consumers always find a header and a summary.
        self.obs.start(self.journal_header());
        self.obs.finish(
            Some(JournalSummary {
                measurements: 0,
                best_latency_s: finite(latency),
                store_hits: Some(0),
                store_misses: Some(0),
                warm_start: Some(true),
            }),
            &self.registry,
            self.measurer
                .sim_cache()
                .has_store()
                .then(|| self.measurer.store_stats()),
        );
        TuneResult {
            plan,
            sched,
            latency,
            history: Vec::new(),
            measurements: 0,
            cache_hits: 0,
            cache_misses: 0,
            store_hits: 0,
            store_misses: 0,
            warm_start: true,
        }
    }

    /// Applies a layout point to `op`'s template. Template construction
    /// and decoding are deterministic, so re-applying a committed point
    /// rebuilds exactly the plan it was committed to. Returns whether
    /// the point applied.
    fn apply_layout_point(&self, plan: &mut LayoutPlan, op: OpId, point: &Point) -> bool {
        let cfg = &self.cfg;
        let Some(tmpl) = build_layout_template_ex(self.graph, op, cfg.levels, cfg.advanced_layouts)
        else {
            return false;
        };
        let Ok(dec) = decode_layout_point(self.graph, &tmpl, point) else {
            return false;
        };
        apply_layout_decision(self.graph, plan, op, &dec, cfg.free_input_layouts);
        true
    }

    /// Replays one committed decision on its task's representative and
    /// clones.
    fn replay_commit(
        &self,
        plan: &mut LayoutPlan,
        c: &CommitSnap,
        clones_of: &HashMap<OpId, Vec<OpId>>,
    ) {
        let op = OpId(c.op);
        let clones = clones_of.get(&op).into_iter().flatten().copied();
        for t in std::iter::once(op).chain(clones) {
            self.apply_layout_point(plan, t, &c.point);
        }
    }

    /// Restores flat tuner state from a checkpoint and replays committed
    /// layout decisions into `plan` / `sched`.
    fn restore_from(
        &mut self,
        ck: &TunerCheckpoint,
        plan: &mut LayoutPlan,
        sched: &mut GraphSchedule,
        clones_of: &HashMap<OpId, Vec<OpId>>,
    ) {
        let mut state = [0u64; 4];
        state.copy_from_slice(&ck.rng_state);
        self.rng.restore(state);
        self.measurer.used = ck.used;
        self.measurer.history = ck.history.clone();
        self.best_by_op = ck.best_by_op.iter().cloned().collect();
        // Replay the committed joint-stage decisions in commit order;
        // template construction and decoding are deterministic, so the
        // rebuilt plan is identical to the one the checkpoint cut from.
        for c in &ck.committed {
            self.replay_commit(plan, c, clones_of);
            self.committed.push(c.clone());
        }
        for (k, snap) in ck.sched.iter().enumerate() {
            sched.set(OpId(k), snap.to_sched());
        }
        for ls in &ck.loop_state {
            let mut state = LoopTuneState::new();
            state.dataset_x = ls.dataset_x.clone();
            state.dataset_y = ls.dataset_y.clone();
            state.rounds = ls.rounds;
            state.trained_on = ls.trained_on;
            // The model is not serialized: GBT fitting is deterministic,
            // so refitting on the same training prefix reproduces it.
            let n = ls.trained_on as usize;
            if n >= 16 {
                state.model = GbtModel::fit(
                    &state.dataset_x[..n],
                    &state.dataset_y[..n],
                    GbtParams::default(),
                );
            }
            self.loop_state.insert(OpId(ls.op), state);
        }
        for bp in &ck.best_points {
            self.best_points
                .insert(OpId(bp.op), (bp.point.clone(), bp.latency_s));
        }
        self.quarantine = ck.quarantine.iter().cloned().collect();
        self.fail_counts = ck.fail_counts.clone();
        for (name, value) in &ck.counters {
            self.registry.add(name, *value);
        }
        // The memo table is not persisted (simulation is pure), but the
        // interrupted leg's accounted keys are: their re-simulations
        // must read as the cache hits the uninterrupted run recorded.
        self.measurer
            .sim_cache()
            .restore_accounted(&ck.accounted_keys);
        self.last_checkpoint = ck.used;
    }

    /// Snapshot of the whole tuner at a cut point.
    fn snapshot(
        &self,
        phase: &str,
        next_rep: u64,
        loop_iter: u64,
        joint_start: u64,
        sched: &GraphSchedule,
        critic: Option<CriticState>,
    ) -> TunerCheckpoint {
        let mut loop_state: Vec<LoopStateSnap> = self
            .loop_state
            .iter()
            .map(|(op, st)| LoopStateSnap {
                op: op.0,
                dataset_x: st.dataset_x.clone(),
                dataset_y: st.dataset_y.clone(),
                rounds: st.rounds,
                trained_on: st.trained_on,
            })
            .collect();
        loop_state.sort_by_key(|s| s.op);
        let mut best_points: Vec<BestPointSnap> = self
            .best_points
            .iter()
            .map(|(op, (p, l))| BestPointSnap {
                op: op.0,
                point: p.clone(),
                latency_s: *l,
            })
            .collect();
        best_points.sort_by_key(|b| b.op);
        let mut quarantine: Vec<String> = self.quarantine.iter().cloned().collect();
        quarantine.sort();
        TunerCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: self.cfg.seed,
            graph_sig: graph_signature(self.graph),
            joint_budget: self.cfg.joint_budget,
            loop_budget: self.cfg.loop_budget,
            phase: phase.to_string(),
            next_rep,
            loop_iter,
            joint_start,
            used: self.measurer.used,
            history: self.measurer.history.clone(),
            best_by_op: self.best_by_op.clone().into_iter().collect(),
            rng_state: self.rng.state().to_vec(),
            committed: self.committed.clone(),
            sched: (0..self.graph.nodes().len())
                .map(|k| SchedSnap::of(&sched.get(OpId(k))))
                .collect(),
            loop_state,
            best_points,
            critic,
            quarantine,
            fail_counts: self.fail_counts.clone(),
            counters: self.registry.snapshot(),
            accounted_keys: self.measurer.sim_cache().accounted_keys(),
        }
    }

    /// Checkpoint cut point: writes a checkpoint if one is due and
    /// returns `true` when the run should stop here (`halt_after`).
    fn checkpoint_cut(
        &mut self,
        phase: &str,
        next_rep: u64,
        loop_iter: u64,
        joint_start: u64,
        sched: &GraphSchedule,
        critic: Option<&Rc<RefCell<SharedCritic>>>,
    ) -> bool {
        let halt = self.cfg.halt_after.is_some_and(|h| self.measurer.used >= h);
        let periodic = self.cfg.checkpoint_every > 0
            && self.measurer.used.saturating_sub(self.last_checkpoint) >= self.cfg.checkpoint_every;
        if !halt && !periodic {
            return false;
        }
        if let Some(path) = self.cfg.checkpoint_path.clone() {
            let _timing = self.obs.timing().phase("checkpoint");
            let ck = self.snapshot(
                phase,
                next_rep,
                loop_iter,
                joint_start,
                sched,
                critic.map(|c| c.borrow().state()),
            );
            if let Err(e) = ck.save(&path) {
                // A failed checkpoint write must never kill the run it
                // exists to protect; the run continues uncheckpointed.
                eprintln!("warning: {e}");
            }
            self.last_checkpoint = self.measurer.used;
        }
        halt
    }

    /// The journal header identifying this run.
    fn journal_header(&self) -> JournalHeader {
        JournalHeader {
            version: JOURNAL_VERSION,
            seed: self.cfg.seed,
            profile_fp: self.measurer.sim_cache().profile_fp(),
            joint_budget: self.cfg.joint_budget,
            loop_budget: self.cfg.loop_budget,
        }
    }

    /// Measures one candidate with bounded retry on transient faults and
    /// hands its outcome to the observer. Every attempt consumes one
    /// budget unit (capped at `cap`); the exponential backoff between
    /// attempts is recorded, not slept (the simulator has no wall
    /// clock). Returns the latency, or `None` when the last attempt
    /// failed — the candidate's failure count is then updated and, past
    /// the threshold, it joins the quarantine set.
    fn measure_candidate(
        &mut self,
        plan: &LayoutPlan,
        sched: &GraphSchedule,
        roots: &HashSet<OpId>,
        cap: u64,
        cand: Candidate,
    ) -> Option<f64> {
        let max_attempts = (1 + self.cfg.max_retries).min(cap.max(1));
        let label = cand.label();
        // Every attempt is kept for the observer; an unobserved run
        // needs none of them.
        let observed = self.obs.is_enabled();
        let mut attempts = Vec::new();
        let mut index = 0;
        let latency = loop {
            index += 1;
            // Re-attempts get their own wall-clock phase so fault/retry
            // cost shows up separately from first-try measurement.
            let result = if index > 1 {
                let _timing = self.obs.timing().phase("retry");
                self.measurer.measure_ops(plan, sched, roots, &label)
            } else {
                self.measurer.measure_ops(plan, sched, roots, &label)
            };
            let latency = result.as_ref().ok().map(|m| m.latency_s);
            let mut retry = false;
            if let Err(e) = &result {
                self.registry.add(&format!("failures.{}", e.kind()), 1.0);
                retry = e.is_transient() && index < max_attempts;
                if retry {
                    self.registry.add("retries", 1.0);
                } else {
                    let key = format!("{}:{label}", cand.op);
                    let count = self.fail_counts.entry(key.clone()).or_insert(0);
                    *count += 1;
                    if *count >= self.cfg.quarantine_threshold && self.quarantine.insert(key) {
                        self.registry.add("quarantined", 1.0);
                    }
                }
            }
            let backoff_us = if index <= 1 {
                0
            } else {
                100u64 << (index - 2).min(20)
            };
            if observed {
                attempts.push(Attempt {
                    seq: self.measurer.used,
                    index,
                    backoff_us,
                    result,
                });
            }
            if !retry {
                break latency;
            }
        };
        // Tracked for every run, observed or not, so checkpoints do not
        // depend on which streams are attached.
        if let Some(lat) = latency {
            let best = self
                .best_by_op
                .entry(cand.op.to_string())
                .or_insert(f64::INFINITY);
            if lat < *best {
                *best = lat;
            }
        }
        if observed {
            let best_s = self
                .best_by_op
                .get(cand.op)
                .copied()
                .unwrap_or(f64::INFINITY);
            let attempts = &attempts;
            self.observe_candidate(cand, Fate::Attempted { attempts, best_s });
        }
        latency
    }

    /// Hands one candidate's terminal outcome to the observer (when any
    /// projection is on).
    fn observe_candidate(&self, candidate: Candidate, fate: Fate) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.candidate(&CandidateEvent {
            candidate,
            fate,
            budget_end: self.measurer.used,
            cache: self.measurer.cache_stats(),
            store: self.measurer.store_stats(),
        });
    }

    /// Hands a candidate that ended without spending budget to the
    /// observer.
    fn observe_dropped(&self, op: &str, round: u64, origin: &str, point: &[usize], fate: Fate) {
        let candidate = Candidate {
            op,
            stage: self.stage,
            round,
            provenance: origin,
            point,
            predicted: None,
        };
        self.observe_candidate(candidate, fate);
    }

    /// Folds one candidate's set-engine counters into the run registry.
    /// Queries and recoveries are pure functions of the candidate and
    /// folded on the sequential merge path, so the totals (and thus the
    /// deterministic trace and checkpoints) stay jobs-invariant. The
    /// wall-clock emptiness time is *not* added here — workers observe
    /// it into the timing registry, which is exempt from determinism.
    fn add_verify_stats(&self, vs: &alt_verify::VerifyStats) {
        if vs.set_queries == 0 && vs.conservative_recovered == 0 {
            return;
        }
        self.registry
            .add("verify.set_queries", vs.set_queries as f64);
        self.registry.add(
            "verify.conservative_recovered",
            vs.conservative_recovered as f64,
        );
    }

    /// Hands one assessed layout candidate of the joint stage to the
    /// observer.
    fn observe_layout_visit(&self, op: OpId, origin: &str, point: &[usize], latency_s: f64) {
        if self.obs.is_enabled() {
            self.obs
                .layout_visit(&op_label(self.graph, op), origin, point, latency_s);
        }
    }

    /// Joint tuning of one complex operator: the cross-exploration loop.
    /// Returns the committed (layout point, schedule), if any.
    fn joint_tune_op(
        &mut self,
        op: OpId,
        budget: u64,
        mut agent: PpoAgent,
        plan: &mut LayoutPlan,
        sched: &mut GraphSchedule,
    ) -> Option<(Point, OpSchedule)> {
        let tmpl =
            build_layout_template_ex(self.graph, op, self.cfg.levels, self.cfg.advanced_layouts)?;
        // Not enough budget for even one layout episode: leave the op on
        // its default layout rather than burning budget on half-episodes.
        if budget < self.cfg.topk as u64 {
            return None;
        }
        let n_knobs = tmpl.space.knobs.len();
        let start = self.measurer.used;
        // Reserve roughly a third of the op budget for re-assessing the
        // finalists; exploration gets the rest. Both phases are hard-capped
        // so the op never spends more than `budget` in total.
        let explore_budget = budget - budget / 3;
        let mut cur_point: Point = tmpl
            .space
            .knobs
            .iter()
            .map(|k| k.options.len() / 2)
            .collect();
        let mut best: Option<(f64, Point, OpSchedule)> = None;
        let mut finalists: Vec<(f64, Point)> = Vec::new();
        let mut ref_lat: Option<f64> = None;
        // The template space contains well-known layouts (channels-last is
        // the all-degenerate point, NeoCPU channel tiling is the
        // unit-spatial point); visit them first so the search starts from
        // the strongest fixed-layout baselines.
        let mut seeds = if self.cfg.seed_candidates {
            seed_points(self.graph, &tmpl)
        } else {
            Vec::new()
        };

        let mut iters = 0u64;
        while self.measurer.used - start < explore_budget {
            iters += 1;
            if iters > 100_000 {
                break;
            }
            let obs = pad_obs(tmpl.space.encode(&cur_point));
            let (point, acts, logp, origin) = if let Some(p) = seeds.pop() {
                (p, vec![], f32::NAN, provenance::SEED)
            } else {
                match self.cfg.layout_search {
                    LayoutSearch::Ppo => {
                        let (acts, logp) = agent.act(&obs);
                        (
                            tmpl.space.decode_actions(&acts[..n_knobs]),
                            acts,
                            logp,
                            provenance::PPO,
                        )
                    }
                    LayoutSearch::Random => {
                        let p = tmpl.space.random_point(&mut self.rng);
                        (p, vec![], f32::NAN, provenance::RANDOM)
                    }
                }
            };
            let Ok(decision) = decode_layout_point(self.graph, &tmpl, &point) else {
                continue;
            };
            // Assess the layout on a trial copy of the plan.
            let mut trial = plan.clone();
            apply_layout_decision(
                self.graph,
                &mut trial,
                op,
                &decision,
                self.cfg.free_input_layouts,
            );
            // Layout change invalidates the best loop point (the space is
            // reconstructed), but not the cost model.
            self.best_points.remove(&op);
            let remaining = explore_budget
                .saturating_sub(self.measurer.used - start)
                .max(1);
            let lat =
                self.loop_tune_rounds(op, &trial, sched, self.cfg.rounds_per_layout, remaining);
            self.observe_layout_visit(op, origin, &point, lat);
            // A fully-faulted assessment yields no latency; skip reward
            // bookkeeping (inf/inf would poison the PPO baseline) and
            // move on from this layout.
            if !lat.is_finite() {
                cur_point = point;
                continue;
            }
            let r0 = *ref_lat.get_or_insert(lat);
            let reward = 2.0 - (lat / r0) as f32;
            if self.cfg.layout_search == LayoutSearch::Ppo && logp.is_finite() {
                agent.store(obs, acts, logp, reward);
            }
            let lsched = sched.get(op);
            if best.as_ref().map(|b| lat < b.0).unwrap_or(true) {
                best = Some((lat, point.clone(), lsched));
            }
            finalists.push((lat, point.clone()));
            cur_point = point;
        }
        agent.update();
        if self.obs.trace().is_enabled() {
            for (episode, s) in agent.take_update_log().into_iter().enumerate() {
                self.obs.trace().emit(Record::PpoUpdate(PpoUpdateRecord {
                    op: op_label(self.graph, op),
                    episode: episode as u64 + 1,
                    transitions: s.transitions as u64,
                    reward_mean: s.reward_mean as f64,
                    policy_loss: s.policy_loss as f64,
                    value_loss: s.value_loss as f64,
                    entropy: s.entropy as f64,
                }));
            }
        }

        // Re-assess the finalists more deeply before committing: shallow
        // per-layout assessments are noisy, and a mis-commit cannot be
        // recovered in the loop-only stage. The re-assessment spends what
        // is left of the op budget, never more.
        finalists.sort_by(|a, b| a.0.total_cmp(&b.0));
        finalists.dedup_by(|a, b| a.1 == b.1);
        finalists.truncate(3);
        let finalist_cap = budget.saturating_sub(self.measurer.used - start);
        let finalist_start = self.measurer.used;
        for (_, point) in &finalists {
            if self.measurer.used - finalist_start >= finalist_cap {
                break;
            }
            let Ok(decision) = decode_layout_point(self.graph, &tmpl, point) else {
                continue;
            };
            let mut trial = plan.clone();
            apply_layout_decision(
                self.graph,
                &mut trial,
                op,
                &decision,
                self.cfg.free_input_layouts,
            );
            self.best_points.remove(&op);
            let rem = finalist_cap
                .saturating_sub(self.measurer.used - finalist_start)
                .max(1);
            let lat = self.loop_tune_rounds(op, &trial, sched, 3, rem);
            self.observe_layout_visit(op, provenance::FINALIST, point, lat);
            if lat.is_finite() && best.as_ref().map(|b| lat < b.0).unwrap_or(true) {
                best = Some((lat, point.clone(), sched.get(op)));
            }
        }

        // Commit the winning layout (and its schedule) for real.
        if let Some((lat, point, lsched)) = best {
            if let Ok(decision) = decode_layout_point(self.graph, &tmpl, &point) {
                apply_layout_decision(self.graph, plan, op, &decision, self.cfg.free_input_layouts);
                sched.set(op, lsched.clone());
                self.best_points.remove(&op);
                if self.obs.is_enabled() {
                    self.obs
                        .layout_commit(&op_label(self.graph, op), &point, lat);
                }
                return Some((point, lsched));
            }
        }
        None
    }

    /// The measurement neighbourhood of an operator: the op itself, the
    /// simple producers of its inputs (which absorb layout conversions),
    /// and the chain of simple consumers its output layout propagates to.
    /// Measuring the whole neighbourhood charges a layout's externalities
    /// — a layout that makes the downstream pool or ReLU slow is charged
    /// for it during assessment, not discovered at the end.
    fn neighborhood(&self, op: OpId) -> std::collections::HashSet<OpId> {
        let mut roots = std::collections::HashSet::new();
        roots.insert(op);
        let node = self.graph.node(op);
        for &t in &node.inputs {
            if let Some(p) = self.graph.tensor(t).producer {
                if !self.graph.node(p).tag.is_complex() {
                    roots.insert(p);
                }
            }
        }
        // Walk simple consumers (the propagation frontier).
        let mut queue = vec![node.output];
        let mut guard = 0;
        while let Some(t) = queue.pop() {
            guard += 1;
            if guard > 32 {
                break;
            }
            for &c in &self.graph.tensor(t).consumers {
                let cn = self.graph.node(c);
                if cn.tag.is_complex() || roots.contains(&c) {
                    continue;
                }
                roots.insert(c);
                if cn.tag == alt_tensor::OpTag::Elementwise {
                    queue.push(cn.output);
                }
            }
        }
        roots
    }

    /// Runs `rounds` of loop tuning for `op` under the given plan;
    /// returns the best latency seen and updates `sched` with the best
    /// schedule.
    fn loop_tune_rounds(
        &mut self,
        op: OpId,
        plan: &LayoutPlan,
        sched: &mut GraphSchedule,
        rounds: usize,
        budget_cap: u64,
    ) -> f64 {
        let space =
            crate::space::build_loop_space_ex(self.graph, plan, op, self.cfg.loop_levels >= 2);
        let start = self.measurer.used;
        let op_tag = op_label(self.graph, op);
        // Attribute the incumbent baseline (measured before the round
        // counter advances below) to this op's own round count — not to
        // whatever round another op left behind, and, on a resumed run,
        // not to zero: `state.rounds` is checkpointed.
        let mut round = self.loop_state.get(&op).map_or(0, |st| st.rounds);
        let mut best = self
            .best_points
            .get(&op)
            .cloned()
            .map(|(p, l)| (l, p))
            .unwrap_or((f64::INFINITY, vec![]));
        if best.0.is_infinite() {
            // The incumbent schedule may predate a layout change, in which
            // case its tilings no longer match the physical dims; reset it
            // before measuring the baseline.
            let node = self.graph.node(op);
            let phys = plan.layout_of(self.graph, node.output).physical_shape();
            let reduce_ext: Vec<i64> = node.compute.reduce_axes.iter().map(|a| a.extent).collect();
            if !sched.get(op).validate(phys.dims(), &reduce_ext) {
                sched.set(op, OpSchedule::default());
            }
            // Establish the incumbent schedule as the baseline so a round
            // of worse candidates can never overwrite a good schedule.
            let roots = self.neighborhood(op);
            // On total failure the incumbent stays at infinity; any healthy
            // candidate below will replace it.
            let incumbent = Candidate {
                op: &op_tag,
                stage: self.stage,
                round,
                provenance: provenance::INCUMBENT,
                point: &[],
                predicted: None,
            };
            let lat = {
                let _timing = self.obs.timing().phase("measure");
                self.measure_candidate(plan, sched, &roots, budget_cap, incumbent)
            };
            if let Some(lat) = lat {
                best.0 = lat;
            }
        }
        let roots = self.neighborhood(op);

        for _ in 0..rounds {
            if self.measurer.used - start >= budget_cap {
                break;
            }
            {
                let state = self.loop_state.entry(op).or_insert_with(LoopTuneState::new);
                state.rounds += 1;
                round = state.rounds;
            }
            // Candidate batch: random exploration plus walks around the
            // incumbent.
            let timing_gen = self.obs.timing().phase("candidate_gen");
            let mut candidates: Vec<(Point, &'static str)> = Vec::with_capacity(self.cfg.batch);
            for b in 0..self.cfg.batch {
                if best.1.is_empty() || b % 3 == 0 {
                    candidates.push((space.random_point(&mut self.rng), provenance::RANDOM));
                } else {
                    candidates.push((space.neighbor(&best.1, &mut self.rng), provenance::NEIGHBOR));
                }
            }
            // Drop quarantined candidates *after* generation so the RNG
            // draw count — and thus every later draw — is unchanged by
            // the filter (zero-fault runs stay bit-identical).
            candidates.retain(|(p, origin)| {
                if self.quarantine.contains(&format!("{op_tag}:{p:?}")) {
                    self.observe_dropped(
                        &op_tag,
                        round,
                        origin,
                        p,
                        Fate::Dropped(outcome::QUARANTINED),
                    );
                    false
                } else {
                    true
                }
            });
            // Rank by the cost model (higher prediction = faster). When
            // the model is untrained the ranking would be random anyway,
            // so skip lowering the whole batch and take a random subset.
            let state = self.loop_state.entry(op).or_insert_with(LoopTuneState::new);
            let model_trained = state.model.is_trained();
            // When the model is untrained the ranking would be random
            // anyway, so only a random subset is lowered at all.
            if !model_trained {
                let keep = self.cfg.topk.max(1).min(candidates.len());
                for (p, origin) in candidates.split_off(keep) {
                    self.observe_dropped(
                        &op_tag,
                        round,
                        origin,
                        &p,
                        Fate::Dropped(outcome::SKIPPED),
                    );
                }
            }
            drop(timing_gen);
            // Lower every candidate and extract its features across the
            // worker pool. This is the generation's pure, embarrassingly
            // parallel work: lowering and featurization depend only on
            // the (frozen) graph/plan/schedule, never on tuner state, so
            // results are bit-identical for any `jobs` and are merged
            // back in submission order.
            // Requested workers, clamped to the machine (oversubscribing
            // pure CPU-bound work only adds overhead; the clamp is
            // invisible to the run transcript).
            let jobs = crate::parallel::effective_jobs(self.cfg.jobs);
            // `Err(None)` = failed to lower, `Err(Some(d))` = statically
            // rejected by the verifier. Both are dropped before scoring
            // and consume zero budget; only the verifier rejections are
            // counted and traced (in the sequential merge below, so the
            // transcript stays jobs-invariant). Set-engine counters ride
            // along per candidate and are folded on the same sequential
            // path (they are pure functions of the candidate, so the
            // totals are jobs-invariant too).
            type LoweredCandidate = Result<
                (OpSchedule, Vec<f32>, alt_verify::VerifyStats),
                (Option<alt_verify::Diagnostic>, alt_verify::VerifyStats),
            >;
            let timing_lower = self.obs.timing().phase("lower");
            let lowered: Vec<LoweredCandidate> = {
                let graph = self.graph;
                let sched_ref: &GraphSchedule = sched;
                let single: HashSet<OpId> = [op].into_iter().collect();
                let verify = self.cfg.verify;
                // Workers report per-candidate lowering latency into the
                // timing registry (thread-safe histograms), never the
                // phase tree — the tree stays on the accounting thread.
                let timing = self.obs.timing().clone();
                ordered_map(&candidates, jobs, |_, (p, _)| {
                    let s = decode_loop_point(graph, plan, op, &space, p);
                    let mut trial_sched = sched_ref.clone();
                    trial_sched.set(op, s.clone());
                    let t0 = std::time::Instant::now();
                    let program = try_lower_filtered(graph, plan, &trial_sched, Some(&single));
                    timing.observe_us("candidate.lower_us", t0.elapsed().as_micros() as u64);
                    let program =
                        program.map_err(|_| (None, alt_verify::VerifyStats::default()))?;
                    let mut vstats = alt_verify::VerifyStats::default();
                    if verify {
                        // The verifier is pure and deterministic, so it can
                        // run on workers; only the first (smallest-code)
                        // finding is reported per candidate.
                        let (diags, vs) =
                            alt_verify::verify_program_with_stats(graph, plan, &program);
                        timing.observe_us("verify.set_emptiness_us", vs.set_emptiness_us);
                        vstats = vs;
                        if let Some(d) = diags.into_iter().next() {
                            return Err((Some(d), vstats));
                        }
                    }
                    Ok((s, extract_features(&program), vstats))
                })
            };
            drop(timing_lower);
            // Rank by the cost model (higher prediction = faster); the
            // GBT prediction itself stays on the tuning thread.
            let timing_score = self.obs.timing().phase("gbt_score");
            let mut scored: Vec<(f64, Point, &'static str, OpSchedule, Vec<f32>)> = Vec::new();
            for ((p, origin), lf) in candidates.into_iter().zip(lowered) {
                let (s, feats) = match lf {
                    Ok((s, feats, vs)) => {
                        self.add_verify_stats(&vs);
                        (s, feats)
                    }
                    Err((None, _)) => {
                        self.observe_dropped(
                            &op_tag,
                            round,
                            origin,
                            &p,
                            Fate::Dropped(outcome::LOWER_FAILED),
                        );
                        continue;
                    }
                    Err((Some(d), vs)) => {
                        self.add_verify_stats(&vs);
                        self.registry.add("verify.rejected", 1.0);
                        self.observe_dropped(&op_tag, round, origin, &p, Fate::VerifyRejected(&d));
                        continue;
                    }
                };
                let score = if model_trained {
                    self.loop_state[&op].model.predict(&feats) as f64
                } else {
                    0.0
                };
                scored.push((score, p, origin, s, feats));
            }
            if model_trained {
                scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            }
            drop(timing_score);
            // Measure the predicted top-k. `k` respects the remaining
            // budget cap strictly: when nothing is left, the round stops.
            let k = self
                .cfg
                .topk
                .min(scored.len())
                .min(budget_cap.saturating_sub(self.measurer.used - start) as usize);
            if k == 0 {
                for (_, p, origin, _, _) in &scored {
                    self.observe_dropped(
                        &op_tag,
                        round,
                        origin,
                        p,
                        Fate::Dropped(outcome::SKIPPED),
                    );
                }
                break;
            }
            // Prewarm the measurement cache for the k candidates about
            // to be measured: workers lower each candidate *with its
            // measurement neighborhood* (the exact program the loop
            // below measures) and simulate it into the shared memo
            // table. The sequential loop then consumes warm entries, so
            // its transcript — RNG draws, faults, budget, telemetry,
            // hit/miss counters — is byte-identical to an unwarmed run.
            // Skipped at effective `jobs <= 1` (sequential request or a
            // single-core machine), where inline prewarming would only
            // duplicate the lowering work.
            if jobs > 1 {
                let _timing = self.obs.timing().phase("prewarm");
                let graph = self.graph;
                let sim = self.measurer.simulator();
                let cache = self.measurer.sim_cache();
                let sched_ref: &GraphSchedule = sched;
                ordered_map(&scored[..k], jobs, |_, (_, _, _, s, _)| {
                    let mut trial_sched = sched_ref.clone();
                    trial_sched.set(op, s.clone());
                    if let Ok(program) = try_lower_filtered(graph, plan, &trial_sched, Some(&roots))
                    {
                        cache.prewarm(sim, &program);
                    }
                });
            }
            let mut measured: Vec<(f64, f64)> = Vec::with_capacity(k);
            // Candidates ranked beyond the top-k are never measured;
            // journal them so every generated candidate has exactly one
            // terminal record.
            for (_, p, origin, _, _) in scored.split_off(k) {
                self.observe_dropped(&op_tag, round, origin, &p, Fate::Dropped(outcome::SKIPPED));
            }
            let timing_measure = self.obs.timing().phase("measure");
            for (score, p, origin, s, feats) in scored {
                let cap = budget_cap.saturating_sub(self.measurer.used - start);
                if cap == 0 {
                    // The cap cannot recover within a round, so every
                    // remaining selected candidate is journaled as
                    // skipped (`continue`, not `break`).
                    self.observe_dropped(
                        &op_tag,
                        round,
                        origin,
                        &p,
                        Fate::Dropped(outcome::SKIPPED),
                    );
                    continue;
                }
                let mut trial_sched = sched.clone();
                trial_sched.set(op, s.clone());
                let cand = Candidate {
                    op: &op_tag,
                    stage: self.stage,
                    round,
                    provenance: origin,
                    point: &p,
                    predicted: model_trained.then_some(score),
                };
                let outcome_lat = self.measure_candidate(plan, &trial_sched, &roots, cap, cand);
                let Some(lat) = outcome_lat else {
                    continue;
                };
                if model_trained {
                    // Quality on the model's own scale (-ln latency), so
                    // the rank correlation below reads "+1 = perfect".
                    measured.push((score, -lat.max(1e-12).ln()));
                }
                let state = self.loop_state.get_mut(&op).expect("state exists");
                state.record(feats, lat);
                if lat < best.0 {
                    best = (lat, p);
                    sched.set(op, s);
                }
            }
            drop(timing_measure);
            let state = self.loop_state.get_mut(&op).expect("state exists");
            if self.obs.trace().is_enabled() && measured.len() >= 2 {
                let (pred, qual): (Vec<f64>, Vec<f64>) = measured.into_iter().unzip();
                self.obs.trace().emit(Record::CostModel(CostModelRecord {
                    op: op_tag.clone(),
                    stage: self.stage,
                    round: state.rounds,
                    measured: pred.len() as u64,
                    spearman: alt_telemetry::spearman(&pred, &qual),
                    train_size: state.trained_on,
                }));
            }
            state.retrain();
        }
        if !best.1.is_empty() {
            self.best_points.insert(op, (best.1.clone(), best.0));
        }
        best.0
    }
}

/// Human-readable operator tag used in trace records, e.g. `conv2d#3`.
pub fn op_label(graph: &Graph, op: OpId) -> String {
    format!("{}#{}", graph.node(op).compute.name, op.0)
}

/// Tuning-task signature: operators with the same kind and tensor shapes
/// share layouts and schedules.
fn op_signature(graph: &Graph, op: OpId) -> String {
    let node = graph.node(op);
    let mut s = format!("{:?}|{}", node.tag, node.compute.name);
    for &i in &node.inputs {
        s.push_str(&format!("|{}", graph.tensor(i).shape));
    }
    s.push_str(&format!("|{}", graph.tensor(node.output).shape));
    s
}

/// Index of the option closest to `target`.
fn closest_index(options: &[i64], target: i64) -> usize {
    options
        .iter()
        .enumerate()
        .min_by_key(|(_, &v)| (v - target).abs())
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Heuristic starting points inside a layout template: the degenerate
/// channels-last point, the NeoCPU-style channel-tiled point, the
/// NCHW-equivalent point, and a moderate spatial-tiled point.
pub fn seed_points(graph: &Graph, tmpl: &crate::space::LayoutTemplate) -> Vec<Point> {
    use crate::space::TemplateKind;
    let knobs = &tmpl.space.knobs;
    let full: Point = knobs
        .iter()
        .map(|k| k.options.len().saturating_sub(1))
        .collect();
    let node = graph.node(tmpl.op);
    let _ = node;
    let mut seeds = match &tmpl.kind {
        TemplateKind::Conv { d, .. } | TemplateKind::TransposedConv { d } => {
            // Channels-last: every spatial tile = full extent, ot = O,
            // it = I (single tiles everywhere).
            let channels_last = full.clone();
            // NeoCPU channel tiling: unit spatial tiles, ot ~ 16.
            let mut chan_tiled: Point = vec![0; knobs.len()];
            chan_tiled[..*d].fill(0); // spatial tile 1
            chan_tiled[*d] = closest_index(&knobs[*d].options, 16);
            chan_tiled[*d + 1] = closest_index(&knobs[*d + 1].options, 8);
            if knobs.len() > *d + 3 {
                chan_tiled[*d + 2] = closest_index(&knobs[*d + 2].options, 8);
                chan_tiled[*d + 3] = closest_index(&knobs[*d + 3].options, 16);
            }
            // Moderate spatial tiling (the paper's searched family).
            let mut spatial: Point = vec![0; knobs.len()];
            for k in 0..*d {
                spatial[k] = closest_index(&knobs[k].options, 8);
            }
            spatial[*d] = closest_index(&knobs[*d].options, 16);
            spatial[*d + 1] = closest_index(&knobs[*d + 1].options, 8);
            if knobs.len() > *d + 3 {
                spatial[*d + 2] = closest_index(&knobs[*d + 2].options, 8);
                spatial[*d + 3] = closest_index(&knobs[*d + 3].options, 16);
            }
            // NCHW-equivalent: full spatial tiles with every channel
            // knob at 1 (input stays channels-first, weight stays OIKK).
            let mut identity_like = full.clone();
            for v in identity_like
                .iter_mut()
                .take((*d + 4).min(knobs.len()))
                .skip(*d)
            {
                *v = 0;
            }
            vec![spatial, chan_tiled, identity_like, channels_last]
        }
        TemplateKind::Gmm | TemplateKind::BatchGmm => {
            // KN (degenerate) and NKn with 16x16 tiles.
            let mut nkn: Point = vec![0; knobs.len()];
            for k in 0..3.min(knobs.len()) {
                nkn[k] = closest_index(&knobs[k].options, 16);
            }
            vec![nkn, full]
        }
    };
    // The well-known seed families are all plain tilings: pin the
    // trailing `xform` knob (advanced templates) to "none" so seeds keep
    // their intended meaning (e.g. "channels-last" is not Morton'd).
    if tmpl.advanced {
        for p in &mut seeds {
            if let Some(last) = p.last_mut() {
                *last = 0;
            }
        }
    }
    seeds
}

/// Convenience wrapper.
pub fn tune_graph(graph: &Graph, profile: MachineProfile, cfg: TuneConfig) -> TuneResult {
    Tuner::new(graph, profile, cfg).tune()
}

/// Base schedule: every elementwise operator requests fusion into its
/// producer; non-complex root groups get a sensible default (parallel +
/// vectorized innermost) so end-to-end numbers are not dominated by naive
/// auxiliary operators.
pub fn base_schedule(graph: &Graph) -> GraphSchedule {
    let mut sched = GraphSchedule::naive();
    for node in graph.nodes() {
        match node.tag {
            OpTag::Elementwise => {
                sched.set(
                    node.id,
                    OpSchedule {
                        fuse_into_producer: true,
                        vectorize: true,
                        parallel: true,
                        spatial: default_tiling(graph, node.id),
                        ..OpSchedule::default()
                    },
                );
            }
            // Complex operators the tuner never reaches (budget exhausted)
            // must still run with a sane schedule, not a naive serial
            // nest.
            OpTag::Complex(_) => {
                let reduce = node
                    .compute
                    .reduce_axes
                    .iter()
                    .map(|a| {
                        let t = largest_divisor_at_most(a.extent, 8);
                        if t > 1 {
                            alt_loopir::AxisTiling::one(t)
                        } else {
                            alt_loopir::AxisTiling::none()
                        }
                    })
                    .collect();
                sched.set(
                    node.id,
                    OpSchedule {
                        vectorize: true,
                        parallel: true,
                        unroll: true,
                        reduce,
                        spatial: default_tiling(graph, node.id),
                        ..OpSchedule::default()
                    },
                );
            }
            _ => {
                sched.set(
                    node.id,
                    OpSchedule {
                        vectorize: true,
                        parallel: true,
                        spatial: default_tiling(graph, node.id),
                        ..OpSchedule::default()
                    },
                );
            }
        }
    }
    sched
}

/// Default spatial tiling: tile the innermost dimension so it can be
/// vectorized.
fn default_tiling(graph: &Graph, op: OpId) -> Vec<alt_loopir::AxisTiling> {
    let node = graph.node(op);
    let shape = &graph.tensor(node.output).shape;
    let nd = shape.ndim();
    let mut out = vec![alt_loopir::AxisTiling::none(); nd];
    if nd > 0 {
        let last = shape.dim(nd - 1);
        let tile = crate::space::divisors(last)
            .into_iter()
            .rfind(|&d| d <= 64)
            .unwrap_or(1);
        if tile > 1 {
            out[nd - 1] = alt_loopir::AxisTiling::one(tile);
        }
    }
    out
}

/// Flops-proportional budget shares.
fn budget_shares(graph: &Graph, ops: &[OpId]) -> Vec<f64> {
    let flops: Vec<f64> = ops
        .iter()
        .map(|&op| graph.node(op).compute.total_flops() as f64)
        .collect();
    let total: f64 = flops.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / ops.len().max(1) as f64; ops.len()];
    }
    flops.iter().map(|f| f / total).collect()
}

/// Applies a fixed layout family to every complex operator (baselines).
pub fn apply_fixed_layout(
    graph: &Graph,
    plan: &mut LayoutPlan,
    fixed: FixedLayout,
    free_inputs: bool,
) {
    if fixed == FixedLayout::Identity {
        return;
    }
    // Padding and pooling operators keep the same layout family so no
    // implicit (strided) relayout pass appears between blocked operators
    // — this is how vendor libraries keep everything in `nChw16c`.
    for node in graph.nodes() {
        if !matches!(node.tag, OpTag::Padding | OpTag::Reduction) {
            continue;
        }
        let out_shape = graph.tensor(node.output).shape.clone();
        if out_shape.ndim() < 3 {
            continue;
        }
        if let Some(l) = family_layout(fixed, out_shape) {
            plan.set_layout(node.output, l);
        }
    }
    for op in graph.complex_ops() {
        let node = graph.node(op);
        let out_shape = graph.tensor(node.output).shape.clone();
        if let Some(l) = family_layout(fixed, out_shape) {
            plan.assign_output_layout(graph, op, l);
        }
        // Input activations follow the same family where it applies.
        if matches!(
            node.tag,
            OpTag::Complex(alt_tensor::ComplexKind::Conv1d)
                | OpTag::Complex(alt_tensor::ComplexKind::Conv2d)
                | OpTag::Complex(alt_tensor::ComplexKind::Conv3d)
                | OpTag::Complex(alt_tensor::ComplexKind::TransposedConv2d)
                | OpTag::Complex(alt_tensor::ComplexKind::TransposedConv3d)
        ) {
            let x = node.inputs[0];
            if let Some(l) = family_layout(fixed, graph.tensor(x).shape.clone()) {
                let info = graph.tensor(x);
                if free_inputs && info.producer.is_none() {
                    plan.set_layout(x, l);
                } else {
                    plan.assign_input_layout(graph, op, x, l);
                }
            }
            // Weights: channels-last family stores output channels last
            // (HWIO-style); tiled family uses the NeoCPU weight layout.
            let w = node.inputs[1];
            let w_shape = graph.tensor(w).shape.clone();
            let w_layout = match fixed {
                FixedLayout::Identity => None,
                FixedLayout::ChannelsLast => {
                    let nd = w_shape.ndim();
                    let mut perm: Vec<usize> = (2..nd).collect();
                    perm.push(1);
                    perm.push(0);
                    presets::permuted(w_shape, &perm).ok()
                }
                FixedLayout::ChannelTiled(t) => {
                    let o = w_shape.dim(0);
                    let i = w_shape.dim(1);
                    let ot = largest_divisor_at_most(o, t);
                    let it = largest_divisor_at_most(i, t.min(8));
                    presets::conv_weight_tiled_nd(w_shape, it, ot).ok()
                }
            };
            if let Some(l) = w_layout {
                plan.assign_input_layout(graph, op, w, l);
            }
        }
    }
}

/// The activation layout of a fixed layout family for `shape`
/// (channels-tiled families tile the channel axis, dimension 1).
fn family_layout(fixed: FixedLayout, shape: alt_tensor::Shape) -> Option<Layout> {
    match fixed {
        FixedLayout::Identity => None,
        FixedLayout::ChannelsLast => presets::channels_last(shape).ok(),
        FixedLayout::ChannelTiled(t) => {
            let t = largest_divisor_at_most(shape.dim(1), t);
            if t > 1 {
                presets::channel_tiled(shape, t).ok()
            } else {
                None
            }
        }
    }
}

/// Largest divisor of `n` that is `<= cap`.
pub fn largest_divisor_at_most(n: i64, cap: i64) -> i64 {
    crate::space::divisors(n)
        .into_iter()
        .rfind(|&d| d <= cap)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_sim::intel_cpu;
    use alt_telemetry::{Telemetry, Timing};
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    fn small_conv_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 16, 34, 34]));
        let w = g.add_param("w", Shape::new([32, 16, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let b = g.add_param("b", Shape::new([32]));
        let ba = ops::bias_add(&mut g, c, b, 1);
        let _ = ops::relu(&mut g, ba);
        g
    }

    #[test]
    fn tuning_improves_over_naive() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 24,
            loop_budget: 24,
            batch: 16,
            topk: 4,
            free_input_layouts: true,
            seed: 42,
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        let naive_plan = LayoutPlan::new(PropagationMode::Full);
        let naive =
            Measurer::new(&g, intel_cpu()).measure_graph_free(&naive_plan, &GraphSchedule::naive());
        assert!(
            result.latency < naive,
            "tuned {} should beat naive {naive}",
            result.latency
        );
        assert!(result.measurements >= 40);
    }

    #[test]
    fn budget_is_respected() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 4,
            free_input_layouts: true,
            seed: 1,
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        // Accounting is strict: the joint stage never exceeds its budget
        // and the loop stage tops the total up to exactly joint + loop.
        assert_eq!(result.measurements, 32, "used {}", result.measurements);
        assert!(!result.history.is_empty());
    }

    #[test]
    fn fixed_layout_skips_joint_stage() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 100,
            loop_budget: 16,
            batch: 8,
            topk: 4,
            fixed_layout: Some(FixedLayout::ChannelsLast),
            free_input_layouts: true,
            seed: 2,
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        // Joint budget unused: only the loop stage measures.
        assert_eq!(result.measurements, 16, "used {}", result.measurements);
        // The conv output layout is the fixed channels-last permutation.
        let conv = g.complex_ops()[0];
        let out = g.node(conv).output;
        assert!(!result.plan.layout_of(&g, out).is_identity());
    }

    #[test]
    fn trace_has_one_measurement_record_per_budget_unit() {
        let g = small_conv_graph();
        let (trace, sink) = Telemetry::memory();
        let cfg = TuneConfig {
            joint_budget: 20,
            loop_budget: 30,
            batch: 8,
            topk: 4,
            free_input_layouts: true,
            seed: 5,
            observer: Observer {
                trace,
                ..Observer::default()
            },
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        assert_eq!(result.measurements, 50);
        let records = sink.records();
        let measurements: Vec<&alt_telemetry::MeasurementRecord> = records
            .iter()
            .filter_map(|r| match r {
                Record::Measurement(m) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(
            measurements.len() as u64,
            result.measurements,
            "exactly one trace record per consumed budget unit"
        );
        // seq is the budget counter itself.
        for (i, m) in measurements.iter().enumerate() {
            assert_eq!(m.seq, i as u64 + 1);
        }
        let joint = measurements
            .iter()
            .filter(|m| m.stage == Stage::Joint)
            .count() as u64;
        assert!(joint <= 20, "joint stage overspent: {joint}");
        assert_eq!(joint + (measurements.len() as u64 - joint), 50);
        // Both stage spans closed, and the dataset grew enough for the
        // cost model to rank rounds (spearman records).
        let span_names: Vec<&str> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s.name.as_str()),
                _ => None,
            })
            .collect();
        assert!(span_names.contains(&"joint_stage"), "{span_names:?}");
        assert!(span_names.contains(&"loop_stage"), "{span_names:?}");
        assert!(
            records.iter().any(|r| matches!(r, Record::CostModel(_))),
            "trained-model rounds must report rank correlation"
        );
        // The run-level simulator counter registry was flushed.
        assert!(records.iter().any(
            |r| matches!(r, Record::Counter(c) if c.scope == "sim" && c.name == "l1.accesses")
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 12,
            loop_budget: 12,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 7,
            ..TuneConfig::default()
        };
        let a = tune_graph(&g, intel_cpu(), cfg.clone());
        let b = tune_graph(&g, intel_cpu(), cfg);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.measurements, b.measurements);
    }

    #[test]
    fn tuning_log_serializes() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 12,
            loop_budget: 12,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 7,
            ..TuneConfig::default()
        };
        let r = tune_graph(&g, intel_cpu(), cfg);
        let log = r.to_log(&g);
        assert!(log["measurements"].as_u64().unwrap() > 0);
        assert!(!log["best_so_far"].as_array().unwrap().is_empty());
        // Best-so-far curve is monotone non-increasing.
        let curve = log["best_so_far"].as_array().unwrap();
        let mut prev = f64::INFINITY;
        for p in curve {
            let v = p[1].as_f64().unwrap();
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn largest_divisor_helper() {
        assert_eq!(largest_divisor_at_most(64, 16), 16);
        assert_eq!(largest_divisor_at_most(60, 16), 15);
        assert_eq!(largest_divisor_at_most(7, 4), 1);
    }

    fn tmp_ck(name: &str) -> String {
        let dir = std::env::temp_dir().join("alt-tuner-ck");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.json", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn faulted_run_completes_with_exact_accounting() {
        let g = small_conv_graph();
        let (trace, sink) = Telemetry::memory();
        let cfg = TuneConfig {
            joint_budget: 20,
            loop_budget: 30,
            batch: 8,
            topk: 4,
            free_input_layouts: true,
            seed: 9,
            observer: Observer {
                trace,
                ..Observer::default()
            },
            faults: Some(FaultConfig::uniform(0.2)),
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        // Graceful degradation: the faulted run still completes and
        // returns a real plan with a real latency.
        assert!(result.latency.is_finite() && result.latency > 0.0);
        // Strict accounting survives faults: failed measurements consume
        // budget too, so the total is exactly joint + loop.
        assert_eq!(result.measurements, 50);
        let records = sink.records();
        let ok = records
            .iter()
            .filter(|r| matches!(r, Record::Measurement(_)))
            .count();
        let failed = records
            .iter()
            .filter(|r| matches!(r, Record::MeasurementFailure(_)))
            .count();
        assert!(failed > 0, "a 20% fault rate over 50 units must fault");
        assert_eq!(ok + failed, 50, "one trace record per budget unit");
        // seq is the budget counter: the union of success and failure
        // records covers 1..=50 exactly once.
        let mut seqs: Vec<u64> = records
            .iter()
            .filter_map(|r| match r {
                Record::Measurement(m) => Some(m.seq),
                Record::MeasurementFailure(f) => Some(f.seq),
                _ => None,
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=50).collect::<Vec<u64>>());
        for r in &records {
            if let Record::MeasurementFailure(f) = r {
                assert!(
                    matches!(f.kind.as_str(), "injected_compile" | "timeout"),
                    "unexpected failure kind {}",
                    f.kind
                );
                assert!(f.attempt >= 1);
            }
        }
        // Robustness counters flow through the run-level registry.
        assert!(records.iter().any(
            |r| matches!(r, Record::Counter(c) if c.scope == "tuner" && c.name.starts_with("failures."))
        ));
    }

    #[test]
    fn fault_runs_are_deterministic_given_seed() {
        let g = small_conv_graph();
        let mk = || TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 13,
            faults: Some(FaultConfig::uniform(0.2)),
            ..TuneConfig::default()
        };
        // The injector draws from the tuner's own stream, so the same
        // seed and fault config reproduce the whole run bit-for-bit.
        let a = tune_graph(&g, intel_cpu(), mk());
        let b = tune_graph(&g, intel_cpu(), mk());
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.measurements, b.measurements);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn resumed_run_matches_uninterrupted() {
        let g = small_conv_graph();
        let base = TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 21,
            ..TuneConfig::default()
        };
        let full = tune_graph(&g, intel_cpu(), base.clone());
        let path = tmp_ck("resume");
        let halted = tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                checkpoint_path: Some(path.clone()),
                halt_after: Some(16),
                ..base.clone()
            },
        );
        assert!(
            halted.measurements < full.measurements,
            "halted at {} of {}",
            halted.measurements,
            full.measurements
        );
        let ck = TunerCheckpoint::load(&path).unwrap();
        let resumed = tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                resume: Some(ck),
                ..base.clone()
            },
        );
        assert_eq!(resumed.latency, full.latency);
        assert_eq!(resumed.measurements, full.measurements);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumed_faulted_run_matches_uninterrupted() {
        let g = small_conv_graph();
        let base = TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 23,
            faults: Some(FaultConfig::uniform(0.2)),
            ..TuneConfig::default()
        };
        let full = tune_graph(&g, intel_cpu(), base.clone());
        let path = tmp_ck("resume-faulted");
        tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                checkpoint_path: Some(path.clone()),
                halt_after: Some(16),
                ..base.clone()
            },
        );
        let ck = TunerCheckpoint::load(&path).unwrap();
        let resumed = tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                resume: Some(ck),
                ..base.clone()
            },
        );
        assert_eq!(resumed.latency, full.latency);
        assert_eq!(resumed.measurements, full.measurements);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_rejects_wrong_seed_or_graph() {
        let g = small_conv_graph();
        let path = tmp_ck("reject");
        tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                joint_budget: 16,
                loop_budget: 16,
                batch: 8,
                topk: 2,
                free_input_layouts: true,
                seed: 31,
                checkpoint_path: Some(path.clone()),
                halt_after: Some(16),
                ..TuneConfig::default()
            },
        );
        let ck = TunerCheckpoint::load(&path).unwrap();
        assert!(ck.validate(&g, 32).is_err(), "wrong seed must be rejected");
        let mut other = Graph::new();
        let x = other.add_input("x", alt_tensor::Shape::new([1, 8, 18, 18]));
        let w = other.add_param("w", alt_tensor::Shape::new([8, 8, 3, 3]));
        let _ = alt_tensor::ops::conv2d(&mut other, x, w, ConvCfg::default());
        assert!(
            ck.validate(&other, 31).is_err(),
            "wrong graph must be rejected"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn timing_and_progress_do_not_change_the_run() {
        let g = small_conv_graph();
        let cfg = |timing: Timing, progress: bool, trace: Telemetry| TuneConfig {
            joint_budget: 12,
            loop_budget: 18,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 9,
            observer: Observer {
                trace,
                timing,
                progress,
                ..Observer::default()
            },
            ..TuneConfig::default()
        };
        let (t_plain, sink_plain) = Telemetry::memory();
        let plain = tune_graph(&g, intel_cpu(), cfg(Timing::disabled(), false, t_plain));
        let (t_timed, sink_timed) = Telemetry::memory();
        let timing = Timing::enabled();
        let timed = tune_graph(&g, intel_cpu(), cfg(timing.clone(), true, t_timed));
        // Timing and progress are observation-only: winner, budget,
        // history and the full deterministic trace are bit-identical.
        assert_eq!(plain.latency.to_bits(), timed.latency.to_bits());
        assert_eq!(plain.measurements, timed.measurements);
        assert_eq!(plain.history, timed.history);
        for k in 0..g.nodes().len() {
            assert_eq!(
                format!("{:?}", plain.sched.get(OpId(k))),
                format!("{:?}", timed.sched.get(OpId(k))),
                "winner schedule of op {k} must be bit-identical"
            );
        }
        assert_eq!(
            sink_plain.records().len(),
            sink_timed.records().len(),
            "timing must not add records to the deterministic trace"
        );
        // ... while the timing handle itself accumulated a phase tree.
        let root = timing.snapshot().expect("timing enabled");
        assert!(root.find("loop_stage").is_some(), "{root:?}");
        assert!(root.is_conserved(), "{root:?}");
    }

    #[test]
    fn timing_phase_tree_names_the_pipeline_stages() {
        let g = small_conv_graph();
        let timing = Timing::enabled();
        let cfg = TuneConfig {
            joint_budget: 12,
            loop_budget: 18,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 9,
            observer: Observer {
                timing: timing.clone(),
                ..Observer::default()
            },
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        let root = timing.snapshot().expect("timing enabled");
        assert!(root.is_conserved(), "{root:?}");
        let joint = root.find("joint_stage").expect("joint stage ran");
        let lp = root.find("loop_stage").expect("loop stage ran");
        // Every stage decomposes into the round phases; measure wraps
        // one `simulate` probe per consumed budget unit.
        for stage in [joint, lp] {
            assert!(stage.find("candidate_gen").is_some(), "{stage:?}");
            assert!(stage.find("lower").is_some(), "{stage:?}");
            assert!(stage.find("measure").is_some(), "{stage:?}");
        }
        let simulate_count: u64 = [joint, lp]
            .iter()
            .flat_map(|s| s.find("measure"))
            .filter_map(|m| m.find("simulate"))
            .map(|s| s.count)
            .sum();
        assert!(
            simulate_count <= result.measurements,
            "simulate probes ({simulate_count}) cannot exceed budget ({})",
            result.measurements
        );
        assert!(simulate_count > 0, "{root:?}");
        // The worker-side channel recorded per-candidate lowering times
        // into the wall registry.
        let hists = timing.registry().expect("enabled").histograms();
        assert!(
            hists.iter().any(|(n, _)| n == "candidate.lower_us"),
            "{hists:?}"
        );
        assert!(
            hists.iter().any(|(n, _)| n == "memo.lookup_us"),
            "{hists:?}"
        );
    }
}
