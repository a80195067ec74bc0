//! PPO pretraining (paper §6: the agent is pretrained by optimizing
//! several C2D and GMM workloads, then transferred to new tuning tasks —
//! Fig. 11's PPO-Pret).

use alt_sim::MachineProfile;
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};

use crate::measure::Measurer;
use crate::ppo::{pad_obs, PpoAgent, PpoWeights, SharedCritic};
use crate::space::{apply_layout_decision, build_layout_template, decode_layout_point};
use crate::tuner::{base_schedule, tune_graph, TuneConfig};

/// Builds the pretraining workload set: a few C2D and GMM shapes.
fn workloads() -> Vec<Graph> {
    let mut out = Vec::new();
    for (i, o, hw, k) in [(16, 32, 18, 3), (32, 64, 16, 1), (8, 16, 34, 3)] {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, i, hw, hw]));
        let w = g.add_param("w", Shape::new([o, i, k, k]));
        let _ = ops::conv2d(&mut g, x, w, ConvCfg::default());
        out.push(g);
    }
    for (m, k, n) in [(64, 64, 64), (32, 128, 64)] {
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new([m, k]));
        let b = g.add_param("b", Shape::new([k, n]));
        let _ = ops::gmm(&mut g, a, b);
        out.push(g);
    }
    out
}

/// Pretrains a PPO agent by running layout tuning over the workload set
/// and returning the final actor/critic weights.
///
/// `episodes_per_workload` controls training length (the paper spends
/// half a day on a V100; a few hundred episodes on the simulator give
/// the same transfer effect).
pub fn pretrain_ppo(
    profile: MachineProfile,
    episodes_per_workload: usize,
    seed: u64,
) -> PpoWeights {
    let critic = SharedCritic::new(seed);
    let mut agent = PpoAgent::new(critic, seed + 1);
    for (wi, graph) in workloads().iter().enumerate() {
        let mut measurer = Measurer::new(graph, profile);
        let mut plan = alt_layout::LayoutPlan::new(alt_layout::PropagationMode::Full);
        let mut sched = base_schedule(graph);
        let op = graph.complex_ops()[0];
        let Some(tmpl) = build_layout_template(graph, op, 1) else {
            continue;
        };
        let n = tmpl.space.knobs.len();
        let mut cur: Vec<usize> = tmpl
            .space
            .knobs
            .iter()
            .map(|k| k.options.len() / 2)
            .collect();
        let mut ref_lat = None;
        for _ in 0..episodes_per_workload {
            let obs = pad_obs(tmpl.space.encode(&cur));
            let (acts, logp) = agent.act(&obs);
            let point = tmpl.space.decode_actions(&acts[..n]);
            let Ok(decision) = decode_layout_point(graph, &tmpl, &point) else {
                continue;
            };
            plan.reset();
            apply_layout_decision(graph, &mut plan, op, &decision, true);
            // One quick loop-tuning pass via the main tuner machinery
            // would be expensive here; a fixed vectorized/parallel
            // schedule is enough signal for layout pretraining.
            let mut s = sched.get(op);
            s.vectorize = true;
            s.parallel = true;
            s.unroll = true;
            sched.set(op, s);
            // Pretraining runs without fault injection, so measurement
            // only fails on a genuinely unlowerable point; skip those.
            let Ok(lat) = measurer.measure_op(&plan, &sched, op) else {
                continue;
            };
            let r0 = *ref_lat.get_or_insert(lat);
            let reward = 2.0 - (lat / r0) as f32;
            agent.store(obs, acts, logp, reward);
            cur = point;
        }
        agent.update();
        let _ = wi;
    }
    agent.weights()
}

/// Convenience: runs a tuning session with pretrained weights.
pub fn tune_with_pretraining(
    graph: &Graph,
    profile: MachineProfile,
    mut cfg: TuneConfig,
    pretrain_episodes: usize,
) -> crate::tuner::TuneResult {
    let weights = pretrain_ppo(profile, pretrain_episodes, cfg.seed ^ 0x5048);
    cfg.pretrained = Some(weights);
    tune_graph(graph, profile, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_sim::intel_cpu;

    #[test]
    fn pretraining_produces_weights() {
        let w = pretrain_ppo(intel_cpu(), 8, 11);
        let json = serde_json::to_string(&w).unwrap();
        assert!(json.len() > 1000);
    }
}
