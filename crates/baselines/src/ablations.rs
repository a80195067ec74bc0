//! ALT ablations from the paper's evaluation:
//!
//! * **ALT-OL** (§7.2) — loop optimization only, on channels-last
//!   (`NHWO`/`NDHWO`) layouts; no joint stage.
//! * **ALT-WP** (§7.2) — joint tuning with layout propagation limited to
//!   eliminating conversions between adjacent operators (Fig. 5b), i.e.
//!   no fusion alignment, so fusion conflicts remain.
//! * **ALT-FP / ALT-BP** (§7.3.2, Fig. 12) — forced forward/backward
//!   layout sharing across two consecutive complex operators, instead of
//!   tuning them independently with a conversion in between.

use alt_autotune::tune_graph;
use alt_autotune::tuner::{FixedLayout, TuneConfig, TuneResult};
use alt_layout::PropagationMode;
use alt_sim::MachineProfile;
use alt_tensor::Graph;

/// ALT-OL: loop-only tuning on channels-last layouts.
pub fn alt_ol(graph: &Graph, profile: MachineProfile, budget: u64, seed: u64) -> TuneResult {
    let cfg = TuneConfig {
        joint_budget: 0,
        loop_budget: budget,
        fixed_layout: Some(FixedLayout::ChannelsLast),
        free_input_layouts: true,
        seed,
        ..TuneConfig::default()
    };
    tune_graph(graph, profile, cfg)
}

/// ALT-WP: full joint tuning but without fusion-aligning propagation.
pub fn alt_wp(
    graph: &Graph,
    profile: MachineProfile,
    joint_budget: u64,
    loop_budget: u64,
    seed: u64,
) -> TuneResult {
    let cfg = TuneConfig {
        joint_budget,
        loop_budget,
        propagation: PropagationMode::WithoutFusionAlign,
        free_input_layouts: true,
        seed,
        ..TuneConfig::default()
    };
    tune_graph(graph, profile, cfg)
}

/// Full ALT with default configuration (joint + loop-only stages).
pub fn alt_full(
    graph: &Graph,
    profile: MachineProfile,
    joint_budget: u64,
    loop_budget: u64,
    seed: u64,
) -> TuneResult {
    let cfg = TuneConfig {
        joint_budget,
        loop_budget,
        free_input_layouts: true,
        seed,
        ..TuneConfig::default()
    };
    tune_graph(graph, profile, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_sim::intel_cpu;
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    fn chain_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 16, 18, 18]));
        let w = g.add_param("w", Shape::new([32, 16, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let r = ops::relu(&mut g, c);
        let w2 = g.add_param("w2", Shape::new([32, 32, 1, 1]));
        let _ = ops::conv2d(&mut g, r, w2, ConvCfg::default());
        g
    }

    #[test]
    fn ablations_run_and_order_sanely() {
        let g = chain_graph();
        let ol = alt_ol(&g, intel_cpu(), 96, 2);
        let wp = alt_wp(&g, intel_cpu(), 48, 48, 2);
        let full = alt_full(&g, intel_cpu(), 48, 48, 2);
        assert!(ol.latency.is_finite());
        assert!(wp.latency.is_finite());
        assert!(full.latency.is_finite());
        // Full ALT should be at least competitive with the ablations at
        // this budget (exact ordering is workload-dependent and the
        // budgets are tiny, but it must not be catastrophically worse).
        assert!(
            full.latency <= ol.latency * 2.0,
            "full {} vs ol {}",
            full.latency,
            ol.latency
        );
        assert!(
            full.latency <= wp.latency * 2.0,
            "full {} vs wp {}",
            full.latency,
            wp.latency
        );
    }
}
