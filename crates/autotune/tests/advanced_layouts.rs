//! End-to-end coverage for the opt-in advanced layout knob (`xform`):
//! the tuner explores XOR swizzle, block-diagonal remap, and Morton
//! interleave alongside the tiling factors, every visited point stays
//! decodable, the committed winner passes the integer-set legality
//! engine, and the winning program executes bit-identically on the
//! native executor and the TIR interpreter.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

use alt_autotune::tuner::LayoutSearch;
use alt_autotune::{build_layout_template_ex, TuneConfig, TuneResult};
use alt_journal::{JournalRecord, MemoryJournal};
use alt_sim::intel_cpu;
use alt_tensor::exec::random_bindings;
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};
use std::sync::Arc;

fn conv_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 16, 18, 18]));
    let w = g.add_param("w", Shape::new([32, 16, 3, 3]));
    let _ = ops::conv2d(&mut g, x, w, ConvCfg::default());
    g
}

fn tuned(advanced: bool, seed: u64) -> (TuneResult, Arc<MemoryJournal>) {
    let (journal, sink) = alt_journal::Journal::memory();
    let cfg = TuneConfig {
        joint_budget: 60,
        loop_budget: 40,
        batch: 16,
        topk: 4,
        advanced_layouts: advanced,
        layout_search: LayoutSearch::Random,
        free_input_layouts: true,
        seed,
        ..TuneConfig::default()
    };
    let handles = alt_autotune::Handles {
        observer: alt_autotune::Observer {
            journal,
            ..Default::default()
        },
        ..Default::default()
    };
    let result = alt_autotune::Tuner::new(&conv_graph(), intel_cpu(), cfg, handles).tune();
    (result, sink)
}

#[test]
fn advanced_tuning_explores_xforms_and_winner_is_bit_exact() {
    let g = conv_graph();
    let op = g.complex_ops()[0];
    let base_knobs = build_layout_template_ex(&g, op, 1, false)
        .unwrap()
        .space
        .knobs
        .len();

    let (result, sink) = tuned(true, 3);
    assert!(result.latency.is_finite() && result.latency > 0.0);

    // Every layout visit carries the extra trailing xform knob, and the
    // random search actually explores more than one transform choice.
    let mut xform_indices = BTreeSet::new();
    for r in sink.records() {
        if let JournalRecord::LayoutVisit(v) = r {
            assert_eq!(
                v.point.len(),
                base_knobs + 1,
                "advanced visit points carry the xform knob"
            );
            xform_indices.insert(*v.point.last().unwrap());
        }
    }
    assert!(
        xform_indices.len() >= 2,
        "expected more than one explored xform value, saw {xform_indices:?}"
    );

    // The committed winner must be statically legal and bit-exact:
    // native executor vs reference interpreter on real data.
    let program = alt_loopir::lower(&g, &result.plan, &result.sched);
    let diags = alt_verify::verify_program(&g, &result.plan, &program);
    assert!(diags.is_empty(), "winner has diagnostics: {diags:?}");
    let bindings = random_bindings(&g, 11);
    let want = alt_loopir::run_program(&program, &g, &result.plan, &bindings);
    let kernel = alt_codegen::compile(&program, &intel_cpu());
    let (got, _) = kernel.run(&program, &g, &result.plan, &bindings, 2);
    assert_eq!(want.len(), got.len());
    for (t, w) in &want {
        let n = &got[t];
        for (a, b) in w.data().iter().zip(n.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "winner not bit-exact");
        }
    }
}

#[test]
fn default_tuning_is_unchanged_by_the_feature() {
    // With the flag off the template must not grow: visited points keep
    // the original knob count, so seeded baselines stay reproducible.
    let g = conv_graph();
    let op = g.complex_ops()[0];
    let base_knobs = build_layout_template_ex(&g, op, 1, false)
        .unwrap()
        .space
        .knobs
        .len();
    let (result, sink) = tuned(false, 3);
    assert!(result.latency.is_finite() && result.latency > 0.0);
    for r in sink.records() {
        if let JournalRecord::LayoutVisit(v) = r {
            assert_eq!(v.point.len(), base_knobs);
        }
    }
}
