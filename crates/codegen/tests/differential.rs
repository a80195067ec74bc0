//! Differential harness: the native executor must be **bit-identical**
//! to the TIR interpreter — same stores, same accumulation order, same
//! predicated-slot semantics — on every machine profile, across random
//! layout/schedule chains and real model graphs.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use proptest::prelude::*;

use alt_codegen::compile;
use alt_codegen::ir::{CNode, ChunkKernel};
use alt_layout::{presets, Layout, LayoutPlan, LayoutPrim, PropagationMode};
use alt_loopir::tir::{BufId, LoweredGroup, SExpr, Stmt, TirNode};
use alt_loopir::{
    lower, pack_buffers, run_program, AxisTiling, GraphSchedule, LoopKind, OpSchedule, Program,
    StoreMode,
};
use alt_models::all_models;
use alt_sim::{all_profiles, MachineProfile};
use alt_tensor::exec::random_bindings;
use alt_tensor::expr::{Expr, Var};
use alt_tensor::op::{Cond, ScalarBinOp};
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, NdBuf, OpId, Shape, TensorId};

/// Runs interpreter and native executor on the same program and asserts
/// every unpacked tensor matches bit for bit.
fn assert_bit_identical(
    program: &Program,
    g: &Graph,
    plan: &LayoutPlan,
    bindings: &HashMap<TensorId, NdBuf>,
    profile: &MachineProfile,
    threads: usize,
    what: &str,
) {
    let want = run_program(program, g, plan, bindings);
    let kernel = compile(program, profile);
    let (got, _) = kernel.run(program, g, plan, bindings, threads);
    assert_eq!(want.len(), got.len(), "{what}: tensor set differs");
    for (t, w) in &want {
        let n = &got[t];
        assert_eq!(w.shape().dims(), n.shape().dims(), "{what}: shape");
        for (i, (a, b)) in w.data().iter().zip(n.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: tensor `{}` flat index {i} on {}: interp {a} vs native {b}",
                g.tensor(*t).name,
                profile.name
            );
        }
    }
}

fn gmm_graph(m: i64, k: i64, n: i64) -> (Graph, TensorId, OpId, TensorId) {
    let mut g = Graph::new();
    let a = g.add_input("a", Shape::new([m, k]));
    let b = g.add_param("b", Shape::new([k, n]));
    let y = ops::gmm(&mut g, a, b);
    let op = g.tensor(y).producer.unwrap();
    (g, a, op, y)
}

/// A schedule that turns on `@par` and `@vec` for every operator so the
/// parallel and vector-chunk paths are exercised.
fn par_vec_schedule(g: &Graph) -> GraphSchedule {
    let mut sched = GraphSchedule::naive();
    for k in 0..g.num_ops() {
        sched.set(
            OpId(k),
            OpSchedule {
                vectorize: true,
                parallel: true,
                ..OpSchedule::default()
            },
        );
    }
    sched
}

#[test]
fn naive_gmm_is_bit_identical_on_every_profile() {
    let (g, _, _, _) = gmm_graph(6, 8, 10);
    let plan = LayoutPlan::new(PropagationMode::Full);
    let program = lower(&g, &plan, &GraphSchedule::naive());
    let bindings = random_bindings(&g, 1);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "naive gmm");
    }
}

#[test]
fn tiled_conv_with_par_vec_is_bit_identical() {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
    let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
    let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let conv = g.tensor(y).producer.unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_output_layout(&g, conv, presets::nhwo(g.tensor(y).shape.clone()).unwrap());
    let mut sched = par_vec_schedule(&g);
    sched.set(
        conv,
        OpSchedule {
            spatial: vec![
                AxisTiling::none(),
                AxisTiling::one(4),
                AxisTiling::one(2),
                AxisTiling::none(),
            ],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let bindings = random_bindings(&g, 2);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "tiled conv");
    }
}

#[test]
fn padded_and_unfolded_layouts_are_bit_identical() {
    // Pad on the output exercises the pred-false Assign (zeroing) path;
    // Unfold-with-overhang on the input exercises conversion nests with
    // invalid slots.
    let (g, a, op, y) = gmm_graph(9, 4, 5);
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_output_layout(
        &g,
        op,
        Layout::identity(g.tensor(y).shape.clone())
            .with(LayoutPrim::Pad {
                dim: 1,
                before: 1,
                after: 2,
            })
            .unwrap(),
    );
    plan.assign_input_layout(
        &g,
        op,
        a,
        Layout::identity(g.tensor(a).shape.clone())
            .with(LayoutPrim::Unfold {
                dim: 0,
                tile: 4,
                stride: 3,
            })
            .unwrap(),
    );
    let program = lower(&g, &plan, &par_vec_schedule(&g));
    let bindings = random_bindings(&g, 3);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "pad+unfold gmm");
    }
}

#[test]
fn swizzled_morton_and_blockdiag_layouts_are_bit_identical() {
    // The PR-10 advanced primitives: XOR swizzle and block-diagonal
    // remap on the GMM weight's packed tiles, Morton interleave on the
    // output. All three are bijective, so interpreter and native must
    // agree bit for bit through the pack/compute/unpack pipeline.
    let (g, a, op, y) = gmm_graph(8, 8, 16);
    let b = g.tensor(y).producer.map(|p| g.node(p).inputs[1]).unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    // Output [8, 16]: tile to [2, 4, 4, 4] then Morton the equal pair.
    plan.assign_output_layout(
        &g,
        op,
        Layout::identity(g.tensor(y).shape.clone())
            .with(LayoutPrim::Split {
                dim: 0,
                factors: vec![2, 4],
            })
            .unwrap()
            .with(LayoutPrim::Split {
                dim: 2,
                factors: vec![4, 4],
            })
            .unwrap()
            .with(LayoutPrim::Morton { dim: 1 })
            .unwrap(),
    );
    // Input [8, 8]: channel-tiled + XOR swizzle of the inner tile.
    plan.assign_input_layout(
        &g,
        op,
        a,
        presets::channel_tiled_swizzled(g.tensor(a).shape.clone(), 4, 2).unwrap(),
    );
    // Weight [8, 16]: block-diagonal rotation of the last dim.
    plan.assign_input_layout(
        &g,
        op,
        b,
        presets::block_diag_rotated(g.tensor(b).shape.clone(), 3).unwrap(),
    );
    let program = lower(&g, &plan, &par_vec_schedule(&g));
    // The advanced layouts must also pass the integer-set legality
    // engine before execution (no conservative rejection regressions).
    let diags = alt_verify::verify_program(&g, &plan, &program);
    assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    let bindings = random_bindings(&g, 7);
    for p in all_profiles() {
        assert_bit_identical(
            &program,
            &g,
            &plan,
            &bindings,
            &p,
            4,
            "swizzle+morton+bdiag",
        );
    }
}

#[test]
fn vec_fast_path_and_parallel_loops_are_present() {
    // Guard against the fast paths silently compiling away: the conv
    // kernel above must actually contain vector-chunked and parallel
    // loops, otherwise the differential tests stop covering them.
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
    let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
    let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let conv = g.tensor(y).producer.unwrap();
    let plan = LayoutPlan::new(PropagationMode::Full);
    // Untiled axes have no inner spatial loops for `@vec` to land on, so
    // tile the spatial dims the same way the tiled-conv test does.
    let mut sched = par_vec_schedule(&g);
    sched.set(
        conv,
        OpSchedule {
            spatial: vec![
                AxisTiling::none(),
                AxisTiling::one(4),
                AxisTiling::one(2),
                AxisTiling::none(),
            ],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let kernel = compile(&program, &alt_sim::intel_cpu());
    let stats = kernel.stats();
    assert!(stats.vec_loops > 0, "no vector fast-path loops: {stats:?}");
    assert!(stats.par_loops > 0, "no parallel loops: {stats:?}");
    assert!(stats.iops > 0 && stats.fops > 0);
}

/// Model graphs end to end (prefix-truncated so the interpreter side
/// stays affordable): every profile, `@par`/`@vec` everywhere.
#[test]
fn model_prefixes_are_bit_identical_on_every_profile() {
    let cap: u64 = std::env::var("ALT_NATIVE_DIFF_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    for model in all_models(1) {
        let g = &model.graph;
        let plan = LayoutPlan::new(PropagationMode::Full);
        let program = lower(g, &plan, &par_vec_schedule(g)).truncated(cap);
        assert!(!program.groups.is_empty());
        let bindings = random_bindings(g, 5);
        for p in all_profiles() {
            assert_bit_identical(
                &program,
                g,
                &plan,
                &bindings,
                &p,
                4,
                &format!("model {}", model.name),
            );
        }
    }
}

/// A hand-written loop nest over `x: [rows, cols]` (an input) and
/// `y: [rows, cols]` (an intermediate), for paths lowering never
/// produces. `body(i, j, x, y)` builds the statements of
/// `for i in 0..rows { for j in 0..vec_extent @vec { ... } }`.
struct HandNest {
    graph: Graph,
    plan: LayoutPlan,
    program: Program,
}

impl HandNest {
    fn new(
        rows: i64,
        cols: i64,
        vec_extent: i64,
        body: impl FnOnce(&Var, &Var, BufId, BufId) -> Vec<Stmt>,
    ) -> Self {
        let mut graph = Graph::new();
        let x = graph.add_input("x", Shape::new([rows, cols]));
        let y = ops::relu(&mut graph, x);
        let plan = LayoutPlan::new(PropagationMode::Full);
        let mut program = lower(&graph, &plan, &GraphSchedule::naive());
        let xb = program.buffer_for_tensor(x).unwrap();
        let yb = program.buffer_for_tensor(y).unwrap();
        let (i, j) = (Var::new(1000, "i"), Var::new(1001, "j"));
        let stmts = body(&i, &j, xb, yb)
            .into_iter()
            .map(TirNode::Stmt)
            .collect();
        let inner = TirNode::loop_(j.clone(), vec_extent, LoopKind::Vectorized, stmts);
        program.groups = vec![LoweredGroup {
            root: graph.tensor(y).producer.unwrap(),
            fused: Vec::new(),
            nodes: vec![TirNode::loop_(i, rows, LoopKind::Serial, vec![inner])],
            label: "hand".into(),
        }];
        Self {
            graph,
            plan,
            program,
        }
    }

    /// Asserts the `@vec` loop took the expected path and that native
    /// equals the interpreter bit for bit on every profile.
    fn check(&self, chunked: bool, what: &str) {
        let stats = compile(&self.program, &alt_sim::intel_cpu()).stats();
        assert_eq!(stats.vec_loops, usize::from(chunked), "{what}: {stats:?}");
        assert_eq!(
            stats.scalar_vec_loops,
            usize::from(!chunked),
            "{what}: {stats:?}"
        );
        let bindings = random_bindings(&self.graph, 17);
        for p in all_profiles() {
            assert_bit_identical(
                &self.program,
                &self.graph,
                &self.plan,
                &bindings,
                &p,
                2,
                what,
            );
        }
    }
}

fn load(buf: BufId, i: &Expr, j: &Expr) -> SExpr {
    SExpr::Load {
        buf,
        indices: vec![i.clone(), j.clone()],
    }
}

fn bin(op: ScalarBinOp, a: SExpr, b: SExpr) -> SExpr {
    SExpr::Bin(op, Box::new(a), Box::new(b))
}

fn store(
    buf: BufId,
    i: &Expr,
    j: &Expr,
    mode: StoreMode,
    value: SExpr,
    pred: Option<Cond>,
) -> Stmt {
    Stmt {
        buf,
        indices: vec![i.clone(), j.clone()],
        value,
        mode,
        pred,
    }
}

#[test]
fn chunked_path_handles_ragged_extents() {
    // Extents below, at, and past the chunk width, none a multiple of it
    // beyond the first chunk; a general statement followed by a
    // contraction that reads its own store slot.
    for cols in [7, 64, 100, 130] {
        let nest = HandNest::new(3, cols, cols, |i, j, x, y| {
            let (i, j) = (Expr::v(i), Expr::v(j));
            let scaled = bin(ScalarBinOp::Mul, load(x, &i, &j), SExpr::Imm(2.0));
            vec![
                store(
                    y,
                    &i,
                    &j,
                    StoreMode::Assign,
                    bin(ScalarBinOp::Add, scaled, SExpr::Imm(1.0)),
                    None,
                ),
                store(
                    y,
                    &i,
                    &j,
                    StoreMode::AddAcc,
                    bin(ScalarBinOp::Mul, load(x, &i, &j), load(y, &i, &j)),
                    None,
                ),
            ]
        });
        let kernel = compile(&nest.program, &alt_sim::intel_cpu());
        let CNode::Loop(outer) = &kernel.groups[0].nodes[0] else {
            panic!("loop expected")
        };
        let CNode::Loop(inner) = &outer.body[0] else {
            panic!("loop expected")
        };
        let kernels: Vec<bool> = inner
            .vec
            .as_ref()
            .unwrap()
            .stmts
            .iter()
            .map(|s| matches!(s.kernel, ChunkKernel::Contract { .. }))
            .collect();
        assert_eq!(kernels, [false, true], "cols {cols}");
        nest.check(true, &format!("ragged extent {cols}"));
    }
}

#[test]
fn select_predicate_and_max_acc_run_chunked() {
    // A `Select` and predicates that depend only on the outer row are
    // constant within a chunk: rows 0 (pred-false Assign zeroes the
    // chunk) and 3.. (pred-false AddAcc skips it) take the invalid path.
    let nest = HandNest::new(5, 40, 40, |i, j, x, y| {
        let (iv, jv) = (Expr::v(i), Expr::v(j));
        let pick = SExpr::Select {
            cond: Cond::Lt(iv.clone(), Expr::c(2)),
            then_: Box::new(bin(ScalarBinOp::Mul, load(x, &iv, &jv), load(x, &iv, &jv))),
            else_: Box::new(bin(ScalarBinOp::Sub, load(x, &iv, &jv), SExpr::Imm(1.0))),
        };
        let half = bin(ScalarBinOp::Mul, load(x, &iv, &jv), SExpr::Imm(0.5));
        let square = bin(ScalarBinOp::Mul, load(x, &iv, &jv), load(x, &iv, &jv));
        vec![
            store(
                y,
                &iv,
                &jv,
                StoreMode::Assign,
                pick,
                Some(Cond::Ge(iv.clone(), Expr::c(1))),
            ),
            store(y, &iv, &jv, StoreMode::MaxAcc, half, None),
            store(
                y,
                &iv,
                &jv,
                StoreMode::AddAcc,
                square,
                Some(Cond::Lt(iv.clone(), Expr::c(3))),
            ),
        ]
    });
    nest.check(true, "select/pred/max_acc");
}

#[test]
fn ineligible_vec_loops_fall_back_to_scalar() {
    // Store stride 0: a reduction along the `@vec` axis into y[i, 0].
    let reduce = HandNest::new(4, 24, 24, |i, j, x, y| {
        let (iv, jv) = (Expr::v(i), Expr::v(j));
        vec![store(
            y,
            &iv,
            &Expr::c(0),
            StoreMode::AddAcc,
            load(x, &iv, &jv),
            None,
        )]
    });
    reduce.check(false, "store stride 0");
    // A load of the store buffer at a shifted offset: a prefix sum,
    // y[i, j+1] = y[i, j] + x[i, j+1], which chunking would break.
    let scan = HandNest::new(4, 70, 69, |i, j, x, y| {
        let (iv, jv) = (Expr::v(i), Expr::v(j));
        let next = jv.add_c(1);
        let sum = bin(ScalarBinOp::Add, load(y, &iv, &jv), load(x, &iv, &next));
        vec![store(y, &iv, &next, StoreMode::Assign, sum, None)]
    });
    scan.check(false, "shifted self-load");
    // A `Select` whose condition depends on the lane.
    let lane_cond = HandNest::new(2, 16, 16, |i, j, x, y| {
        let (iv, jv) = (Expr::v(i), Expr::v(j));
        let pick = SExpr::Select {
            cond: Cond::Lt(jv.clone(), Expr::c(5)),
            then_: Box::new(load(x, &iv, &jv)),
            else_: Box::new(SExpr::Imm(3.0)),
        };
        vec![store(y, &iv, &jv, StoreMode::Assign, pick, None)]
    });
    lane_cond.check(false, "lane-dependent select");
}

#[test]
#[should_panic(expected = "out of bounds")]
fn out_of_bounds_chunk_panics_in_release_builds() {
    // y[i, j + 5] over j < 16 runs past the end of y on the last row. The
    // chunked path checks first and last lane in every build, so this
    // panics instead of writing out of bounds even without debug
    // assertions.
    let nest = HandNest::new(2, 16, 16, |i, j, x, y| {
        let (iv, jv) = (Expr::v(i), Expr::v(j));
        vec![store(
            y,
            &iv,
            &jv.add_c(5),
            StoreMode::Assign,
            load(x, &iv, &jv),
            None,
        )]
    });
    let kernel = compile(&nest.program, &alt_sim::intel_cpu());
    assert_eq!(kernel.stats().vec_loops, 1, "the chunked path must run");
    let bindings = random_bindings(&nest.graph, 1);
    let mut bufs = pack_buffers(&nest.program, &nest.graph, &nest.plan, &bindings);
    kernel.execute(&mut bufs, 1);
}

#[test]
fn tuned_bert_tiny_vec_loops_are_chunked_and_gmm_loops_contract() {
    // The benchmark's program: BERT-tiny, intel, seed 0, budget 100.
    let graph = alt_models::bert_tiny(1);
    let compiled = alt_core::Compiler::new(alt_sim::intel_cpu())
        .with_options(alt_core::CompileOptions {
            joint_budget: 40,
            loop_budget: 60,
            seed: 0,
            ..alt_core::CompileOptions::default()
        })
        .compile(&graph);
    let kernel = compiled.native_kernel();
    let stats = kernel.stats();
    assert!(
        stats.vec_loops > 0 && stats.scalar_vec_loops == 0,
        "{stats:?}"
    );
    fn walk(nodes: &[CNode], gmm: bool, contractions: &mut usize) {
        for n in nodes {
            let CNode::Loop(l) = n else { continue };
            if let (true, Some(v)) = (gmm, &l.vec) {
                for (node, vs) in l.body.iter().zip(&v.stmts) {
                    if let CNode::Stmt(s) = node {
                        if s.mode == StoreMode::AddAcc {
                            assert!(matches!(vs.kernel, ChunkKernel::Contract { .. }), "{vs:?}");
                            *contractions += 1;
                        }
                    }
                }
            }
            walk(&l.body, gmm, contractions);
        }
    }
    let mut contractions = 0;
    for g in &kernel.groups {
        walk(
            &g.nodes,
            g.label.starts_with("gmm") || g.label.starts_with("batch_gmm"),
            &mut contractions,
        );
    }
    assert!(contractions > 0, "no gmm accumulation loops found");
    // A prefix of the tuned program (its layouts included) matches the
    // interpreter bit for bit.
    let program = compiled.program().truncated(300_000);
    let bindings = random_bindings(&graph, 3);
    let profile = compiled.target_profile();
    assert_bit_identical(
        &program,
        &graph,
        compiled.plan(),
        &bindings,
        profile,
        2,
        "tuned bert-tiny",
    );
}

fn divisors(n: i64) -> Vec<i64> {
    (1..=n).filter(|d| n % d == 0).collect()
}

fn pick(divs: &[i64], sel: u64) -> i64 {
    divs[(sel % divs.len() as u64) as usize]
}

/// Random factorization of `n` into >= 2 factors (seeded LCG), same
/// generator family as the verifier's property tests.
fn factorize(n: i64, rng_val: u64) -> Vec<i64> {
    let mut factors = Vec::new();
    let mut rest = n;
    let mut x = rng_val;
    while rest > 1 && factors.len() < 2 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let divs: Vec<i64> = (1..=rest).filter(|d| rest % d == 0).collect();
        let f = divs[(x >> 33) as usize % divs.len()];
        factors.push(f);
        rest /= f;
    }
    factors.push(rest);
    factors
}

/// Applies up to `n_prims` random primitives to an identity layout.
fn random_layout(shape: Shape, seed: u64, n_prims: usize) -> Layout {
    let mut layout = Layout::identity(shape);
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for _ in 0..n_prims {
        let dims = layout.physical_shape();
        let nd = dims.ndim();
        match next() % 8 {
            0 => {
                let candidates: Vec<usize> = (0..nd).filter(|&k| dims.dim(k) > 1).collect();
                if let Some(&k) = candidates.get(next() % candidates.len().max(1)) {
                    let factors = factorize(dims.dim(k), next() as u64);
                    if factors.len() >= 2 {
                        let _ = layout.apply(LayoutPrim::Split { dim: k, factors });
                    }
                }
            }
            1 => {
                let mut perm: Vec<usize> = (0..nd).collect();
                for i in (1..nd).rev() {
                    perm.swap(i, next() % (i + 1));
                }
                let _ = layout.apply(LayoutPrim::Reorder { perm });
            }
            2 => {
                if nd >= 2 {
                    let start = next() % (nd - 1);
                    let count = 2 + next() % (nd - start - 1).max(1);
                    let count = count.min(nd - start);
                    let _ = layout.apply(LayoutPrim::Fuse { start, count });
                }
            }
            3 => {
                let k = next() % nd;
                let d = dims.dim(k);
                if d >= 2 {
                    let tile = 2 + (next() as i64) % (d - 1);
                    let stride = 1 + (next() as i64) % tile;
                    let _ = layout.apply(LayoutPrim::Unfold {
                        dim: k,
                        tile,
                        stride,
                    });
                }
            }
            4 => {
                let k = next() % nd;
                let _ = layout.apply(LayoutPrim::Pad {
                    dim: k,
                    before: (next() % 3) as i64,
                    after: (next() % 3) as i64,
                });
            }
            5 => {
                if nd >= 2 {
                    let dim = next() % nd;
                    let src = next() % nd;
                    let bits = 1 + (next() % 2) as u32;
                    let _ = layout.apply(LayoutPrim::Swizzle { dim, src, bits });
                }
            }
            6 => {
                if nd >= 2 {
                    let dim = next() % (nd - 1);
                    let _ = layout.apply(LayoutPrim::Morton { dim });
                }
            }
            _ => {
                if nd >= 2 {
                    let dim = next() % nd;
                    let src = next() % nd;
                    let block = 1 + (next() as i64) % dims.dim(dim).max(2);
                    let _ = layout.apply(LayoutPrim::BlockDiag { dim, src, block });
                }
            }
        }
    }
    layout
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random layout chains on every GMM tensor plus random loop
    /// annotations: whatever lowering produces, native must equal the
    /// interpreter bit for bit on every machine profile.
    #[test]
    fn random_gmm_chains_are_bit_identical(
        seeds in prop::collection::vec(any::<u64>(), 3),
        n_prims in prop::collection::vec(0usize..4, 3),
        vectorize in any::<bool>(),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (g, a, op, y) = gmm_graph(6, 8, 10);
        let b = g.tensor(y).producer.map(|p| g.node(p).inputs[1]).unwrap();
        let mut plan = LayoutPlan::new(PropagationMode::Full);
        plan.assign_output_layout(
            &g,
            op,
            random_layout(g.tensor(y).shape.clone(), seeds[0], n_prims[0]),
        );
        plan.assign_input_layout(
            &g,
            op,
            a,
            random_layout(g.tensor(a).shape.clone(), seeds[1], n_prims[1]),
        );
        plan.assign_input_layout(
            &g,
            op,
            b,
            random_layout(g.tensor(b).shape.clone(), seeds[2], n_prims[2]),
        );
        let mut sched = GraphSchedule::naive();
        sched.set(op, OpSchedule {
            vectorize,
            parallel,
            ..OpSchedule::default()
        });
        let program = lower(&g, &plan, &sched);
        let bindings = random_bindings(&g, seed);
        for p in all_profiles() {
            assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "random gmm chain");
        }
    }

    /// Random conv tilings: tiled reductions reassociate differently from
    /// the reference executor, but native and interpreter must still
    /// agree exactly.
    #[test]
    fn random_conv_tilings_are_bit_identical(
        sel in prop::collection::vec(any::<u64>(), 4),
        vectorize in any::<bool>(),
        unroll in any::<bool>(),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
        let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
        let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let conv = g.tensor(y).producer.unwrap();
        let plan = LayoutPlan::new(PropagationMode::Full);
        let phys = plan.layout_of(&g, y).physical_shape();
        let spatial: Vec<AxisTiling> = (0..phys.ndim())
            .map(|d| {
                let t = pick(&divisors(phys.dim(d)), sel[d]);
                if t > 1 { AxisTiling::one(t) } else { AxisTiling::none() }
            })
            .collect();
        let mut sched = GraphSchedule::naive();
        sched.set(conv, OpSchedule {
            spatial,
            vectorize,
            unroll,
            parallel,
            ..OpSchedule::default()
        });
        let program = lower(&g, &plan, &sched);
        let bindings = random_bindings(&g, seed);
        for p in all_profiles() {
            assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "random conv tiling");
        }
    }
}
