//! Lowered-program → native-kernel compilation.
//!
//! The compiler walks the TIR loop tree once. Every symbolic integer
//! expression (store offsets, load offsets, predicate operands) is
//! flattened against the physical buffer strides into a single `Expr`,
//! then compiled to three-address [`IOp`]s with hash-consing CSE: the
//! `Expr` type is hash-comparable, so structurally equal subexpressions
//! share one register. Each op is *placed* in the prologue of the loop
//! whose variable is its deepest dependency — outer-loop-invariant index
//! math is computed once per outer iteration instead of once per element,
//! which is where most of the interpreter's time went.
//!
//! CSE entries are scoped: when a loop is popped, every expression whose
//! defining op lives in that loop's prologue is evicted (its register is
//! stale outside the loop), while expressions hoisted to enclosing loops
//! stay shared across siblings. Group-level (loop-invariant) entries stay
//! valid for the whole program because the register file persists across
//! groups on the executing thread.

use std::collections::HashMap;

use alt_loopir::tir::{BufId, Program, SExpr, Stmt, TirNode};
use alt_loopir::{LoopKind, StoreMode};
use alt_sim::MachineProfile;
use alt_tensor::expr::{Expr, VarExtents};
use alt_tensor::op::{Cond, ScalarBinOp};

use crate::ir::{
    CGroup, CLoop, CNode, CStmt, ChunkKernel, FOp, IOp, LaneLoad, NativeKernel, VecBody, VecStmt,
};

/// Symbolic side table of one compiled statement, kept only during
/// compilation to drive the chunk eligibility analysis.
struct StmtSym {
    /// Flattened store-offset expression.
    store_off: Expr,
    /// `(fop index, buffer, flattened offset expression)` per load.
    loads: Vec<(usize, u32, Expr)>,
    /// Every condition the statement consults: the store predicate plus
    /// all `Select` conditions.
    conds: Vec<Cond>,
}

struct Scope {
    /// Ops placed at this loop level (the loop's per-iteration prologue).
    ops: Vec<IOp>,
    /// CSE keys whose defining op lives at this level; evicted on pop.
    owned: Vec<Expr>,
}

impl Scope {
    fn new() -> Self {
        Self {
            ops: Vec::new(),
            owned: Vec::new(),
        }
    }
}

struct Compiler {
    /// Row-major physical strides per buffer.
    strides: Vec<Vec<i64>>,
    /// Trip count of every in-scope loop variable, for range folding.
    extents: VarExtents,
    /// Deepest value stack of any chunked statement.
    chunk_depth: usize,
    next_reg: u32,
    const_regs: HashMap<i64, u32>,
    var_regs: HashMap<u32, u32>,
    /// Loop-scope index of each in-scope variable.
    var_scope: HashMap<u32, usize>,
    /// Hash-consing table: expression → (register, defining scope index).
    memo: HashMap<Expr, (u32, usize)>,
    /// Scope stack; index 0 is the group root and never pops.
    scopes: Vec<Scope>,
}

impl Compiler {
    fn fresh(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn const_reg(&mut self, v: i64) -> u32 {
        if let Some(&r) = self.const_regs.get(&v) {
            return r;
        }
        let r = self.fresh();
        self.const_regs.insert(v, r);
        r
    }

    /// Compiles an integer expression; returns its register and the scope
    /// index of its defining op (0 = group-invariant).
    fn compile_expr(&mut self, e: &Expr) -> (u32, usize) {
        match e {
            Expr::Const(v) => (self.const_reg(*v), 0),
            Expr::Var(v) => {
                let reg = *self
                    .var_regs
                    .get(&v.id())
                    .unwrap_or_else(|| panic!("loop variable `{v}` not in scope"));
                (reg, self.var_scope[&v.id()])
            }
            Expr::Bin(op, a, b) => {
                if let Some(&(reg, level)) = self.memo.get(e) {
                    return (reg, level);
                }
                let (ra, la) = self.compile_expr(a);
                let (rb, lb) = self.compile_expr(b);
                let level = la.max(lb);
                let dst = self.fresh();
                self.scopes[level].ops.push(IOp::Bin {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
                self.memo.insert(e.clone(), (dst, level));
                self.scopes[level].owned.push(e.clone());
                (dst, level)
            }
        }
    }

    /// Compiles a predicate to a `0`/`1` register.
    fn compile_cond(&mut self, c: &Cond) -> (u32, usize) {
        let (mk, a, b): (fn(u32, u32, u32) -> IOp, _, _) = match c {
            Cond::Ge(a, b) => (|dst, a, b| IOp::Ge { dst, a, b }, a, b),
            Cond::Lt(a, b) => (|dst, a, b| IOp::Lt { dst, a, b }, a, b),
            Cond::Eq(a, b) => (|dst, a, b| IOp::Eq { dst, a, b }, a, b),
            Cond::And(l, r) => {
                let (ra, la) = self.compile_cond(l);
                let (rb, lb) = self.compile_cond(r);
                let level = la.max(lb);
                let dst = self.fresh();
                self.scopes[level].ops.push(IOp::And { dst, a: ra, b: rb });
                return (dst, level);
            }
        };
        let (ra, la) = self.compile_expr(a);
        let (rb, lb) = self.compile_expr(b);
        let level = la.max(lb);
        let dst = self.fresh();
        self.scopes[level].ops.push(mk(dst, ra, rb));
        (dst, level)
    }

    /// Flattens multi-dimensional physical indices into one offset
    /// expression against the buffer's row-major strides. The `Expr`
    /// smart constructors constant-fold, so layouts with constant index
    /// components collapse at compile time, and range folding over the
    /// enclosing loop extents removes the divisions and remainders that
    /// cannot change value (`(o*64 + i) / 512` is `0` for `o < 8`,
    /// `i < 64`), which keeps such offsets affine.
    fn flat_offset(&self, buf: BufId, indices: &[Expr]) -> Expr {
        let strides = &self.strides[buf.0];
        let mut off = Expr::c(0);
        for (e, &s) in indices.iter().zip(strides) {
            off = off.add(&e.mul_c(s));
        }
        off.fold_ranges(&self.extents)
    }

    /// Compiles a scalar body to a stack program in recursive-descent
    /// (interpreter) order, recording load offsets and `Select`
    /// conditions in `sym`.
    fn compile_sexpr(&mut self, e: &SExpr, fops: &mut Vec<FOp>, sym: &mut StmtSym) {
        match e {
            SExpr::Imm(v) => fops.push(FOp::Imm(*v)),
            SExpr::Load { buf, indices } => {
                let off_sym = self.flat_offset(*buf, indices);
                let (off, _) = self.compile_expr(&off_sym);
                sym.loads.push((fops.len(), buf.0 as u32, off_sym));
                fops.push(FOp::Load {
                    buf: buf.0 as u32,
                    off,
                });
            }
            SExpr::Bin(op, a, b) => {
                self.compile_sexpr(a, fops, sym);
                self.compile_sexpr(b, fops, sym);
                fops.push(FOp::Bin(*op));
            }
            SExpr::Unary(op, a) => {
                self.compile_sexpr(a, fops, sym);
                fops.push(FOp::Un(*op));
            }
            SExpr::Select { cond, then_, else_ } => {
                sym.conds.push(cond.clone());
                let (creg, _) = self.compile_cond(cond);
                let jz = fops.len();
                fops.push(FOp::JumpIfZero { cond: creg, to: 0 });
                self.compile_sexpr(then_, fops, sym);
                let j = fops.len();
                fops.push(FOp::Jump { to: 0 });
                let else_start = fops.len() as u32;
                if let FOp::JumpIfZero { to, .. } = &mut fops[jz] {
                    *to = else_start;
                }
                self.compile_sexpr(else_, fops, sym);
                let end = fops.len() as u32;
                if let FOp::Jump { to } = &mut fops[j] {
                    *to = end;
                }
            }
        }
    }

    fn compile_stmt(&mut self, s: &Stmt) -> (CStmt, StmtSym) {
        let store_off = self.flat_offset(s.buf, &s.indices);
        let (off, _) = self.compile_expr(&store_off);
        let mut sym = StmtSym {
            store_off,
            loads: Vec::new(),
            conds: Vec::new(),
        };
        let pred = s.pred.as_ref().map(|c| {
            sym.conds.push(c.clone());
            self.compile_cond(c).0
        });
        let mut fops = Vec::new();
        self.compile_sexpr(&s.value, &mut fops, &mut sym);
        (
            CStmt {
                buf: s.buf.0 as u32,
                off,
                pred,
                mode: s.mode,
                fops,
            },
            sym,
        )
    }

    fn compile_nodes(&mut self, nodes: &[TirNode]) -> (Vec<CNode>, Vec<Option<StmtSym>>) {
        let mut out = Vec::with_capacity(nodes.len());
        let mut syms = Vec::with_capacity(nodes.len());
        for node in nodes {
            match node {
                TirNode::Stmt(s) => {
                    let (cs, sym) = self.compile_stmt(s);
                    out.push(CNode::Stmt(cs));
                    syms.push(Some(sym));
                }
                TirNode::Loop {
                    var,
                    extent,
                    kind,
                    body,
                } => {
                    let var_reg = self.fresh();
                    self.var_regs.insert(var.id(), var_reg);
                    self.var_scope.insert(var.id(), self.scopes.len());
                    self.extents.insert(var.id(), *extent);
                    self.scopes.push(Scope::new());
                    let (cbody, bsyms) = self.compile_nodes(body);
                    let scope = self.scopes.pop().expect("scope pushed above");
                    for key in &scope.owned {
                        self.memo.remove(key);
                    }
                    self.var_regs.remove(&var.id());
                    self.var_scope.remove(&var.id());
                    self.extents.remove(&var.id());
                    let vectorized = *kind == LoopKind::Vectorized;
                    let vec = if vectorized {
                        vec_body(var.id(), &cbody, &bsyms)
                    } else {
                        None
                    };
                    if let Some(v) = &vec {
                        for (node, vs) in cbody.iter().zip(&v.stmts) {
                            if let (CNode::Stmt(st), ChunkKernel::Eval { .. }) = (node, &vs.kernel)
                            {
                                self.chunk_depth = self.chunk_depth.max(stack_depth(&st.fops));
                            }
                        }
                    }
                    out.push(CNode::Loop(CLoop {
                        var_reg,
                        extent: *extent,
                        parallel: *kind == LoopKind::Parallel,
                        vectorized,
                        prologue: scope.ops,
                        body: cbody,
                        vec,
                    }));
                    syms.push(None);
                }
            }
        }
        (out, syms)
    }
}

fn cond_uses_var(c: &Cond, var: u32) -> bool {
    match c {
        Cond::Ge(a, b) | Cond::Lt(a, b) | Cond::Eq(a, b) => a.uses_var(var) || b.uses_var(var),
        Cond::And(l, r) => cond_uses_var(l, var) || cond_uses_var(r, var),
    }
}

/// Maximum value-stack depth of a stack program. Scanning in program
/// order counts a `Select`'s else-arm on top of its then-arm's value,
/// which over-estimates by one per `Select`; the bound stays safe.
fn stack_depth(fops: &[FOp]) -> usize {
    let (mut depth, mut max) = (0usize, 0usize);
    for op in fops {
        match op {
            FOp::Imm(_) | FOp::Load { .. } => depth += 1,
            FOp::Bin(_) => depth -= 1,
            FOp::Un(_) | FOp::JumpIfZero { .. } | FOp::Jump { .. } => {}
        }
        max = max.max(depth);
    }
    max
}

/// Chunk eligibility of a `@vec` loop body (see [`VecBody`]): statements
/// only; per statement, offsets affine in `var`, conditions independent
/// of it, a nonzero store stride; and every access to a buffer the body
/// stores to at that buffer's store offset, so lanes never share a
/// written slot.
fn vec_body(var: u32, body: &[CNode], syms: &[Option<StmtSym>]) -> Option<VecBody> {
    let pairs: Vec<(&CStmt, &StmtSym)> = body
        .iter()
        .zip(syms)
        .map(|pair| match pair {
            (CNode::Stmt(st), Some(sym)) => Some((st, sym)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    let same_slot = |buf: u32, off: &Expr| {
        pairs
            .iter()
            .all(|(st, sym)| st.buf != buf || off.linear_eq(&sym.store_off))
    };
    let mut stmts = Vec::with_capacity(pairs.len());
    for &(st, sym) in &pairs {
        if sym.conds.iter().any(|c| cond_uses_var(c, var)) || !same_slot(st.buf, &sym.store_off) {
            return None;
        }
        let store_stride = sym.store_off.affine_coeff(var).filter(|&k| k != 0)?;
        let mut load_strides = vec![0i64; st.fops.len()];
        for (idx, buf, off) in &sym.loads {
            if !same_slot(*buf, off) {
                return None;
            }
            load_strides[*idx] = off.affine_coeff(var)?;
        }
        let kernel = match (st.mode, st.fops.as_slice()) {
            (
                StoreMode::Assign | StoreMode::AddAcc,
                [FOp::Load { buf: ab, off: ao }, FOp::Load { buf: bb, off: bo }, FOp::Bin(ScalarBinOp::Mul)],
            ) => ChunkKernel::Contract {
                a: LaneLoad {
                    buf: *ab,
                    off: *ao,
                    stride: load_strides[0],
                },
                b: LaneLoad {
                    buf: *bb,
                    off: *bo,
                    stride: load_strides[1],
                },
            },
            _ => ChunkKernel::Eval { load_strides },
        };
        stmts.push(VecStmt {
            store_stride,
            kernel,
        });
    }
    Some(VecBody { stmts })
}

/// Compiles a lowered program into a [`NativeKernel`]. The kernel does
/// not depend on the machine profile: `@vec` chunks have the fixed width
/// [`CHUNK`](crate::ir::CHUNK), whatever the profile's SIMD width.
pub fn compile(program: &Program, _profile: &MachineProfile) -> NativeKernel {
    let mut c = Compiler {
        strides: program.buffers.iter().map(|b| b.shape.strides()).collect(),
        extents: VarExtents::new(),
        chunk_depth: 0,
        next_reg: 0,
        const_regs: HashMap::new(),
        var_regs: HashMap::new(),
        var_scope: HashMap::new(),
        memo: HashMap::new(),
        scopes: vec![Scope::new()],
    };
    let mut groups = Vec::with_capacity(program.groups.len());
    for g in &program.groups {
        c.scopes[0].ops = Vec::new();
        let (nodes, _) = c.compile_nodes(&g.nodes);
        let prologue = std::mem::take(&mut c.scopes[0].ops);
        groups.push(CGroup {
            label: g.label.clone(),
            prologue,
            nodes,
        });
    }
    let mut consts: Vec<(u32, i64)> = c.const_regs.iter().map(|(&v, &r)| (r, v)).collect();
    consts.sort_unstable();
    NativeKernel {
        groups,
        n_regs: c.next_reg as usize,
        consts,
        chunk_depth: c.chunk_depth,
    }
}
