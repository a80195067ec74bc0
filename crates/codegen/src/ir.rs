//! The compiled kernel representation.
//!
//! A [`NativeKernel`] mirrors the lowered loop tree of a
//! [`Program`](alt_loopir::Program), but with every symbolic index
//! expression replaced by a register id and every scalar body flattened
//! into a stack program. Two instruction sets exist:
//!
//! * **Integer ops** ([`IOp`]) compute loop-index arithmetic into a flat
//!   `i64` register file. Each op is placed in the *prologue* of the loop
//!   whose variable is its deepest dependency, so it re-executes exactly
//!   when one of its inputs changes (classic loop-invariant hoisting).
//!   Comparisons produce `0`/`1` registers consumed by predicated stores
//!   and `Select` branches.
//! * **Float ops** ([`FOp`]) evaluate one statement body as a small stack
//!   machine in the interpreter's recursive-descent order. `Select`
//!   becomes a conditional jump so only the taken arm touches memory.
//!
//! A `@vec` loop that passes the chunk eligibility analysis also carries
//! a [`VecBody`]: per statement, its lane strides and chunk kernel.

use alt_loopir::StoreMode;
use alt_tensor::expr::BinOp;
use alt_tensor::op::{ScalarBinOp, UnaryOp};

/// A three-address integer instruction over the `i64` register file.
#[derive(Clone, Copy, Debug)]
pub enum IOp {
    /// `regs[dst] = regs[a] <op> regs[b]` with the [`BinOp`] semantics of
    /// symbolic index expressions (`FloorDiv`/`Mod` are euclidean).
    Bin { op: BinOp, dst: u32, a: u32, b: u32 },
    /// `regs[dst] = (regs[a] >= regs[b]) as i64`.
    Ge { dst: u32, a: u32, b: u32 },
    /// `regs[dst] = (regs[a] < regs[b]) as i64`.
    Lt { dst: u32, a: u32, b: u32 },
    /// `regs[dst] = (regs[a] == regs[b]) as i64`.
    Eq { dst: u32, a: u32, b: u32 },
    /// `regs[dst] = (regs[a] != 0 && regs[b] != 0) as i64`.
    And { dst: u32, a: u32, b: u32 },
}

/// One stack-machine instruction of a statement body.
#[derive(Clone, Copy, Debug)]
pub enum FOp {
    /// Push a literal.
    Imm(f32),
    /// Push `bufs[buf][regs[off]]` (flat physical offset).
    Load { buf: u32, off: u32 },
    /// Pop `b`, pop `a`, push `a <op> b`.
    Bin(ScalarBinOp),
    /// Pop `a`, push `op(a)`.
    Un(UnaryOp),
    /// Jump to `to` when `regs[cond] == 0` (the `Select` else-arm).
    JumpIfZero { cond: u32, to: u32 },
    /// Unconditional jump (skips the else-arm after the then-arm).
    Jump { to: u32 },
}

/// A compiled store statement.
#[derive(Clone, Debug)]
pub struct CStmt {
    /// Destination buffer index.
    pub buf: u32,
    /// Register holding the flat physical store offset.
    pub off: u32,
    /// Register holding the validity predicate (`0` = invalid slot):
    /// false + `Assign` writes `0.0`, false + accumulation is skipped —
    /// the interpreter's pad/overhang semantics.
    pub pred: Option<u32>,
    /// Assignment vs. accumulation.
    pub mode: StoreMode,
    /// The body as a stack program; its evaluation order is the
    /// interpreter's recursive descent.
    pub fops: Vec<FOp>,
}

/// Lane width cap of one `@vec` chunk: the executor's per-thread value
/// stack holds this many lanes per slot, whatever the profile's SIMD
/// width.
pub const CHUNK: usize = 64;

/// Chunked execution plan of an eligible `@vec` loop.
///
/// A loop is eligible when its body is statements only and, for each of
/// them, every offset is affine in the loop variable, no predicate or
/// `Select` condition depends on it, and the store stride is not 0; and
/// every access to a buffer the body stores to uses that buffer's store
/// offset. Lanes then touch disjoint slots of every written buffer, so
/// running each statement over a whole chunk (in statement order) gives
/// every slot the same sequence of operations as the scalar loop, and the
/// integer prologue runs once per chunk at its first lane.
#[derive(Clone, Debug)]
pub struct VecBody {
    /// One plan per body statement, in body order.
    pub stmts: Vec<VecStmt>,
}

/// How one statement of a chunked loop runs across a chunk.
#[derive(Clone, Debug)]
pub struct VecStmt {
    /// Stride of the store offset in the loop variable (never 0).
    pub store_stride: i64,
    /// The chunk kernel.
    pub kernel: ChunkKernel,
}

/// The chunk kernel of one statement.
#[derive(Clone, Debug)]
pub enum ChunkKernel {
    /// Runs the statement's stack program with every value a chunk of
    /// lanes; each [`FOp`] is one slice loop.
    Eval {
        /// Lane stride per [`FOp`] position (non-`Load` positions hold 0).
        load_strides: Vec<i64>,
    },
    /// The contraction shape `dst = a × b` (`Assign`) or
    /// `dst = dst + a × b` (`AddAcc`) as one fused loop: per lane one
    /// multiply, then one add, exactly as the stack program computes it.
    Contract {
        /// The left factor.
        a: LaneLoad,
        /// The right factor.
        b: LaneLoad,
    },
}

/// A load with its lane stride.
#[derive(Clone, Copy, Debug)]
pub struct LaneLoad {
    /// Source buffer index.
    pub buf: u32,
    /// Register holding the offset of the chunk's first lane.
    pub off: u32,
    /// Offset step per lane.
    pub stride: i64,
}

/// A compiled loop nest node.
#[derive(Clone, Debug)]
pub enum CNode {
    Loop(CLoop),
    Stmt(CStmt),
}

/// A compiled loop.
#[derive(Clone, Debug)]
pub struct CLoop {
    /// Register holding the loop variable's current value.
    pub var_reg: u32,
    /// Trip count.
    pub extent: i64,
    /// Whether lowering marked this loop `@par` (spatial partitioning).
    pub parallel: bool,
    /// Whether lowering marked this loop `@vec`.
    pub vectorized: bool,
    /// Integer ops to run at the top of every iteration: exactly the ops
    /// whose deepest variable dependency is this loop's variable.
    pub prologue: Vec<IOp>,
    /// Loop body in source order.
    pub body: Vec<CNode>,
    /// Chunked execution plan; `Some` only for a `@vec` loop that passed
    /// the eligibility analysis (see [`VecBody`]). `None` runs the scalar
    /// loop.
    pub vec: Option<VecBody>,
}

/// One lowered group (a fused operator) in compiled form.
#[derive(Clone, Debug)]
pub struct CGroup {
    /// Human-readable label, copied from the lowered group.
    pub label: String,
    /// Integer ops with no loop-variable dependency; run once per group.
    pub prologue: Vec<IOp>,
    /// The compiled loop tree.
    pub nodes: Vec<CNode>,
}

/// A compiled program: the native counterpart of
/// [`Program`](alt_loopir::Program), executable by
/// [`NativeKernel::execute`](crate::exec).
#[derive(Clone, Debug)]
pub struct NativeKernel {
    /// Compiled groups in execution order.
    pub groups: Vec<CGroup>,
    /// Size of the `i64` register file.
    pub n_regs: usize,
    /// `(register, value)` pairs loaded once before execution.
    pub consts: Vec<(u32, i64)>,
    /// Value-stack depth (in chunks) the chunked statements need.
    pub chunk_depth: usize,
}

/// Static shape of a compiled kernel, for logs and smoke tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of compiled groups.
    pub groups: usize,
    /// Total integer ops across all prologues.
    pub iops: usize,
    /// Total float ops across all statement bodies.
    pub fops: usize,
    /// `@vec` loops on the chunked path (contraction loops included).
    pub vec_loops: usize,
    /// Chunked loops whose every statement runs the contraction kernel.
    pub contraction_loops: usize,
    /// `@vec` loops that failed the eligibility test and run the scalar
    /// loop.
    pub scalar_vec_loops: usize,
    /// Loops marked parallel.
    pub par_loops: usize,
}

impl NativeKernel {
    /// Counts the kernel's instructions and specialized loops.
    pub fn stats(&self) -> KernelStats {
        fn walk(nodes: &[CNode], s: &mut KernelStats) {
            for n in nodes {
                match n {
                    CNode::Stmt(st) => s.fops += st.fops.len(),
                    CNode::Loop(l) => {
                        s.iops += l.prologue.len();
                        match &l.vec {
                            Some(v) => {
                                s.vec_loops += 1;
                                if v.stmts
                                    .iter()
                                    .all(|st| matches!(st.kernel, ChunkKernel::Contract { .. }))
                                {
                                    s.contraction_loops += 1;
                                }
                            }
                            None if l.vectorized => s.scalar_vec_loops += 1,
                            None => {}
                        }
                        if l.parallel {
                            s.par_loops += 1;
                        }
                        walk(&l.body, s);
                    }
                }
            }
        }
        let mut s = KernelStats {
            groups: self.groups.len(),
            ..KernelStats::default()
        };
        for g in &self.groups {
            s.iops += g.prologue.len();
            walk(&g.nodes, &mut s);
        }
        s
    }
}
