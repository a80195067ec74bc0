//! Kernel execution over raw `f32` buffers.
//!
//! The executor interprets the compiled instruction streams directly —
//! integer prologues into a flat register file, statement bodies on a
//! reusable value stack — touching buffers only through precomputed flat
//! offsets. Three loop strategies exist:
//!
//! * **Scalar**: bind the loop register, run the prologue, run the body.
//!   Every loop without a chunk plan takes it, `@vec` loops that failed
//!   the eligibility test included.
//! * **Chunked** (`@vec` loops with a [`VecBody`]): run the prologue once
//!   per chunk of up to [`CHUNK`] lanes, then run each statement over the
//!   whole chunk — every [`FOp`] is one slice loop over lane values, and
//!   the contraction shape `dst (+)= a × b` is one fused loop. Each lane
//!   performs exactly the scalar loop's operations (a multiply, then an
//!   add; no fused multiply-add, no reassociation), and lanes touch
//!   disjoint written slots, so results are bit-identical to the
//!   interpreter.
//! * **Parallel** (`@par`): split the iteration space into contiguous
//!   ranges on scoped threads. Lowering marks only spatial loops
//!   parallel, so ranges write disjoint slots and per-slot accumulation
//!   order is preserved; nested parallel loops run serially inside a
//!   worker.
//!
//! Chunked accesses are bounds-checked in every build: offsets are affine
//! across a chunk, so checking the first and last lane once per chunk
//! covers every lane, and a violation panics instead of touching memory
//! out of bounds. Scalar accesses are checked in debug builds only.

use std::collections::HashMap;
use std::time::Instant;

use alt_layout::LayoutPlan;
use alt_loopir::tir::Program;
use alt_loopir::{pack_buffers, unpack_buffers, StoreMode};
use alt_tensor::expr::BinOp;
use alt_tensor::op::ScalarBinOp;
use alt_tensor::{Graph, NdBuf, TensorId};

use crate::ir::{
    CGroup, CLoop, CNode, CStmt, ChunkKernel, FOp, IOp, LaneLoad, NativeKernel, VecBody, VecStmt,
    CHUNK,
};

/// Wall-clock accounting of one native run.
#[derive(Clone, Debug)]
pub struct NativeRunStats {
    /// `(group label, microseconds)` per lowered group, execution order.
    pub group_us: Vec<(String, f64)>,
    /// End-to-end kernel time in microseconds (excludes pack/unpack).
    pub total_us: f64,
    /// Worker thread cap the run used.
    pub threads: usize,
}

/// Default worker-thread cap: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct BufPtr {
    ptr: *mut f32,
    len: usize,
}

/// Shared view of the buffer table for worker threads. Safety rests on
/// the lowering invariant that parallel iterations write disjoint slots;
/// reads may alias freely (no `&mut` references exist during execution).
struct Bufs {
    slots: Vec<BufPtr>,
}

unsafe impl Send for Bufs {}
unsafe impl Sync for Bufs {}

impl Bufs {
    #[inline]
    fn read(&self, buf: u32, off: i64) -> f32 {
        let s = &self.slots[buf as usize];
        debug_assert!(
            off >= 0 && (off as usize) < s.len,
            "load offset {off} out of bounds for buffer {buf} (len {})",
            s.len
        );
        unsafe { *s.ptr.add(off as usize) }
    }

    #[inline]
    fn write(&self, buf: u32, off: i64, v: f32) {
        let s = &self.slots[buf as usize];
        debug_assert!(
            off >= 0 && (off as usize) < s.len,
            "store offset {off} out of bounds for buffer {buf} (len {})",
            s.len
        );
        unsafe { *s.ptr.add(off as usize) = v };
    }

    /// Pointer to lane 0 of an access spanning `lanes` lanes from `off`
    /// in steps of `stride`. Checks the first and last lane against the
    /// buffer length, which bounds every lane in between, and panics on
    /// a violation.
    #[inline]
    fn lanes(&self, buf: u32, off: i64, stride: i64, lanes: usize) -> *mut f32 {
        let s = &self.slots[buf as usize];
        let last = off + stride * (lanes as i64 - 1);
        assert!(
            off.min(last) >= 0 && (off.max(last) as usize) < s.len,
            "chunk offsets {off}..={last} out of bounds for buffer {buf} (len {})",
            s.len
        );
        // SAFETY: `off` lies within the checked range.
        unsafe { s.ptr.add(off as usize) }
    }
}

/// Per-thread mutable execution state.
struct ThreadState {
    regs: Vec<i64>,
    stack: Vec<f32>,
    /// Value stack of the chunked path, one chunk of lanes per slot.
    lanes: Vec<[f32; CHUNK]>,
}

impl ThreadState {
    fn new(regs: Vec<i64>, kernel: &NativeKernel) -> Self {
        Self {
            regs,
            stack: Vec::new(),
            lanes: vec![[0.0; CHUNK]; kernel.chunk_depth],
        }
    }
}

#[inline]
fn apply_ibin(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::FloorDiv => x.div_euclid(y),
        BinOp::Mod => x.rem_euclid(y),
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
    }
}

#[inline]
fn apply_fbin(op: ScalarBinOp, x: f32, y: f32) -> f32 {
    match op {
        ScalarBinOp::Add => x + y,
        ScalarBinOp::Sub => x - y,
        ScalarBinOp::Mul => x * y,
        ScalarBinOp::Div => x / y,
        ScalarBinOp::Max => x.max(y),
        ScalarBinOp::Min => x.min(y),
    }
}

#[inline]
fn run_iops(ops: &[IOp], regs: &mut [i64]) {
    for op in ops {
        match *op {
            IOp::Bin { op, dst, a, b } => {
                regs[dst as usize] = apply_ibin(op, regs[a as usize], regs[b as usize]);
            }
            IOp::Ge { dst, a, b } => {
                regs[dst as usize] = i64::from(regs[a as usize] >= regs[b as usize]);
            }
            IOp::Lt { dst, a, b } => {
                regs[dst as usize] = i64::from(regs[a as usize] < regs[b as usize]);
            }
            IOp::Eq { dst, a, b } => {
                regs[dst as usize] = i64::from(regs[a as usize] == regs[b as usize]);
            }
            IOp::And { dst, a, b } => {
                regs[dst as usize] = i64::from(regs[a as usize] != 0 && regs[b as usize] != 0);
            }
        }
    }
}

#[inline]
fn pop(stack: &mut Vec<f32>) -> f32 {
    stack.pop().expect("compiled stack program underflow")
}

struct Runner<'k> {
    kernel: &'k NativeKernel,
    bufs: Bufs,
    threads: usize,
}

impl Runner<'_> {
    fn run_group(&self, g: &CGroup, st: &mut ThreadState) {
        run_iops(&g.prologue, &mut st.regs);
        self.run_nodes(&g.nodes, st, true);
    }

    fn run_nodes(&self, nodes: &[CNode], st: &mut ThreadState, par_ok: bool) {
        for n in nodes {
            match n {
                CNode::Stmt(s) => self.run_stmt(s, st),
                CNode::Loop(l) => self.run_loop(l, st, par_ok),
            }
        }
    }

    fn run_loop(&self, l: &CLoop, st: &mut ThreadState, par_ok: bool) {
        if l.parallel && par_ok && self.threads > 1 && l.extent > 1 {
            return self.run_parallel(l, st);
        }
        if let Some(v) = &l.vec {
            return self.run_vec(l, v, st);
        }
        for i in 0..l.extent {
            st.regs[l.var_reg as usize] = i;
            run_iops(&l.prologue, &mut st.regs);
            self.run_nodes(&l.body, st, par_ok);
        }
    }

    /// Contiguous range partitioning over scoped threads. Each worker
    /// clones the register file (inheriting every outer-loop-invariant
    /// value) and owns its range exclusively.
    fn run_parallel(&self, l: &CLoop, st: &ThreadState) {
        let jobs = self.threads.min(l.extent as usize);
        let chunk = (l.extent as usize).div_ceil(jobs);
        std::thread::scope(|scope| {
            for k in 0..jobs {
                let lo = k * chunk;
                let hi = ((k + 1) * chunk).min(l.extent as usize);
                if lo >= hi {
                    break;
                }
                let mut ts = ThreadState::new(st.regs.clone(), self.kernel);
                scope.spawn(move || {
                    for i in lo..hi {
                        ts.regs[l.var_reg as usize] = i as i64;
                        run_iops(&l.prologue, &mut ts.regs);
                        self.run_nodes(&l.body, &mut ts, false);
                    }
                });
            }
        });
    }

    /// The chunked path: one prologue per chunk of up to [`CHUNK`]
    /// lanes at its first lane, then each statement over the chunk.
    fn run_vec(&self, l: &CLoop, v: &VecBody, st: &mut ThreadState) {
        let mut base = 0;
        while base < l.extent {
            st.regs[l.var_reg as usize] = base;
            run_iops(&l.prologue, &mut st.regs);
            let lanes = (l.extent - base).min(CHUNK as i64) as usize;
            for (node, vs) in l.body.iter().zip(&v.stmts) {
                let CNode::Stmt(s) = node else {
                    unreachable!("chunked loops hold statements only");
                };
                self.run_chunk(s, vs, lanes, st);
            }
            base += CHUNK as i64;
        }
    }

    fn run_chunk(&self, s: &CStmt, vs: &VecStmt, lanes: usize, st: &mut ThreadState) {
        let regs = &st.regs;
        let stride = vs.store_stride as isize;
        let dst = self
            .bufs
            .lanes(s.buf, regs[s.off as usize], vs.store_stride, lanes);
        if let Some(p) = s.pred {
            // The predicate does not depend on the lane: the whole chunk
            // is valid or invalid (pad/overhang semantics as in
            // `run_stmt`).
            if regs[p as usize] == 0 {
                if s.mode == StoreMode::Assign {
                    // SAFETY: `dst` spans `lanes` checked lanes.
                    unsafe { for_lanes(dst, stride, lanes, |_, d| *d = 0.0) };
                }
                return;
            }
        }
        match &vs.kernel {
            ChunkKernel::Contract { a, b } => {
                let load = |x: &LaneLoad| {
                    let p = self
                        .bufs
                        .lanes(x.buf, regs[x.off as usize], x.stride, lanes);
                    (p.cast_const(), x.stride as isize)
                };
                let (a, b) = (load(a), load(b));
                // SAFETY: all three accesses span `lanes` checked lanes.
                unsafe { contract(s.mode == StoreMode::AddAcc, (dst, stride), a, b, lanes) };
            }
            ChunkKernel::Eval { load_strides } => {
                let top = self.eval_chunk(s, load_strides, lanes, regs, &mut st.lanes);
                let vals = &st.lanes[top][..lanes];
                // SAFETY: `dst` spans `lanes` checked lanes; the value
                // stack is thread-local, so it never aliases a buffer.
                unsafe {
                    match s.mode {
                        StoreMode::Assign => for_lanes(dst, stride, lanes, |i, d| *d = vals[i]),
                        StoreMode::AddAcc => {
                            for_lanes(dst, stride, lanes, |i, d| *d += vals[i]);
                        }
                        StoreMode::MaxAcc => {
                            for_lanes(dst, stride, lanes, |i, d| *d = (*d).max(vals[i]));
                        }
                    }
                }
            }
        }
    }

    /// Runs a stack program with chunk-wide values; returns the value
    /// stack slot holding the result. Conditions do not depend on the
    /// lane, so a `Select` takes one arm for the whole chunk.
    fn eval_chunk(
        &self,
        s: &CStmt,
        load_strides: &[i64],
        lanes: usize,
        regs: &[i64],
        stack: &mut [[f32; CHUNK]],
    ) -> usize {
        let mut sp = 0usize;
        let mut pc = 0usize;
        while pc < s.fops.len() {
            match s.fops[pc] {
                FOp::Imm(v) => {
                    stack[sp][..lanes].fill(v);
                    sp += 1;
                }
                FOp::Load { buf, off } => {
                    let stride = load_strides[pc];
                    let src = self.bufs.lanes(buf, regs[off as usize], stride, lanes);
                    let out = &mut stack[sp][..lanes];
                    // SAFETY: `src` spans `lanes` checked lanes.
                    unsafe { for_lanes(src, stride as isize, lanes, |i, x| out[i] = *x) };
                    sp += 1;
                }
                FOp::Bin(op) => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    for (x, y) in lo[sp - 1][..lanes].iter_mut().zip(&hi[0][..lanes]) {
                        *x = apply_fbin(op, *x, *y);
                    }
                }
                FOp::Un(op) => {
                    for x in &mut stack[sp - 1][..lanes] {
                        *x = op.apply(*x);
                    }
                }
                FOp::JumpIfZero { cond, to } => {
                    if regs[cond as usize] == 0 {
                        pc = to as usize;
                        continue;
                    }
                }
                FOp::Jump { to } => {
                    pc = to as usize;
                    continue;
                }
            }
            pc += 1;
        }
        sp - 1
    }

    fn run_stmt(&self, s: &CStmt, st: &mut ThreadState) {
        let off = st.regs[s.off as usize];
        if let Some(p) = s.pred {
            if st.regs[p as usize] == 0 {
                // Interpreter pad/overhang semantics: invalid slots are
                // zeroed by `Assign` and skipped by accumulations.
                if s.mode == StoreMode::Assign {
                    self.bufs.write(s.buf, off, 0.0);
                }
                return;
            }
        }
        let v = self.eval_fops(s, st);
        match s.mode {
            StoreMode::Assign => self.bufs.write(s.buf, off, v),
            StoreMode::AddAcc => {
                let old = self.bufs.read(s.buf, off);
                self.bufs.write(s.buf, off, old + v);
            }
            StoreMode::MaxAcc => {
                let old = self.bufs.read(s.buf, off);
                self.bufs.write(s.buf, off, old.max(v));
            }
        }
    }

    fn eval_fops(&self, s: &CStmt, st: &mut ThreadState) -> f32 {
        st.stack.clear();
        let mut pc = 0usize;
        while pc < s.fops.len() {
            match s.fops[pc] {
                FOp::Imm(v) => st.stack.push(v),
                FOp::Load { buf, off } => {
                    st.stack.push(self.bufs.read(buf, st.regs[off as usize]));
                }
                FOp::Bin(op) => {
                    let b = pop(&mut st.stack);
                    let a = pop(&mut st.stack);
                    st.stack.push(apply_fbin(op, a, b));
                }
                FOp::Un(op) => {
                    let a = pop(&mut st.stack);
                    st.stack.push(op.apply(a));
                }
                FOp::JumpIfZero { cond, to } => {
                    if st.regs[cond as usize] == 0 {
                        pc = to as usize;
                        continue;
                    }
                }
                FOp::Jump { to } => {
                    pc = to as usize;
                    continue;
                }
            }
            pc += 1;
        }
        pop(&mut st.stack)
    }
}

/// Calls `f(lane, pointer)` for `lanes` lanes from `p` in steps of
/// `stride`, with a unit-stride specialisation that LLVM vectorizes.
///
/// # Safety
///
/// Every lane pointer must be in bounds of one live buffer.
#[inline(always)]
unsafe fn for_lanes(p: *mut f32, stride: isize, lanes: usize, mut f: impl FnMut(usize, *mut f32)) {
    if stride == 1 {
        for i in 0..lanes {
            f(i, p.add(i));
        }
    } else {
        for i in 0..lanes {
            f(i, p.offset(i as isize * stride));
        }
    }
}

/// The contraction microkernel: per lane `d = a × b`, or `d = d + a × b`
/// when `acc` — one multiply, then one add, as the stack program does.
/// Common stride patterns get monomorphic loops; a stride-0 factor is
/// loaded once (chunk eligibility guarantees it is not a buffer the
/// chunk writes).
///
/// # Safety
///
/// Every lane of `d`, `a` and `b` must be in bounds of a live buffer.
unsafe fn contract(
    acc: bool,
    (d, ds): (*mut f32, isize),
    (a, sa): (*const f32, isize),
    (b, sb): (*const f32, isize),
    lanes: usize,
) {
    /// # Safety
    ///
    /// As for `contract`; `prod(i)` must read only in-bounds lanes.
    #[inline(always)]
    unsafe fn kernel(
        acc: bool,
        (d, ds): (*mut f32, isize),
        lanes: usize,
        prod: impl Fn(isize) -> f32,
    ) {
        for i in 0..lanes as isize {
            let p = d.offset(i * ds);
            *p = if acc { *p + prod(i) } else { prod(i) };
        }
    }
    match (acc, ds, sa, sb) {
        (true, 1, 0, 1) => {
            let av = *a;
            kernel(true, (d, 1), lanes, |i| av * *b.offset(i));
        }
        (true, 1, 1, 0) => {
            let bv = *b;
            kernel(true, (d, 1), lanes, |i| *a.offset(i) * bv);
        }
        (true, 1, 1, 1) => kernel(true, (d, 1), lanes, |i| *a.offset(i) * *b.offset(i)),
        _ => kernel(acc, (d, ds), lanes, |i| {
            *a.offset(i * sa) * *b.offset(i * sb)
        }),
    }
}

impl NativeKernel {
    /// Executes the kernel in place over a packed physical buffer table
    /// (as produced by [`pack_buffers`]), with at most `threads` workers
    /// for `@par` loops. Returns per-group wall-clock stats.
    pub fn execute(&self, bufs: &mut [NdBuf], threads: usize) -> NativeRunStats {
        let slots = bufs
            .iter_mut()
            .map(|b| {
                let d = b.data_mut();
                BufPtr {
                    ptr: d.as_mut_ptr(),
                    len: d.len(),
                }
            })
            .collect();
        let runner = Runner {
            kernel: self,
            bufs: Bufs { slots },
            threads: threads.max(1),
        };
        let mut st = ThreadState::new(vec![0i64; self.n_regs], self);
        for &(r, v) in &self.consts {
            st.regs[r as usize] = v;
        }
        let t_all = Instant::now();
        let mut group_us = Vec::with_capacity(runner.kernel.groups.len());
        for g in &runner.kernel.groups {
            let t = Instant::now();
            runner.run_group(g, &mut st);
            group_us.push((g.label.clone(), t.elapsed().as_secs_f64() * 1e6));
        }
        NativeRunStats {
            group_us,
            total_us: t_all.elapsed().as_secs_f64() * 1e6,
            threads: runner.threads,
        }
    }

    /// Packs logical bindings, executes natively and unpacks logical
    /// results — the drop-in counterpart of
    /// [`run_program`](alt_loopir::run_program), plus wall-clock stats.
    pub fn run(
        &self,
        program: &Program,
        graph: &Graph,
        plan: &LayoutPlan,
        bindings: &HashMap<TensorId, NdBuf>,
        threads: usize,
    ) -> (HashMap<TensorId, NdBuf>, NativeRunStats) {
        let mut bufs = pack_buffers(program, graph, plan, bindings);
        let stats = self.execute(&mut bufs, threads);
        (unpack_buffers(program, graph, plan, &bufs), stats)
    }
}
