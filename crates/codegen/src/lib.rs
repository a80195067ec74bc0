//! Native kernel executor for lowered TIR programs.
//!
//! The tree-walking interpreter in `alt-loopir` is the semantic reference
//! for lowered programs, but it re-evaluates every symbolic index
//! expression through a per-element hash-map environment, which makes it
//! orders of magnitude slower than a real backend. This crate closes that
//! gap without an external code generator: it *compiles* a scheduled,
//! layout-specialized [`Program`](alt_loopir::Program) into a compact
//! register-based kernel and executes it directly over raw `f32` buffers.
//!
//! The contract is strict: for every program, the native executor produces
//! output **bit-identical** to the interpreter. This is what allows the
//! interpreter to be demoted to a test oracle while measurements and
//! deployment run natively. The guarantee rests on three properties:
//!
//! 1. **Same arithmetic, same order.** Scalar bodies are flattened into a
//!    postorder stack program whose evaluation order equals the
//!    interpreter's recursive descent; `Select` compiles to branches so
//!    only the taken arm is evaluated (untaken arms may index out of
//!    bounds by design).
//! 2. **Lane-disjoint vector chunking.** An eligible `@vec` loop runs in
//!    chunks of up to [`ir::CHUNK`] lanes, each statement over the whole
//!    chunk as slice loops (the contraction `dst (+)= a × b` as one fused
//!    loop). Eligibility — affine offsets, lane-independent conditions,
//!    a nonzero store stride, written buffers accessed only at their
//!    store offset — makes lanes write disjoint slots, and every lane
//!    performs the scalar loop's exact operations (multiply, then add;
//!    no fused multiply-add), so every bit matches. Other `@vec` loops
//!    run the scalar loop.
//! 3. **Disjoint parallel partitions.** `@par` loops run on scoped
//!    threads over contiguous iteration ranges. Lowering only marks
//!    spatial (output-partitioning) loops parallel, so threads write
//!    disjoint slots and each slot's accumulation order is unchanged.
//!
//! Index arithmetic is hoisted: every integer expression is compiled once
//! into a three-address op placed at the loop level of its deepest
//! variable dependency, with hash-consing CSE, so an expression like
//! `(i / 8) * 64` is recomputed only when `i` changes — not per element.
//!
//! Chunked accesses are bounds-checked once per chunk in every build (the
//! first and last lane bound an affine range) and panic on a violation;
//! scalar accesses are checked in debug builds only.

pub mod compile;
pub mod exec;
pub mod ir;

pub use compile::compile;
pub use exec::{default_threads, NativeRunStats};
pub use ir::{KernelStats, NativeKernel};
