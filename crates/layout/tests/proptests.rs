//! Property-based tests: every randomly generated primitive sequence must
//! preserve the fundamental layout invariants.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use alt_layout::{Layout, LayoutPrim};
use alt_tensor::{NdBuf, Shape};

/// Generates a random small logical shape (2-4 dims, sizes 1-12).
fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1i64..=12, 2..=4).prop_map(Shape::new)
}

/// Generates a random factorization of `n` into >= 2 factors.
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

/// Primitive kinds drawn by the original invariant tests: split, reorder,
/// fuse, unfold and pad.
const BASIC_KINDS: usize = 5;
/// Every primitive kind, the advanced ones (swizzle, Morton,
/// block-diagonal, store_at) included.
const ALL_KINDS: usize = 9;

/// Applies up to `n_prims` random valid primitives, drawn from the first
/// `kinds` primitive kinds, to a layout.
fn random_layout(shape: Shape, seed: u64, n_prims: usize, kinds: usize) -> Layout {
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
        match next() % kinds {
            0 => {
                // Split a dimension with size > 1.
                let candidates: Vec<usize> = (0..nd).filter(|&k| dims.dim(k) > 1).collect();
                if let Some(&k) = candidates.get(next() % candidates.len().max(1)) {
                    let factors = factorize(dims.dim(k), next() as u64);
                    if factors.len() >= 2 {
                        let _ = layout.apply(LayoutPrim::Split { dim: k, factors });
                    }
                }
            }
            1 => {
                // Random permutation.
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
                let dim = next() % nd;
                let src = next() % nd;
                let bits = 1 + (next() % 2) as u32;
                let _ = layout.apply(LayoutPrim::Swizzle { dim, src, bits });
            }
            6 => {
                // Morton needs two equal power-of-two dims: use a pair
                // already there, or split a square power of two into one.
                let k = next() % nd;
                let d = dims.dim(k);
                let r = (1..=d).find(|r| r * r >= d).unwrap_or(1);
                if r > 1 && r * r == d && r & (r - 1) == 0 {
                    let _ = layout.apply(LayoutPrim::Split {
                        dim: k,
                        factors: vec![r, r],
                    });
                }
                let _ = layout.apply(LayoutPrim::Morton { dim: k });
            }
            7 => {
                let dim = next() % nd;
                let src = next() % nd;
                let block = 1 + (next() as i64) % dims.dim(dim).max(2);
                let _ = layout.apply(LayoutPrim::BlockDiag { dim, src, block });
            }
            _ => {
                let _ = layout.apply(LayoutPrim::StoreAtHost { dim: next() % nd });
            }
        }
    }
    layout
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pack followed by unpack restores the logical buffer exactly, for
    /// any primitive sequence (including overlapping unfolds and pads).
    #[test]
    fn pack_unpack_roundtrip(shape in arb_shape(), seed in any::<u64>(), n in 0usize..4) {
        let layout = random_layout(shape.clone(), seed, n, BASIC_KINDS);
        let logical = NdBuf::from_fn(shape, |i| (i % 251) as f32 + 1.0);
        let packed = layout.pack(&logical).unwrap();
        let unpacked = layout.unpack(&packed).unwrap();
        prop_assert_eq!(unpacked.data(), logical.data());
    }

    /// The canonical physical slot of every logical index is in bounds and
    /// inverts back to the same logical index.
    #[test]
    fn logical_physical_inverse(shape in arb_shape(), seed in any::<u64>(), n in 0usize..4) {
        let layout = random_layout(shape.clone(), seed, n, BASIC_KINDS);
        let phys = layout.physical_shape();
        for idx in shape.iter_indices().step_by(7) {
            let p = layout.logical_to_physical(&idx).unwrap();
            for (pi, pd) in p.iter().zip(phys.dims()) {
                prop_assert!(*pi >= 0 && pi < pd, "physical index out of bounds");
            }
            let back = layout.physical_to_logical(&p).unwrap();
            prop_assert_eq!(back, Some(idx));
        }
    }

    /// Physical capacity is always >= logical element count (data can be
    /// duplicated or padded, never lost).
    #[test]
    fn physical_capacity_bounds(shape in arb_shape(), seed in any::<u64>(), n in 0usize..4) {
        let layout = random_layout(shape.clone(), seed, n, BASIC_KINDS);
        prop_assert!(layout.physical_shape().numel() >= shape.numel());
    }

    /// Every physical slot either maps to a valid logical element or is
    /// reported as a hole (None); the union of mapped slots covers all
    /// logical elements.
    #[test]
    fn physical_slots_cover_logical(shape in arb_shape(), seed in any::<u64>(), n in 0usize..3) {
        let layout = random_layout(shape.clone(), seed, n, BASIC_KINDS);
        let phys = layout.physical_shape();
        prop_assume!(phys.numel() <= 4096);
        let mut covered = vec![false; shape.numel() as usize];
        for pidx in phys.iter_indices() {
            if let Some(lidx) = layout.physical_to_logical(&pidx).unwrap() {
                covered[shape.flatten(&lidx) as usize] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "some logical element has no slot");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The identity and strided fast paths of `pack`/`unpack` equal the
    /// per-element reference bit for bit, over chains of every primitive
    /// kind. Unpack reads a physical buffer with a distinct value in
    /// every slot, so a wrong canonical slot cannot hide.
    #[test]
    fn fast_pack_unpack_equal_per_element(
        shape in arb_shape(),
        seed in any::<u64>(),
        n in 0usize..5,
    ) {
        let layout = random_layout(shape.clone(), seed, n, ALL_KINDS);
        let logical = NdBuf::from_fn(shape, |i| (i % 251) as f32 - 7.5);
        let fast = layout.pack(&logical).unwrap();
        let slow = layout.pack_per_element(&logical).unwrap();
        prop_assert_eq!(fast.shape(), slow.shape());
        prop_assert!(fast.data().iter().zip(slow.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
        let physical = NdBuf::from_fn(layout.physical_shape(), |i| i as f32 * 0.5 + 1.0);
        let fast = layout.unpack(&physical).unwrap();
        let slow = layout.unpack_per_element(&physical).unwrap();
        prop_assert!(fast.data().iter().zip(slow.data()).all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
