//! Property-based tests (proptest) for the SIMD distance kernels and the
//! cache-aligned vector-store layout: the dispatched kernels must agree
//! with the scalar reference at every dimension (including ragged tails
//! that exercise the masked SIMD epilogue), and an aligned, padded store
//! must be observationally identical to the packed layout through every
//! public access path.

use gass_core::distance::{
    dot, dot_scalar, l2_sq, l2_sq_batch, l2_sq_batch_scalar, l2_sq_scalar,
};
use gass_core::store::VectorStore;
use proptest::prelude::*;

/// A pair of same-length vectors with dimension anywhere in `1..=200`,
/// covering full SIMD blocks, partial blocks, and sub-lane tails.
fn arb_pair() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (1usize..=200).prop_flat_map(|dim| {
        (
            prop::collection::vec(-100.0f32..100.0, dim..=dim),
            prop::collection::vec(-100.0f32..100.0, dim..=dim),
        )
    })
}

fn rel_close(a: f32, b: f32) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-4 * scale
}

fn store_with(dim: usize, rows: &[Vec<f32>], aligned: bool) -> VectorStore {
    let mut s = if aligned { VectorStore::aligned(dim) } else { VectorStore::new(dim) };
    for r in rows {
        s.push(r);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dispatched `l2_sq` and `dot` agree with the scalar reference
    /// within 1e-4 relative tolerance for every dimension in 1..=200.
    /// (On this codebase they are in fact bit-identical — the SIMD
    /// kernels replicate the scalar lane arithmetic — but the contract
    /// the rest of the system relies on is the tolerance.)
    #[test]
    fn simd_kernels_match_scalar(pair in arb_pair()) {
        let (a, b) = pair;
        prop_assert!(rel_close(l2_sq(&a, &b), l2_sq_scalar(&a, &b)));
        prop_assert!(rel_close(dot(&a, &b), dot_scalar(&a, &b)));
    }

    /// The 4-wide batched kernel agrees with four independent scalar
    /// evaluations, lane by lane.
    #[test]
    fn batched_kernel_matches_scalar(
        pair in arb_pair(),
        lane_seed in 0u64..1000,
    ) {
        let (q, b0) = pair;
        // Derive three more rows of the same dimension from the first.
        let rot = |v: &[f32], k: usize| -> Vec<f32> {
            let mut w = v.to_vec();
            w.rotate_left(k % v.len());
            w
        };
        let b1 = rot(&b0, 1 + (lane_seed as usize % 7));
        let b2 = rot(&q, 2);
        let b3 = rot(&b0, 3);
        let batched = l2_sq_batch(&q, [&b0, &b1, &b2, &b3]);
        let scalar = l2_sq_batch_scalar(&q, [&b0, &b1, &b2, &b3]);
        for lane in 0..4 {
            prop_assert!(rel_close(batched[lane], scalar[lane]),
                "lane {lane}: {} vs {}", batched[lane], scalar[lane]);
        }
    }

    /// An aligned (64-byte, padded-stride) store is observationally
    /// identical to the packed layout: `push`/`get`/`iter`/`subset`
    /// return exactly the same logical rows, and padding is never
    /// exposed.
    #[test]
    fn aligned_store_matches_packed(
        rows in (1usize..=40).prop_flat_map(|dim| prop::collection::vec(
            prop::collection::vec(-50.0f32..50.0, dim..=dim), 1..20)),
    ) {
        let dim = rows[0].len();
        let packed = store_with(dim, &rows, false);
        let aligned = store_with(dim, &rows, true);
        prop_assert!(aligned.is_aligned());
        prop_assert_eq!(packed.len(), aligned.len());
        prop_assert_eq!(packed.dim(), aligned.dim());
        for i in 0..packed.len() as u32 {
            prop_assert_eq!(packed.get(i), aligned.get(i), "row {} differs", i);
            prop_assert_eq!(aligned.get(i).len(), dim, "padding leaked into get()");
        }
        for ((ia, ra), (ib, rb)) in packed.iter().zip(aligned.iter()) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(ra, rb);
        }
        // Subsets preserve contents (and the source's layout).
        let ids: Vec<u32> = (0..packed.len() as u32).step_by(2).collect();
        let sub_p = packed.subset(&ids);
        let sub_a = aligned.subset(&ids);
        prop_assert!(sub_a.is_aligned() && !sub_p.is_aligned());
        for i in 0..ids.len() as u32 {
            prop_assert_eq!(sub_p.get(i), sub_a.get(i));
        }
        // Layout conversions round-trip the logical contents.
        prop_assert_eq!(packed.to_aligned().to_flat_vec(), packed.to_flat_vec());
        let repacked = aligned.to_packed();
        prop_assert_eq!(repacked.as_flat(), &packed.to_flat_vec()[..]);
    }

    /// Both layouts serialize identically in the binary persist format:
    /// padding is an in-memory artifact, never an on-disk one.
    #[test]
    fn aligned_store_serializes_like_packed(
        rows in (1usize..=24).prop_flat_map(|dim| prop::collection::vec(
            prop::collection::vec(-50.0f32..50.0, dim..=dim), 1..12)),
    ) {
        let dim = rows[0].len();
        let packed = store_with(dim, &rows, false);
        let aligned = store_with(dim, &rows, true);
        let enc_p = gass_core::persist::encode_store(&packed);
        let enc_a = gass_core::persist::encode_store(&aligned);
        prop_assert_eq!(&enc_p, &enc_a, "persist bytes differ between layouts");
        let back = gass_core::persist::decode_store(enc_a).unwrap();
        prop_assert_eq!(back.as_flat(), &packed.to_flat_vec()[..]);
    }
}
