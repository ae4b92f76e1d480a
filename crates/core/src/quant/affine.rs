//! Per-dimension affine scalar quantization, one store for every code
//! width: SQ8 ([`QuantizedStore`], `u8` codes) and SQ4 ([`Sq4Store`],
//! 4-bit codes, two per byte) are [`AffineStore`] at [`U8`] and [`U4`].
//!
//! Graph traversal at serving time is memory-bound: every beam step streams
//! whole vector rows through the cache hierarchy. Each dimension is coded
//! on its own grid, `x ≈ min_d + c_d · Δ_d` with `Δ_d = (max_d − min_d) /
//! LEVELS` and `c_d ∈ 0..=LEVELS` rounded to nearest, which cuts that
//! traffic 4× (SQ8) or 8× (SQ4); the ranking error is repaired by
//! re-scoring a pool of `rerank_factor · k` leading candidates with exact
//! `f32` distances before returning (kANNolo's and Faiss's standard
//! two-phase scheme; Faiss's `ScalarQuantizer` likewise takes the bit width
//! as a parameter).
//!
//! ## Layout
//!
//! Code `d` of a row sits in byte `d / PER_BYTE`; with two codes per byte
//! the even dimension takes the **low** nibble and the odd one the **high**
//! nibble. Rows pad to whole 64-byte cache lines from a 64-byte-aligned
//! base, mirroring the aligned `f32` layout of [`VectorStore`]; padding
//! codes are zero.
//!
//! ## Asymmetric distance
//!
//! Queries are **not** quantized. [`AffineStore::prepare_into`] shifts the
//! query once per search against the grid — `u_d = q_d − min_d` with step
//! `s_d = Δ_d` — after which each candidate distance is `Σ_d (u_d − s_d ·
//! c_d)²`: the squared distance between the query and the *decoded*
//! candidate, evaluated directly. This folded form needs no division in
//! the prepare step, one fused multiply-subtract and one fused multiply-add
//! per lane in the kernel, and no special case for a constant dimension —
//! `Δ_d = 0` makes `s_d = 0` and the lane contributes its exact `(q_d −
//! min_d)²` term against code 0. The prepared arrays are zero-padded to the
//! kernel span (`dim` rounded up to the width's chunk), so padding lanes —
//! and SQ4's phantom high nibble after an odd final dimension — contribute
//! `(0 − 0·c)² = +0` and never perturb a result. The kernels live with
//! their width: [`super::sq8`] and [`super::sq4`].

use super::{
    lines_as_bytes, lines_as_bytes_mut, CodeLine, CodecSpec, CodecStore, PreparedQuery, LINE_U8,
};
use crate::reorder::IdRemap;
use crate::store::VectorStore;
use std::marker::PhantomData;

/// A code width of [`AffineStore`]: everything SQ8 and SQ4 differ in.
pub trait Width: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The codec this width serves as.
    const SPEC: CodecSpec;
    /// Steps per dimension, and the highest code (also its bit mask).
    const LEVELS: u8;
    /// Codes packed into one byte.
    const PER_BYTE: usize;
    /// Query lanes per kernel chunk: the prepared query and the scored code
    /// span are `dim` rounded up to a whole chunk.
    const CHUNK: usize;
    /// Asymmetric squared distance over one code row of the kernel span.
    fn l2_sq(u: &[f32], s: &[f32], codes: &[u8]) -> f32;
    /// [`Width::l2_sq`] against four rows, bit-identical to four calls.
    fn l2_sq_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4];
}

/// One `u8` code per dimension (SQ8).
#[derive(Clone, Copy, Debug)]
pub struct U8;

/// One 4-bit code per dimension, two per byte (SQ4).
#[derive(Clone, Copy, Debug)]
pub struct U4;

impl Width for U8 {
    const SPEC: CodecSpec = CodecSpec::Sq8;
    const LEVELS: u8 = 255;
    const PER_BYTE: usize = 1;
    const CHUNK: usize = 8;

    #[inline]
    fn l2_sq(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
        super::sq8::l2_sq_u8(u, s, codes)
    }

    #[inline]
    fn l2_sq_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
        super::sq8::l2_sq_u8_batch(u, s, codes)
    }
}

impl Width for U4 {
    const SPEC: CodecSpec = CodecSpec::Sq4;
    const LEVELS: u8 = 15;
    const PER_BYTE: usize = 2;
    const CHUNK: usize = 16;

    #[inline]
    fn l2_sq(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
        super::sq4::l2_sq_u4(u, s, codes)
    }

    #[inline]
    fn l2_sq_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
        super::sq4::l2_sq_u4_batch(u, s, codes)
    }
}

/// SQ8: per-dimension affine `u8` codes.
pub type QuantizedStore = AffineStore<U8>;

/// SQ4: per-dimension affine 4-bit codes, two dimensions per byte.
pub type Sq4Store = AffineStore<U4>;

/// Per-dimension min/max affine codes of width `W` over a whole
/// [`VectorStore`], laid out in cache-line-padded rows.
#[derive(Clone, Debug)]
pub struct AffineStore<W: Width> {
    dim: usize,
    stride: usize,
    len: usize,
    mins: Vec<f32>,
    deltas: Vec<f32>,
    codes: Vec<CodeLine>,
    width: PhantomData<W>,
}

impl<W: Width> AffineStore<W> {
    /// Bits of one code.
    const BITS: usize = 8 / W::PER_BYTE;

    /// Bytes of one row's codes, padding stripped: the persisted row.
    pub(crate) fn row_bytes(dim: usize) -> usize {
        dim.div_ceil(W::PER_BYTE)
    }

    /// Bytes between consecutive row starts: [`Self::row_bytes`] rounded
    /// up to whole cache lines.
    pub(crate) fn stride_for(dim: usize) -> usize {
        Self::row_bytes(dim).next_multiple_of(LINE_U8)
    }

    /// Where code `d` sits in its byte.
    #[inline]
    fn shift(d: usize) -> usize {
        (d % W::PER_BYTE) * Self::BITS
    }

    /// The one constructor: checks every length a row read relies on.
    fn checked(
        dim: usize,
        mins: Vec<f32>,
        deltas: Vec<f32>,
        len: usize,
        codes: Vec<CodeLine>,
    ) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(mins.len(), dim, "mins length mismatch");
        assert_eq!(deltas.len(), dim, "deltas length mismatch");
        let stride = Self::stride_for(dim);
        assert_eq!(codes.len() * LINE_U8, len * stride, "code area size mismatch");
        Self { dim, stride, len, mins, deltas, codes, width: PhantomData }
    }

    /// Quantizes every vector of `store`: per-dimension min/max over the
    /// data, `W::LEVELS` equal steps per dimension, codes rounded to
    /// nearest. Deterministic — the same store always yields the same
    /// codes, which is what lets persistence re-encode on load.
    ///
    /// # Panics
    /// Panics if `store` is empty.
    pub fn from_store(store: &VectorStore) -> Self {
        assert!(!store.is_empty(), "cannot quantize an empty store");
        let dim = store.dim();
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for (_, row) in store.iter() {
            for d in 0..dim {
                mins[d] = mins[d].min(row[d]);
                maxs[d] = maxs[d].max(row[d]);
            }
        }
        let levels = f32::from(W::LEVELS);
        let deltas: Vec<f32> = (0..dim).map(|d| (maxs[d] - mins[d]) / levels).collect();
        let stride = Self::stride_for(dim);
        let mut lines = vec![CodeLine([0u8; LINE_U8]); store.len() * stride / LINE_U8];
        let raw = lines_as_bytes_mut(&mut lines);
        for (id, row) in store.iter() {
            let out = &mut raw[id as usize * stride..][..stride];
            for (d, ((&x, &lo), &delta)) in row.iter().zip(&mins).zip(&deltas).enumerate() {
                if delta > 0.0 {
                    let code = ((x - lo) / delta).round().clamp(0.0, levels) as u8;
                    out[d / W::PER_BYTE] |= code << Self::shift(d);
                }
            }
        }
        Self::checked(dim, mins, deltas, store.len(), lines)
    }

    /// Number of quantized vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no vectors are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes between consecutive row starts (a multiple of 64).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Per-dimension minima.
    #[inline]
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Per-dimension quantization steps (`0` for constant dimensions).
    #[inline]
    pub fn deltas(&self) -> &[f32] {
        &self.deltas
    }

    /// The full padded code row of vector `id` (`stride` bytes; padding
    /// codes are zero and meet the zero padding of [`PreparedQuery`]).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn code_row(&self, id: u32) -> &[u8] {
        let start = id as usize * self.stride;
        &lines_as_bytes(&self.codes)[start..start + self.stride]
    }

    /// Copies the logical code bytes into a packed `len · row_bytes`
    /// buffer (padding stripped) — the persisted representation.
    pub fn to_packed_codes(&self) -> Vec<u8> {
        let row_bytes = Self::row_bytes(self.dim);
        let mut out = Vec::with_capacity(self.len * row_bytes);
        for id in 0..self.len as u32 {
            out.extend_from_slice(&self.code_row(id)[..row_bytes]);
        }
        out
    }

    /// Copies the store with code rows relabeled through `map`: row `u` of
    /// the result is row `map.to_old(u)` of `self`. The affine parameters
    /// are global per dimension, so permuted codes are bit-identical to
    /// re-encoding the permuted vectors.
    pub fn permute(&self, map: &IdRemap) -> Self {
        assert_eq!(map.len(), self.len, "remap covers a different vector count");
        let stride = self.stride;
        let mut lines = vec![CodeLine([0u8; LINE_U8]); self.len * stride / LINE_U8];
        let dst = lines_as_bytes_mut(&mut lines);
        let src = lines_as_bytes(&self.codes);
        for new in 0..self.len {
            let old = map.to_old(new as u32) as usize;
            dst[new * stride..][..stride].copy_from_slice(&src[old * stride..][..stride]);
        }
        let (mins, deltas) = (self.mins.clone(), self.deltas.clone());
        Self::checked(self.dim, mins, deltas, self.len, lines)
    }

    /// Reconstructs vector `id` from its codes (`min_d + c_d · Δ_d`). The
    /// asymmetric distance to a query equals the exact squared distance to
    /// this reconstruction.
    pub fn decode(&self, id: u32) -> Vec<f32> {
        let row = self.code_row(id);
        (0..self.dim)
            .map(|d| {
                let code = (row[d / W::PER_BYTE] >> Self::shift(d)) & W::LEVELS;
                self.mins[d] + code as f32 * self.deltas[d]
            })
            .collect()
    }

    /// Kernel span in dimensions: `dim` rounded up to a whole
    /// [`Width::CHUNK`].
    #[inline]
    fn kern_len(&self) -> usize {
        self.dim.next_multiple_of(W::CHUNK)
    }

    /// Shifts `query` against the quantization grid (see the module docs),
    /// reusing the buffers of `out`, zero-padded to the kernel span.
    pub fn prepare_into(&self, query: &[f32], out: &mut PreparedQuery) {
        debug_assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let k = self.kern_len();
        out.u.clear();
        out.s.clear();
        out.u.reserve(k);
        out.s.reserve(k);
        for (&q, &lo) in query.iter().zip(&self.mins) {
            out.u.push(q - lo);
        }
        out.s.extend_from_slice(&self.deltas);
        out.u.resize(k, 0.0);
        out.s.resize(k, 0.0);
    }

    /// Asymmetric squared distance from a prepared query to vector `id`.
    #[inline]
    pub fn dist_prepared(&self, pq: &PreparedQuery, id: u32) -> f32 {
        let k = self.kern_len();
        W::l2_sq(&pq.u[..k], &pq.s[..k], &self.code_row(id)[..k / W::PER_BYTE])
    }

    /// Asymmetric squared distances from a prepared query to **four**
    /// vectors at once (bit-identical to four [`Self::dist_prepared`]
    /// calls).
    #[inline]
    pub fn dist_prepared_batch(&self, pq: &PreparedQuery, ids: [u32; 4]) -> [f32; 4] {
        let k = self.kern_len();
        W::l2_sq_batch(
            &pq.u[..k],
            &pq.s[..k],
            ids.map(|id| &self.code_row(id)[..k / W::PER_BYTE]),
        )
    }

    /// Hints the CPU to pull vector `id`'s code bytes into L1 (by the row
    /// rule of [`VectorStore::prefetch`]). Semantically a no-op.
    #[inline]
    pub fn prefetch(&self, id: u32) {
        crate::distance::prefetch_slice(&self.code_row(id)[..Self::row_bytes(self.dim)]);
    }

    /// Heap bytes held by the codes and affine parameters (the quantized
    /// serving path's memory cost).
    pub fn heap_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<CodeLine>()
            + (self.mins.capacity() + self.deltas.capacity()) * std::mem::size_of::<f32>()
    }
}

impl<W: Width> CodecStore for AffineStore<W> {
    fn spec(&self) -> CodecSpec {
        W::SPEC
    }

    fn dim(&self) -> usize {
        self.dim()
    }

    fn len(&self) -> usize {
        self.len()
    }

    fn code_row(&self, id: u32) -> &[u8] {
        self.code_row(id)
    }

    fn prepare_into(&self, query: &[f32], out: &mut PreparedQuery) {
        self.prepare_into(query, out);
    }

    #[inline]
    fn dist_prepared(&self, pq: &PreparedQuery, id: u32) -> f32 {
        self.dist_prepared(pq, id)
    }

    #[inline]
    fn dist_prepared_batch(&self, pq: &PreparedQuery, ids: [u32; 4]) -> [f32; 4] {
        self.dist_prepared_batch(pq, ids)
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        self.prefetch(id);
    }

    fn decode(&self, id: u32) -> Vec<f32> {
        self.decode(id)
    }

    fn permute(&self, map: &IdRemap) -> Box<dyn CodecStore> {
        Box::new(AffineStore::permute(self, map))
    }

    fn heap_bytes(&self) -> usize {
        self.heap_bytes()
    }

    fn clone_box(&self) -> Box<dyn CodecStore> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l2_sq;

    fn ramp_store(n: usize, dim: usize) -> VectorStore {
        let mut s = VectorStore::new(dim);
        for i in 0..n {
            let row: Vec<f32> =
                (0..dim).map(|d| ((i * 31 + d * 7) as f32 * 0.37).sin() * 3.0).collect();
            s.push(&row);
        }
        s
    }

    /// Rows of 100 and 128 dimensions take `stride_100` / `stride_128`
    /// bytes, start on a cache line and pad with zero codes.
    fn rows_are_aligned_and_padded<W: Width>(stride_100: usize, stride_128: usize) {
        let q = AffineStore::<W>::from_store(&ramp_store(5, 100));
        assert_eq!(q.stride(), stride_100);
        assert_eq!(q.len(), 5);
        let row_bytes = 100 / W::PER_BYTE;
        for id in 0..5u32 {
            assert_eq!(q.code_row(id).as_ptr() as usize % 64, 0, "row {id} misaligned");
            assert!(
                q.code_row(id)[row_bytes..].iter().all(|&c| c == 0),
                "padding must be zero"
            );
        }
        assert_eq!(AffineStore::<W>::from_store(&ramp_store(4, 128)).stride(), stride_128);
    }

    #[test]
    fn rows_are_cache_line_aligned_and_padded() {
        rows_are_aligned_and_padded::<U8>(128, 128);
        // Half the SQ8 footprint: 50 packed bytes round to one line.
        rows_are_aligned_and_padded::<U4>(64, 64);
    }

    fn decode_within_half_a_step<W: Width>() {
        let store = ramp_store(20, 13);
        let q = AffineStore::<W>::from_store(&store);
        for (id, row) in store.iter() {
            let dec = q.decode(id);
            for d in 0..13 {
                let tol = q.deltas()[d] * 0.5 + 1e-6;
                assert!(
                    (dec[d] - row[d]).abs() <= tol,
                    "{:?} id={id} dim={d}: {} vs {} (step {})",
                    W::SPEC,
                    dec[d],
                    row[d],
                    q.deltas()[d]
                );
            }
        }
    }

    #[test]
    fn decode_within_one_step_per_dim() {
        decode_within_half_a_step::<U8>();
        decode_within_half_a_step::<U4>();
    }

    fn constant_dimension_exact<W: Width>() {
        let mut store = VectorStore::new(3);
        store.push(&[1.0, 5.5, -2.0]);
        store.push(&[2.0, 5.5, -1.0]);
        let q = AffineStore::<W>::from_store(&store);
        assert_eq!(q.deltas()[1], 0.0);
        assert_eq!(q.decode(0)[1], 5.5);
        // Asymmetric distance carries the constant dim exactly.
        let query = [1.5f32, 9.0, -1.5];
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        let d = q.dist_prepared(&pq, 0);
        let exact_to_decoded = l2_sq(&query, &q.decode(0));
        assert!((d - exact_to_decoded).abs() < 1e-4, "{d} vs {exact_to_decoded}");
    }

    #[test]
    fn constant_dimension_is_exact() {
        constant_dimension_exact::<U8>();
        constant_dimension_exact::<U4>();
    }

    fn asymmetric_matches_decoded<W: Width>() {
        let store = ramp_store(30, 96);
        let q = AffineStore::<W>::from_store(&store);
        let query: Vec<f32> = (0..96).map(|d| ((d * 13) as f32 * 0.21).cos() * 2.5).collect();
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        for id in 0..30u32 {
            let asym = q.dist_prepared(&pq, id);
            let exact = l2_sq(&query, &q.decode(id));
            let tol = exact.abs() * 1e-4 + 1e-3;
            assert!((asym - exact).abs() <= tol, "{:?} id={id}: {asym} vs {exact}", W::SPEC);
        }
    }

    #[test]
    fn asymmetric_distance_matches_decoded_distance() {
        asymmetric_matches_decoded::<U8>();
        asymmetric_matches_decoded::<U4>();
    }

    fn batch_matches_single<W: Width>() {
        let q = AffineStore::<W>::from_store(&ramp_store(8, 100));
        let query: Vec<f32> = (0..100).map(|d| (d as f32 * 0.11).sin()).collect();
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        let batch = q.dist_prepared_batch(&pq, [0, 3, 5, 7]);
        for (i, id) in [0u32, 3, 5, 7].into_iter().enumerate() {
            assert_eq!(batch[i].to_bits(), q.dist_prepared(&pq, id).to_bits());
        }
    }

    #[test]
    fn batch_kernel_is_bit_identical_to_single() {
        batch_matches_single::<U8>();
        batch_matches_single::<U4>();
    }

    #[test]
    fn single_vector_store_quantizes() {
        let store = VectorStore::from_flat(4, vec![1.0, -2.0, 0.5, 3.0]);
        // One vector makes every dimension constant: decode is exact.
        let (sq8, sq4) = (QuantizedStore::from_store(&store), Sq4Store::from_store(&store));
        assert_eq!((sq8.len(), sq4.len()), (1, 1));
        assert_eq!(sq8.decode(0), vec![1.0, -2.0, 0.5, 3.0]);
        assert_eq!(sq4.decode(0), vec![1.0, -2.0, 0.5, 3.0]);
    }

    #[test]
    fn heap_bytes_accounts_codes() {
        // 70 dims -> stride 128 (SQ8); 200 dims -> 100 packed bytes ->
        // stride 128 (SQ4): two lines per row either way.
        assert!(QuantizedStore::from_store(&ramp_store(16, 70)).heap_bytes() >= 16 * 128);
        assert!(Sq4Store::from_store(&ramp_store(16, 200)).heap_bytes() >= 16 * 128);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestCaseError;

    /// A dimension plus same-length rows (the shim's `prop_flat_map`
    /// threads the dimension into the row strategy).
    fn stores() -> impl Strategy<Value = (usize, Vec<Vec<f32>>)> {
        (1usize..=12).prop_flat_map(|dim| {
            prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim), 1..=8)
                .prop_map(move |rows| (dim, rows))
        })
    }

    fn encode(dim: usize, rows: &[Vec<f32>]) -> VectorStore {
        VectorStore::from_flat(dim, rows.iter().flatten().copied().collect())
    }

    fn within_one_step<W: Width>(dim: usize, rows: &[Vec<f32>]) -> Result<(), TestCaseError> {
        let q = AffineStore::<W>::from_store(&encode(dim, rows));
        for d in 0..dim {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for r in rows {
                lo = lo.min(r[d]);
                hi = hi.max(r[d]);
            }
            let step = (hi - lo) / f32::from(W::LEVELS);
            for (id, r) in rows.iter().enumerate() {
                let err = (q.decode(id as u32)[d] - r[d]).abs();
                prop_assert!(
                    err <= step + step * 1e-3 + 1e-4,
                    "{:?} dim {} id {}: err {} > step {}",
                    W::SPEC,
                    d,
                    id,
                    err,
                    step
                );
            }
        }
        Ok(())
    }

    fn constant_exact<W: Width>(row: &[f32], copies: usize) -> Result<(), TestCaseError> {
        let rows = vec![row.to_vec(); copies];
        let q = AffineStore::<W>::from_store(&encode(row.len(), &rows));
        for id in 0..copies as u32 {
            prop_assert_eq!(q.decode(id), row.to_vec());
        }
        Ok(())
    }

    fn permute_commutes<W: Width>(
        dim: usize,
        rows: &[Vec<f32>],
        seed: usize,
    ) -> Result<(), TestCaseError> {
        let n = rows.len();
        let q = AffineStore::<W>::from_store(&encode(dim, rows));
        let new_to_old: Vec<u32> =
            (0..n as u32).map(|i| (i as usize + seed) as u32 % n as u32).collect();
        let map = IdRemap::from_new_to_old(new_to_old.clone()).unwrap();
        let permuted: Vec<Vec<f32>> =
            new_to_old.iter().map(|&old| rows[old as usize].clone()).collect();
        let a = q.permute(&map);
        let b = AffineStore::<W>::from_store(&encode(dim, &permuted));
        prop_assert_eq!(a.mins(), b.mins());
        prop_assert_eq!(a.deltas(), b.deltas());
        for id in 0..n as u32 {
            prop_assert_eq!(a.code_row(id), b.code_row(id), "{:?} row {}", W::SPEC, id);
        }
        Ok(())
    }

    proptest! {
        /// Encode→decode lands within one quantization step on every
        /// dimension, at both widths, for arbitrary stores — including
        /// single-vector stores (`rows` can have length 1, making every
        /// dimension degenerate with Δ = 0 and the decode exact).
        #[test]
        fn encode_decode_within_one_step(case in stores()) {
            let (dim, rows) = case;
            within_one_step::<U8>(dim, &rows)?;
            within_one_step::<U4>(dim, &rows)?;
        }

        /// A store of identical rows makes every dimension constant
        /// (Δ = 0): the degenerate path must decode exactly.
        #[test]
        fn constant_dims_decode_exactly(
            dim in 1usize..=12,
            copies in 1usize..=6,
            anchor in -1000.0f32..1000.0,
        ) {
            let row: Vec<f32> = (0..dim).map(|i| anchor + i as f32 * 0.25).collect();
            constant_exact::<U8>(&row, copies)?;
            constant_exact::<U4>(&row, copies)?;
        }

        /// Permuting the encoded store is bit-identical to encoding the
        /// permuted vectors: the affine grids are global per dimension, so
        /// encoding is row-local — the SQ8 and SQ4 legs of the
        /// reorder∘quantize commutation contract.
        #[test]
        fn permute_commutes_with_encode(case in stores(), seed in 0usize..6) {
            let (dim, rows) = case;
            permute_commutes::<U8>(dim, &rows, seed)?;
            permute_commutes::<U4>(dim, &rows, seed)?;
        }
    }
}
