//! SQ8 scalar quantization: per-dimension affine `u8` codes for bandwidth-
//! bound graph traversal, with exact `f32` rerank at the end of every
//! search.
//!
//! Graph traversal at serving time is memory-bound: every beam step streams
//! whole vector rows through the cache hierarchy. Quantizing each dimension
//! to one byte (`x ≈ min_d + code · Δ_d`, `Δ_d = (max_d − min_d)/255`) cuts
//! that traffic 4×; the induced ranking error is repaired by re-scoring a
//! pool of `rerank_factor · k` leading candidates with exact `f32`
//! distances before returning (kANNolo's and Faiss's standard two-phase
//! scheme).
//!
//! ## Asymmetric distance
//!
//! Queries are **not** quantized. [`QuantizedStore::prepare_into`] shifts
//! the query once per search against the per-dimension grid — `u_d = q_d −
//! min_d` with step `s_d = Δ_d` — after which each candidate distance is
//! `Σ_d (u_d − s_d · c_d)²`: the squared distance between the query and
//! the *decoded* candidate, evaluated directly. This folded form needs no
//! division in the prepare step, no per-lane weight multiply in the
//! kernel (one fused multiply-subtract and one fused multiply-add per
//! lane), and no special case for degenerate constant dimensions —
//! `Δ_d = 0` makes `s_d = 0` and the lane contributes its exact
//! `(q_d − min_d)²` term against code 0.
//!
//! ## Layout and kernels
//!
//! Code rows are padded to whole 64-byte cache lines and the base pointer
//! is 64-byte aligned, mirroring the aligned `f32` layout of
//! [`crate::store::VectorStore`]; the prepared query arrays are zero-padded
//! to the same stride, so padded lanes contribute `(0 − 0·c)² = +0` and
//! never perturb a result. The `u8` kernels ([`l2_sq_u8`],
//! [`l2_sq_u8_batch`]) follow the same bit-identity discipline as the `f32`
//! kernels in [`crate::distance`]: eight accumulator lanes by position
//! `mod 8`, the fixed `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` reduction
//! tree, and zero-padded tails — but with *fused* multiply-adds
//! (`d = u − s·c` and `acc += d·d`, one rounding each), which the scalar
//! reference reproduces exactly through `f32::mul_add`. `u8 → f32`
//! conversion is exact, so AVX2 (+FMA), NEON and the scalar fallback
//! return bit-identical distances; `GASS_NO_SIMD` /
//! [`crate::set_simd_enabled`] select backends exactly as for `f32`, and
//! the rare AVX2-without-FMA host falls back to the scalar reference.

use super::{CodeBuf, CodeLine, CodecSpec, CodecStore, PreparedQuery, LINE_U8};
use crate::store::VectorStore;

/// Row stride of the quantized layout: `dim` rounded up to a whole number
/// of cache lines (64 codes).
pub(crate) fn quant_stride(dim: usize) -> usize {
    dim.next_multiple_of(LINE_U8)
}

// --- the quantized store ------------------------------------------------

/// Per-dimension min/max affine `u8` codes over a whole
/// [`VectorStore`], laid out in cache-line-padded rows.
#[derive(Clone, Debug)]
pub struct QuantizedStore {
    dim: usize,
    stride: usize,
    len: usize,
    mins: Vec<f32>,
    deltas: Vec<f32>,
    codes: CodeBuf,
}

impl QuantizedStore {
    /// Quantizes every vector of `store`: per-dimension min/max over the
    /// data, 255 equal steps per dimension, codes rounded to nearest.
    /// Deterministic — the same store always yields the same codes, which
    /// is what lets persistence re-encode on load.
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
        let deltas: Vec<f32> = (0..dim).map(|d| (maxs[d] - mins[d]) / 255.0).collect();
        let stride = quant_stride(dim);
        let mut out = Self {
            dim,
            stride,
            len: 0,
            mins,
            deltas,
            codes: CodeBuf::Heap(Vec::with_capacity(store.len() * stride / LINE_U8)),
        };
        for (_, row) in store.iter() {
            out.push_row(row);
        }
        out
    }

    /// Reassembles a store from persisted parts: packed code rows (`dim`
    /// bytes each, no padding) plus the per-dimension affine parameters.
    ///
    /// # Panics
    /// Panics if the lengths are inconsistent or `dim == 0`.
    pub fn from_parts(dim: usize, mins: Vec<f32>, deltas: Vec<f32>, packed: Vec<u8>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(mins.len(), dim, "mins length mismatch");
        assert_eq!(deltas.len(), dim, "deltas length mismatch");
        assert!(
            packed.len().is_multiple_of(dim),
            "packed code length {} is not a multiple of dim {}",
            packed.len(),
            dim
        );
        let stride = quant_stride(dim);
        let n = packed.len() / dim;
        let mut out = Self {
            dim,
            stride,
            len: 0,
            mins,
            deltas,
            codes: CodeBuf::Heap(Vec::with_capacity(n * stride / LINE_U8)),
        };
        for row in packed.chunks_exact(dim) {
            let mut rest = row;
            for _ in 0..stride / LINE_U8 {
                let mut line = [0u8; LINE_U8];
                let take = rest.len().min(LINE_U8);
                line[..take].copy_from_slice(&rest[..take]);
                rest = &rest[take..];
                out.codes.push(CodeLine(line));
            }
            out.len += 1;
        }
        out
    }

    fn push_row(&mut self, row: &[f32]) {
        debug_assert_eq!(row.len(), self.dim);
        let mut line = [0u8; LINE_U8];
        let mut fill = 0usize;
        let mut vals = row.iter().zip(self.mins.iter().zip(&self.deltas));
        for _ in 0..self.stride {
            let code = match vals.next() {
                Some((&x, (&lo, &delta))) if delta > 0.0 => {
                    ((x - lo) / delta).round().clamp(0.0, 255.0) as u8
                }
                _ => 0,
            };
            line[fill] = code;
            fill += 1;
            if fill == LINE_U8 {
                self.codes.push(CodeLine(line));
                line = [0u8; LINE_U8];
                fill = 0;
            }
        }
        debug_assert_eq!(fill, 0, "stride is a whole number of lines");
        self.len += 1;
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

    /// Codes between consecutive row starts (a multiple of 64).
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

    #[inline]
    fn raw(&self) -> &[u8] {
        self.codes.bytes()
    }

    /// The full padded code row of vector `id` (`stride` bytes; padding
    /// codes are zero and are neutralized by the zero weights of
    /// [`PreparedQuery`]).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn code_row(&self, id: u32) -> &[u8] {
        let start = id as usize * self.stride;
        &self.raw()[start..start + self.stride]
    }

    /// Copies the logical codes into a packed `len * dim` buffer (padding
    /// stripped) — the persisted representation.
    pub fn to_packed_codes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len * self.dim);
        for id in 0..self.len as u32 {
            out.extend_from_slice(&self.code_row(id)[..self.dim]);
        }
        out
    }

    /// Copies the store with code rows relabeled through `map`: row `u` of
    /// the result is row `map.to_old(u)` of `self`. The affine parameters
    /// are global per dimension, so permuted codes are bit-identical to
    /// re-encoding the permuted vectors.
    pub fn permute(&self, map: &crate::reorder::IdRemap) -> QuantizedStore {
        assert_eq!(map.len(), self.len, "remap covers a different vector count");
        let mut codes = vec![CodeLine([0u8; LINE_U8]); self.len * self.stride / LINE_U8];
        let dst = super::lines_as_bytes_mut(&mut codes);
        let src = self.raw();
        for new in 0..self.len {
            let old = map.to_old(new as u32) as usize;
            dst[new * self.stride..(new + 1) * self.stride]
                .copy_from_slice(&src[old * self.stride..(old + 1) * self.stride]);
        }
        Self {
            dim: self.dim,
            stride: self.stride,
            len: self.len,
            mins: self.mins.clone(),
            deltas: self.deltas.clone(),
            codes: CodeBuf::Heap(codes),
        }
    }

    /// Reconstructs vector `id` from its codes (`min_d + c_d · Δ_d`). The
    /// asymmetric distance to a query equals the exact squared distance to
    /// this reconstruction.
    pub fn decode(&self, id: u32) -> Vec<f32> {
        let row = self.code_row(id);
        (0..self.dim).map(|d| self.mins[d] + row[d] as f32 * self.deltas[d]).collect()
    }

    /// Shifts `query` against the quantization grid (see the module docs),
    /// reusing the buffers of `out`. Padding lanes get `u = 0, s = 0`.
    pub fn prepare_into(&self, query: &[f32], out: &mut PreparedQuery) {
        debug_assert_eq!(query.len(), self.dim, "query dimension mismatch");
        out.u.clear();
        out.s.clear();
        out.u.reserve(self.stride);
        out.s.reserve(self.stride);
        for (&q, &lo) in query.iter().zip(&self.mins) {
            out.u.push(q - lo);
        }
        out.s.extend_from_slice(&self.deltas);
        out.u.resize(self.stride, 0.0);
        out.s.resize(self.stride, 0.0);
    }

    /// Kernel span: `dim` rounded up to a whole 8-lane chunk. The lanes
    /// between `dim` and the full line-padded `stride` carry `w = 0` and
    /// contribute exactly `+0.0`, so the kernels can stop here —
    /// bit-identical to running the whole padded row, but up to a third
    /// fewer chunks (e.g. 96 → 96 lanes instead of 128).
    #[inline]
    fn kern_len(&self) -> usize {
        (self.dim + 7) & !7
    }

    /// Asymmetric squared distance from a prepared query to vector `id`.
    #[inline]
    pub fn dist_prepared(&self, pq: &PreparedQuery, id: u32) -> f32 {
        let k = self.kern_len();
        l2_sq_u8(&pq.u[..k], &pq.s[..k], &self.code_row(id)[..k])
    }

    /// Asymmetric squared distances from a prepared query to **four**
    /// vectors at once (bit-identical to four [`Self::dist_prepared`]
    /// calls).
    #[inline]
    pub fn dist_prepared_batch(&self, pq: &PreparedQuery, ids: [u32; 4]) -> [f32; 4] {
        let k = self.kern_len();
        l2_sq_u8_batch(
            &pq.u[..k],
            &pq.s[..k],
            [
                &self.code_row(ids[0])[..k],
                &self.code_row(ids[1])[..k],
                &self.code_row(ids[2])[..k],
                &self.code_row(ids[3])[..k],
            ],
        )
    }

    /// Hints the CPU to pull vector `id`'s `dim` code bytes into L1 (by
    /// the row rule of [`VectorStore::prefetch`]). Semantically a no-op.
    #[inline]
    pub fn prefetch(&self, id: u32) {
        crate::distance::prefetch_slice(&self.code_row(id)[..self.dim]);
    }

    /// Heap bytes held by the codes and affine parameters (the quantized
    /// serving path's memory cost, reported by index footprint harnesses).
    pub fn heap_bytes(&self) -> usize {
        self.codes.heap_bytes()
            + (self.mins.capacity() + self.deltas.capacity()) * std::mem::size_of::<f32>()
    }

    /// Wraps a memory-mapped code area (aligned geometry: rows `stride`
    /// bytes apart, 64-byte-aligned start) with the given affine
    /// parameters — the mapped counterpart of [`Self::from_parts`].
    ///
    /// # Panics
    /// Panics on shape mismatch between the region and `len` rows.
    pub fn from_parts_mapped(
        dim: usize,
        mins: Vec<f32>,
        deltas: Vec<f32>,
        len: usize,
        region: crate::mmap::MmapRegion,
    ) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(mins.len(), dim, "mins length mismatch");
        assert_eq!(deltas.len(), dim, "deltas length mismatch");
        let stride = quant_stride(dim);
        assert_eq!(region.len(), len * stride, "mapped code area size mismatch");
        Self { dim, stride, len, mins, deltas, codes: CodeBuf::from_mapped(region) }
    }
}

impl CodecStore for QuantizedStore {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Sq8
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

    fn permute(&self, map: &crate::reorder::IdRemap) -> Box<dyn CodecStore> {
        Box::new(QuantizedStore::permute(self, map))
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

// --- u8 asymmetric-distance kernels -------------------------------------

/// Reduces the eight accumulator lanes in the canonical tree order (same
/// as the `f32` kernels).
#[inline(always)]
pub(crate) fn reduce8(acc: [f32; 8]) -> f32 {
    let c = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    (c[0] + c[2]) + (c[1] + c[3])
}

/// One lane of the asymmetric kernel: fused residual `u − s·c`, fused
/// square-accumulate. Exactly one rounding per operation — what
/// `vfnmadd`/`vfmadd` (AVX2+FMA) and `fmls`/`fmla` (NEON) produce, which
/// is why the backends agree bitwise.
#[inline(always)]
pub(crate) fn lane(u: f32, s: f32, c: u8, acc: f32) -> f32 {
    let d = (-s).mul_add(c as f32, u);
    d.mul_add(d, acc)
}

/// Scalar reference for [`l2_sq_u8`]: eight-lane unrolled squared distance
/// against the decoded candidate, `Σ (u_i − s_i · c_i)²`. Tail elements
/// keep their lane (position `mod 8`), matching the SIMD backends'
/// zero-padded tails.
#[inline]
pub fn l2_sq_u8_scalar(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(u.len(), codes.len());
    debug_assert_eq!(s.len(), codes.len());
    let mut acc = [0.0f32; 8];
    let chunks = u.len() / 8;
    for i in 0..chunks {
        let base = i * 8;
        for l in 0..8 {
            acc[l] = lane(u[base + l], s[base + l], codes[base + l], acc[l]);
        }
    }
    let base = chunks * 8;
    for l in 0..u.len() - base {
        acc[l] = lane(u[base + l], s[base + l], codes[base + l], acc[l]);
    }
    reduce8(acc)
}

/// Scalar reference for [`l2_sq_u8_batch`]: four independent
/// [`l2_sq_u8_scalar`] accumulations sharing each loaded query chunk.
#[inline]
pub fn l2_sq_u8_batch_scalar(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    for c in codes {
        debug_assert_eq!(u.len(), c.len());
    }
    let mut acc = [[0.0f32; 8]; 4];
    let chunks = u.len() / 8;
    for i in 0..chunks {
        let base = i * 8;
        for (v, row) in codes.iter().enumerate() {
            for l in 0..8 {
                acc[v][l] = lane(u[base + l], s[base + l], row[base + l], acc[v][l]);
            }
        }
    }
    let base = chunks * 8;
    let mut out = [0.0f32; 4];
    for (v, row) in codes.iter().enumerate() {
        for l in 0..u.len() - base {
            acc[v][l] = lane(u[base + l], s[base + l], row[base + l], acc[v][l]);
        }
        out[v] = reduce8(acc[v]);
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA `u8` kernels. Codes widen through `vpmovzxbd` +
    //! `vcvtdq2ps` — an exact conversion — then each lane is one
    //! `vfnmadd` (`d = u − s·c`) and one `vfmadd` (`acc += d·d`), exactly
    //! the fused arithmetic of the scalar reference's `f32::mul_add`.
    //! Accumulation is in lane `mod 8` with the canonical reduction. Tails
    //! copy all three streams into zero-padded stack buffers; a
    //! `(0 − 0·0)²` term leaves its accumulator lane bit-unchanged.

    use core::arch::x86_64::*;

    /// Canonical `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` reduction.
    #[inline(always)]
    unsafe fn reduce8(acc: __m256) -> f32 {
        let c = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        let d = _mm_add_ps(c, _mm_movehl_ps(c, c));
        let e = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(e)
    }

    /// Loads 8 codes and widens them to `f32` (exact for 0..=255).
    #[inline(always)]
    unsafe fn load_codes8(p: *const u8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)))
    }

    /// One 8-lane step: `acc += (u − s·c)²`, fused.
    #[inline(always)]
    unsafe fn step(acc: __m256, uq: __m256, sq: __m256, pc: *const u8) -> __m256 {
        let d = _mm256_fnmadd_ps(sq, load_codes8(pc), uq);
        _mm256_fmadd_ps(d, d, acc)
    }

    /// # Safety
    /// The CPU supports AVX2 and FMA; `u`, `s` and `codes` have the same
    /// length (the kernel reads `u.len()` of each).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn l2_sq_u8(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(u.len(), codes.len());
        debug_assert_eq!(s.len(), codes.len());
        let n = u.len();
        let (pu, ps, pc) = (u.as_ptr(), s.as_ptr(), codes.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let chunks = n / 8;
        for i in 0..chunks {
            let uq = _mm256_loadu_ps(pu.add(i * 8));
            let sq = _mm256_loadu_ps(ps.add(i * 8));
            acc = step(acc, uq, sq, pc.add(i * 8));
        }
        let rem = n % 8;
        if rem != 0 {
            let mut ub = [0.0f32; 8];
            let mut sb = [0.0f32; 8];
            let mut cb = [0u8; 8];
            core::ptr::copy_nonoverlapping(pu.add(chunks * 8), ub.as_mut_ptr(), rem);
            core::ptr::copy_nonoverlapping(ps.add(chunks * 8), sb.as_mut_ptr(), rem);
            core::ptr::copy_nonoverlapping(pc.add(chunks * 8), cb.as_mut_ptr(), rem);
            let uq = _mm256_loadu_ps(ub.as_ptr());
            let sq = _mm256_loadu_ps(sb.as_ptr());
            acc = step(acc, uq, sq, cb.as_ptr());
        }
        reduce8(acc)
    }

    /// # Safety
    /// As [`l2_sq_u8`], for each of the four rows.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn l2_sq_u8_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
        for c in codes {
            debug_assert_eq!(u.len(), c.len());
        }
        let n = u.len();
        let (pu, ps) = (u.as_ptr(), s.as_ptr());
        let pc = [codes[0].as_ptr(), codes[1].as_ptr(), codes[2].as_ptr(), codes[3].as_ptr()];
        let mut acc = [_mm256_setzero_ps(); 4];
        let chunks = n / 8;
        for i in 0..chunks {
            let uq = _mm256_loadu_ps(pu.add(i * 8));
            let sq = _mm256_loadu_ps(ps.add(i * 8));
            for v in 0..4 {
                acc[v] = step(acc[v], uq, sq, pc[v].add(i * 8));
            }
        }
        let rem = n % 8;
        if rem != 0 {
            let mut ub = [0.0f32; 8];
            let mut sb = [0.0f32; 8];
            core::ptr::copy_nonoverlapping(pu.add(chunks * 8), ub.as_mut_ptr(), rem);
            core::ptr::copy_nonoverlapping(ps.add(chunks * 8), sb.as_mut_ptr(), rem);
            let uq = _mm256_loadu_ps(ub.as_ptr());
            let sq = _mm256_loadu_ps(sb.as_ptr());
            for v in 0..4 {
                let mut cb = [0u8; 8];
                core::ptr::copy_nonoverlapping(pc[v].add(chunks * 8), cb.as_mut_ptr(), rem);
                acc[v] = step(acc[v], uq, sq, cb.as_ptr());
            }
        }
        [reduce8(acc[0]), reduce8(acc[1]), reduce8(acc[2]), reduce8(acc[3])]
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON `u8` kernels: two `float32x4` accumulators model the eight
    //! lanes; codes widen `u8 → u16 → u32 → f32` (exact), tails go through
    //! zero-padded stack buffers. `vfmsq` (`u − s·c`) and `vfmaq`
    //! (`acc += d·d`) are single-rounding fused ops — the same per-lane
    //! arithmetic as the scalar reference's `f32::mul_add`.

    use core::arch::aarch64::*;

    #[inline(always)]
    unsafe fn reduce8(lo: float32x4_t, hi: float32x4_t) -> f32 {
        let c = vaddq_f32(lo, hi);
        let (c0, c1, c2, c3) = (
            vgetq_lane_f32(c, 0),
            vgetq_lane_f32(c, 1),
            vgetq_lane_f32(c, 2),
            vgetq_lane_f32(c, 3),
        );
        (c0 + c2) + (c1 + c3)
    }

    /// Widens 8 codes at `p` into two exact `f32` quads.
    #[inline(always)]
    unsafe fn load_codes8(p: *const u8) -> (float32x4_t, float32x4_t) {
        let wide = vmovl_u8(vld1_u8(p));
        (
            vcvtq_f32_u32(vmovl_u16(vget_low_u16(wide))),
            vcvtq_f32_u32(vmovl_u16(vget_high_u16(wide))),
        )
    }

    #[inline(always)]
    unsafe fn accum(
        lo: &mut float32x4_t,
        hi: &mut float32x4_t,
        pu: *const f32,
        ps: *const f32,
        pc: *const u8,
    ) {
        let (c0, c1) = load_codes8(pc);
        let d0 = vfmsq_f32(vld1q_f32(pu), vld1q_f32(ps), c0);
        let d1 = vfmsq_f32(vld1q_f32(pu.add(4)), vld1q_f32(ps.add(4)), c1);
        *lo = vfmaq_f32(*lo, d0, d0);
        *hi = vfmaq_f32(*hi, d1, d1);
    }

    /// # Safety
    /// The CPU supports NEON; `u`, `s` and `codes` have the same length
    /// (the kernel reads `u.len()` of each).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn l2_sq_u8(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(u.len(), codes.len());
        debug_assert_eq!(s.len(), codes.len());
        let n = u.len();
        let (pu, ps, pc) = (u.as_ptr(), s.as_ptr(), codes.as_ptr());
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        let chunks = n / 8;
        for i in 0..chunks {
            accum(&mut lo, &mut hi, pu.add(i * 8), ps.add(i * 8), pc.add(i * 8));
        }
        let rem = n % 8;
        if rem != 0 {
            let mut ub = [0.0f32; 8];
            let mut sb = [0.0f32; 8];
            let mut cb = [0u8; 8];
            core::ptr::copy_nonoverlapping(pu.add(chunks * 8), ub.as_mut_ptr(), rem);
            core::ptr::copy_nonoverlapping(ps.add(chunks * 8), sb.as_mut_ptr(), rem);
            core::ptr::copy_nonoverlapping(pc.add(chunks * 8), cb.as_mut_ptr(), rem);
            accum(&mut lo, &mut hi, ub.as_ptr(), sb.as_ptr(), cb.as_ptr());
        }
        reduce8(lo, hi)
    }

    /// # Safety
    /// As [`l2_sq_u8`], for each of the four rows.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn l2_sq_u8_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        for (o, c) in out.iter_mut().zip(codes) {
            *o = l2_sq_u8(u, s, c);
        }
        out
    }
}

/// The AVX2 kernels also require FMA (`vfnmadd`/`vfmadd`). The two
/// feature flags ship together on every AVX2 part since Haswell, but the
/// gate is checked once anyway — the rare AVX2-without-FMA host falls
/// back to the scalar reference.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn fma_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static FMA: AtomicU8 = AtomicU8::new(0);
    match FMA.load(Ordering::Relaxed) {
        0 => {
            let yes = std::arch::is_x86_feature_detected!("fma");
            FMA.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
            yes
        }
        1 => true,
        _ => false,
    }
}

/// The precondition the SIMD SQ8 and SQ4 kernels read memory under: `s`
/// is as long as `u` and every code row holds `row_bytes` bytes (`u.len()`
/// for SQ8, two lanes per byte for SQ4). Checked at every safe entry point,
/// so a short, ragged or mismatched row is a panic, not an out-of-bounds
/// read. The stores slice every operand to the kernel span just before the
/// call, so on the traversal's path it compares lengths just set.
#[inline(always)]
pub(crate) fn check_affine(
    codec: &str,
    u: &[f32],
    s: &[f32],
    rows: &[&[u8]],
    row_bytes: usize,
) {
    assert!(
        s.len() == u.len() && rows.iter().all(|r| r.len() == row_bytes),
        "{codec} kernel over {} query lanes needs as many steps and {row_bytes}-byte code rows, \
         got {} steps and rows of {:?} bytes",
        u.len(),
        s.len(),
        rows.iter().map(|r| r.len()).collect::<Vec<_>>()
    );
}

/// Asymmetric squared distance in code space, `Σ (u_i − s_i · c_i)²`,
/// dispatched to the best available kernel (all backends bit-identical —
/// see the module docs). `u`/`s` come from
/// [`QuantizedStore::prepare_into`].
///
/// # Panics
/// Panics unless `u`, `s` and `codes` have the same length.
#[inline]
pub fn l2_sq_u8(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
    check_affine("SQ8", u, s, &[codes], u.len());
    match crate::distance::active_backend() {
        // SAFETY (every arm): the backend's features were detected, and
        // `check_affine` established the lengths the kernels read under.
        #[cfg(target_arch = "x86_64")]
        crate::distance::BACKEND_AVX2 if fma_available() => unsafe {
            avx2::l2_sq_u8(u, s, codes)
        },
        #[cfg(target_arch = "aarch64")]
        crate::distance::BACKEND_NEON => unsafe { neon::l2_sq_u8(u, s, codes) },
        _ => l2_sq_u8_scalar(u, s, codes),
    }
}

/// [`l2_sq_u8`] against **four** code rows at once — the quantized beam
/// search's batched kernel. Bit-identical to four separate calls.
///
/// # Panics
/// As [`l2_sq_u8`], for any of the four rows.
#[inline]
pub fn l2_sq_u8_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    check_affine("SQ8", u, s, &codes, u.len());
    match crate::distance::active_backend() {
        // SAFETY (every arm): as in `l2_sq_u8`, for each row.
        #[cfg(target_arch = "x86_64")]
        crate::distance::BACKEND_AVX2 if fma_available() => unsafe {
            avx2::l2_sq_u8_batch(u, s, codes)
        },
        #[cfg(target_arch = "aarch64")]
        crate::distance::BACKEND_NEON => unsafe { neon::l2_sq_u8_batch(u, s, codes) },
        _ => l2_sq_u8_batch_scalar(u, s, codes),
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

    #[test]
    fn rows_are_cache_line_aligned_and_padded() {
        let store = ramp_store(5, 100);
        let q = QuantizedStore::from_store(&store);
        assert_eq!(q.stride(), 128);
        assert_eq!(q.len(), 5);
        for id in 0..5u32 {
            assert_eq!(q.code_row(id).as_ptr() as usize % 64, 0, "row {id} misaligned");
            assert!(q.code_row(id)[100..].iter().all(|&c| c == 0), "padding must be zero");
        }
    }

    #[test]
    fn decode_within_one_step_per_dim() {
        let store = ramp_store(20, 13);
        let q = QuantizedStore::from_store(&store);
        for (id, row) in store.iter() {
            let dec = q.decode(id);
            for d in 0..13 {
                let tol = q.deltas()[d] * 0.5 + 1e-6;
                assert!(
                    (dec[d] - row[d]).abs() <= tol,
                    "id={id} dim={d}: {} vs {} (step {})",
                    dec[d],
                    row[d],
                    q.deltas()[d]
                );
            }
        }
    }

    #[test]
    fn constant_dimension_is_exact() {
        let mut store = VectorStore::new(3);
        store.push(&[1.0, 5.5, -2.0]);
        store.push(&[2.0, 5.5, -1.0]);
        let q = QuantizedStore::from_store(&store);
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
    fn asymmetric_distance_matches_decoded_distance() {
        let store = ramp_store(30, 96);
        let q = QuantizedStore::from_store(&store);
        let query: Vec<f32> = (0..96).map(|d| ((d * 13) as f32 * 0.21).cos() * 2.5).collect();
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        for id in 0..30u32 {
            let asym = q.dist_prepared(&pq, id);
            let exact = l2_sq(&query, &q.decode(id));
            let tol = exact.abs() * 1e-4 + 1e-3;
            assert!((asym - exact).abs() <= tol, "id={id}: {asym} vs {exact}");
        }
    }

    #[test]
    fn batch_kernel_is_bit_identical_to_single() {
        let store = ramp_store(8, 100);
        let q = QuantizedStore::from_store(&store);
        let query: Vec<f32> = (0..100).map(|d| (d as f32 * 0.11).sin()).collect();
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        let batch = q.dist_prepared_batch(&pq, [0, 3, 5, 7]);
        for (i, id) in [0u32, 3, 5, 7].into_iter().enumerate() {
            assert_eq!(batch[i].to_bits(), q.dist_prepared(&pq, id).to_bits());
        }
    }

    #[test]
    fn dispatched_u8_kernels_match_scalar_bitwise() {
        for dim in (1usize..=200).chain([256, 960]) {
            let t: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin() * 9.0).collect();
            let w: Vec<f32> = (0..dim).map(|i| ((i as f32 * 0.3).cos() + 1.5) * 0.01).collect();
            let rows: Vec<Vec<u8>> = (0..4)
                .map(|v| (0..dim).map(|i| ((i * 37 + v * 91) % 256) as u8).collect())
                .collect();
            let refs = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            assert_eq!(
                l2_sq_u8(&t, &w, refs[0]).to_bits(),
                l2_sq_u8_scalar(&t, &w, refs[0]).to_bits(),
                "dim={dim}"
            );
            let batch = l2_sq_u8_batch(&t, &w, refs);
            let batch_ref = l2_sq_u8_batch_scalar(&t, &w, refs);
            for v in 0..4 {
                assert_eq!(batch[v].to_bits(), batch_ref[v].to_bits(), "dim={dim} v={v}");
            }
        }
    }

    #[test]
    fn single_vector_store_quantizes() {
        let store = VectorStore::from_flat(4, vec![1.0, -2.0, 0.5, 3.0]);
        let q = QuantizedStore::from_store(&store);
        assert_eq!(q.len(), 1);
        // One vector makes every dimension constant: decode is exact.
        assert_eq!(q.decode(0), vec![1.0, -2.0, 0.5, 3.0]);
    }

    #[test]
    fn from_parts_round_trips() {
        let store = ramp_store(9, 33);
        let q = QuantizedStore::from_store(&store);
        let back = QuantizedStore::from_parts(
            q.dim(),
            q.mins().to_vec(),
            q.deltas().to_vec(),
            q.to_packed_codes(),
        );
        assert_eq!(back.len(), q.len());
        for id in 0..9u32 {
            assert_eq!(back.code_row(id), q.code_row(id), "row {id}");
        }
    }

    #[test]
    fn heap_bytes_accounts_codes() {
        let store = ramp_store(16, 70);
        let q = QuantizedStore::from_store(&store);
        // 70 dims -> stride 128 -> two lines per row.
        assert!(q.heap_bytes() >= 16 * 128);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::store::VectorStore;
    use proptest::prelude::*;

    /// A dimension plus same-length rows (the shim's `prop_flat_map`
    /// threads the dimension into the row strategy).
    fn stores() -> impl Strategy<Value = (usize, Vec<Vec<f32>>)> {
        (1usize..=12).prop_flat_map(|dim| {
            prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim), 1..=8)
                .prop_map(move |rows| (dim, rows))
        })
    }

    proptest! {
        /// Encode→decode lands within one quantization step on every
        /// dimension, for arbitrary stores — including single-vector
        /// stores (`rows` can have length 1, making every dimension
        /// degenerate with Δ = 0 and the decode exact).
        #[test]
        fn encode_decode_within_one_step(case in stores()) {
            let (dim, rows) = case;
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let q = QuantizedStore::from_store(&VectorStore::from_flat(dim, flat));
            for d in 0..dim {
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for r in &rows {
                    lo = lo.min(r[d]);
                    hi = hi.max(r[d]);
                }
                let step = (hi - lo) / 255.0;
                for (id, r) in rows.iter().enumerate() {
                    let err = (q.decode(id as u32)[d] - r[d]).abs();
                    prop_assert!(
                        err <= step + step * 1e-3 + 1e-4,
                        "dim {} id {}: err {} > step {}", d, id, err, step
                    );
                }
            }
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
            let flat: Vec<f32> =
                std::iter::repeat_n(row.clone(), copies).flatten().collect();
            let q = QuantizedStore::from_store(&VectorStore::from_flat(dim, flat));
            for id in 0..copies as u32 {
                prop_assert_eq!(q.decode(id), row.clone());
            }
        }

        /// Permuting the encoded store is bit-identical to encoding the
        /// permuted vectors: the affine grids are global per dimension, so
        /// encoding is row-local — the SQ8 leg of the reorder∘quantize
        /// commutation contract.
        #[test]
        fn permute_commutes_with_encode(case in stores(), seed in 0usize..6) {
            let (dim, rows) = case;
            let n = rows.len();
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let q = QuantizedStore::from_store(&VectorStore::from_flat(dim, flat));
            let new_to_old: Vec<u32> =
                (0..n as u32).map(|i| (i as usize + seed) as u32 % n as u32).collect();
            let map = crate::reorder::IdRemap::from_new_to_old(new_to_old.clone()).unwrap();
            let mut permuted = VectorStore::new(dim);
            for &old in &new_to_old {
                permuted.push(&rows[old as usize]);
            }
            let a = q.permute(&map);
            let b = QuantizedStore::from_store(&permuted);
            prop_assert_eq!(a.mins(), b.mins());
            prop_assert_eq!(a.deltas(), b.deltas());
            for id in 0..n as u32 {
                prop_assert_eq!(a.code_row(id), b.code_row(id), "row {}", id);
            }
        }
    }
}
