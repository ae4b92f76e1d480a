//! SQ4 scalar quantization: per-dimension affine 4-bit codes, two
//! dimensions per byte — half the traversal traffic of SQ8 for one extra
//! unpack step in the kernel.
//!
//! The grid is the SQ8 grid with 15 steps instead of 255: `x ≈ min_d +
//! c_d · Δ_d` with `Δ_d = (max_d − min_d)/15` and `c_d ∈ 0..=15`. Codes
//! pack two per byte — even dimension `2k` in the **low** nibble of byte
//! `k`, odd dimension `2k+1` in the **high** nibble — and rows pad to
//! whole 64-byte cache lines from a 64-byte-aligned base, mirroring the
//! SQ8 layout at half the width.
//!
//! ## Kernels
//!
//! The asymmetric distance is the same folded form as SQ8 —
//! `Σ_d (u_d − s_d · c_d)²` against [`PreparedQuery::u`]/[`PreparedQuery::s`]
//! — evaluated by [`l2_sq_u4`]/[`l2_sq_u4_batch`] over the packed rows.
//! SIMD backends *widen* each 8-byte group into 16 sequential dimension
//! codes (mask the nibbles apart, re-interleave to natural dimension
//! order, then the exact `u8 → f32` conversion of the SQ8 kernels) and run
//! the identical fused multiply-subtract / multiply-add lane arithmetic:
//! lane `d mod 8`, the canonical `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`
//! reduction, zero-padded tails. The scalar reference reproduces the same
//! per-lane sequence through `f32::mul_add`, so AVX2(+FMA), NEON and
//! scalar agree bitwise. A phantom high nibble after an odd final
//! dimension meets `u = s = 0` and contributes `+0.0`.

use super::sq8::{check_affine, lane, reduce8};
use super::{
    lines_as_bytes_mut, CodeBuf, CodeLine, CodecSpec, CodecStore, PreparedQuery, LINE_U8,
};
use crate::store::VectorStore;

/// Levels per dimension (4-bit codes).
const LEVELS: f32 = 15.0;

/// Bytes between consecutive row starts: two dims per byte, rounded up to
/// whole cache lines.
pub(crate) fn sq4_stride(dim: usize) -> usize {
    dim.div_ceil(2).next_multiple_of(LINE_U8)
}

/// Per-dimension min/max affine 4-bit codes over a whole [`VectorStore`],
/// nibble-packed into cache-line-padded rows.
#[derive(Clone, Debug)]
pub struct Sq4Store {
    dim: usize,
    stride: usize,
    len: usize,
    mins: Vec<f32>,
    deltas: Vec<f32>,
    codes: CodeBuf,
}

impl Sq4Store {
    /// Quantizes every vector of `store`: per-dimension min/max, 15 equal
    /// steps per dimension, codes rounded to nearest. Deterministic.
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
        let deltas: Vec<f32> = (0..dim).map(|d| (maxs[d] - mins[d]) / LEVELS).collect();
        let stride = sq4_stride(dim);
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

    /// Reassembles a store from persisted parts: packed code rows
    /// (`ceil(dim/2)` bytes each, no padding) plus the per-dimension
    /// affine parameters.
    ///
    /// # Panics
    /// Panics if the lengths are inconsistent or `dim == 0`.
    pub fn from_parts(dim: usize, mins: Vec<f32>, deltas: Vec<f32>, packed: Vec<u8>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(mins.len(), dim, "mins length mismatch");
        assert_eq!(deltas.len(), dim, "deltas length mismatch");
        let row_bytes = dim.div_ceil(2);
        assert!(
            packed.len().is_multiple_of(row_bytes),
            "packed code length {} is not a multiple of row width {}",
            packed.len(),
            row_bytes
        );
        let stride = sq4_stride(dim);
        let n = packed.len() / row_bytes;
        let mut codes = vec![CodeLine([0u8; LINE_U8]); n * stride / LINE_U8];
        let raw = lines_as_bytes_mut(&mut codes);
        for (id, row) in packed.chunks_exact(row_bytes).enumerate() {
            raw[id * stride..id * stride + row_bytes].copy_from_slice(row);
        }
        Self { dim, stride, len: n, mins, deltas, codes: CodeBuf::Heap(codes) }
    }

    /// Reassembles a store over a mapped code area (row geometry identical
    /// to the heap layout: `stride` bytes per row from a 64-byte base).
    ///
    /// # Panics
    /// Panics if parameter lengths or the region size are inconsistent.
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
        let stride = sq4_stride(dim);
        assert_eq!(region.len(), len * stride, "mapped code area size mismatch");
        Self { dim, stride, len, mins, deltas, codes: CodeBuf::from_mapped(region) }
    }

    fn push_row(&mut self, row: &[f32]) {
        debug_assert_eq!(row.len(), self.dim);
        let code = |d: usize| -> u8 {
            match (row.get(d), self.deltas.get(d)) {
                (Some(&x), Some(&delta)) if delta > 0.0 => {
                    ((x - self.mins[d]) / delta).round().clamp(0.0, LEVELS) as u8
                }
                _ => 0,
            }
        };
        let mut line = [0u8; LINE_U8];
        let mut fill = 0usize;
        for byte in 0..self.stride {
            line[fill] = code(2 * byte) | (code(2 * byte + 1) << 4);
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

    /// The full padded code row of vector `id` (`stride` bytes).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn code_row(&self, id: u32) -> &[u8] {
        let start = id as usize * self.stride;
        &self.codes.bytes()[start..start + self.stride]
    }

    /// Copies the logical code bytes into a packed `len * ceil(dim/2)`
    /// buffer (padding stripped) — the persisted representation.
    pub fn to_packed_codes(&self) -> Vec<u8> {
        let row_bytes = self.dim.div_ceil(2);
        let mut out = Vec::with_capacity(self.len * row_bytes);
        for id in 0..self.len as u32 {
            out.extend_from_slice(&self.code_row(id)[..row_bytes]);
        }
        out
    }

    /// Copies the store with code rows relabeled through `map` (the affine
    /// parameters are global per dimension, so permuted codes are
    /// bit-identical to re-encoding the permuted vectors).
    pub fn permute(&self, map: &crate::reorder::IdRemap) -> Sq4Store {
        assert_eq!(map.len(), self.len, "remap covers a different vector count");
        let mut codes = vec![CodeLine([0u8; LINE_U8]); self.len * self.stride / LINE_U8];
        let dst = lines_as_bytes_mut(&mut codes);
        let src = self.codes.bytes();
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

    /// Reconstructs vector `id` from its codes (`min_d + c_d · Δ_d`).
    pub fn decode(&self, id: u32) -> Vec<f32> {
        let row = self.code_row(id);
        (0..self.dim)
            .map(|d| {
                let byte = row[d / 2];
                let c = if d % 2 == 0 { byte & 0x0F } else { byte >> 4 };
                self.mins[d] + c as f32 * self.deltas[d]
            })
            .collect()
    }

    /// Shifts `query` against the quantization grid (`u_d = q_d − min_d`,
    /// `s_d = Δ_d`), zero-padded to the kernel span.
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

    /// Kernel span in dimensions: `dim` rounded up to a whole 16-dim
    /// chunk (8 code bytes). Padding lanes carry `u = s = 0` and
    /// contribute `+0.0`.
    #[inline]
    fn kern_len(&self) -> usize {
        (self.dim + 15) & !15
    }

    /// Asymmetric squared distance from a prepared query to vector `id`.
    #[inline]
    pub fn dist_prepared(&self, pq: &PreparedQuery, id: u32) -> f32 {
        let k = self.kern_len();
        l2_sq_u4(&pq.u[..k], &pq.s[..k], &self.code_row(id)[..k / 2])
    }

    /// Asymmetric squared distances to **four** vectors at once
    /// (bit-identical to four [`Self::dist_prepared`] calls).
    #[inline]
    pub fn dist_prepared_batch(&self, pq: &PreparedQuery, ids: [u32; 4]) -> [f32; 4] {
        let k = self.kern_len();
        l2_sq_u4_batch(
            &pq.u[..k],
            &pq.s[..k],
            [
                &self.code_row(ids[0])[..k / 2],
                &self.code_row(ids[1])[..k / 2],
                &self.code_row(ids[2])[..k / 2],
                &self.code_row(ids[3])[..k / 2],
            ],
        )
    }

    /// Hints the CPU to pull vector `id`'s code row into L1. Semantically
    /// a no-op.
    #[inline]
    pub fn prefetch(&self, id: u32) {
        crate::distance::prefetch_slice(&self.code_row(id)[..self.dim.div_ceil(2)]);
    }

    /// Heap bytes held by the codes and affine parameters (mapped code
    /// areas count zero; their residency is kernel-managed).
    pub fn heap_bytes(&self) -> usize {
        self.codes.heap_bytes()
            + (self.mins.capacity() + self.deltas.capacity()) * std::mem::size_of::<f32>()
    }
}

impl CodecStore for Sq4Store {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Sq4
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
        Box::new(Sq4Store::permute(self, map))
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

// --- nibble-packed asymmetric-distance kernels ---------------------------

/// Scalar reference for [`l2_sq_u4`]: `Σ_d (u_d − s_d · c_d)²` over
/// nibble-packed codes, dimensions in natural order, accumulator lane
/// `d mod 8`, the canonical reduction — the exact per-lane sequence of the
/// SIMD backends. `codes` holds `ceil(n/2)` bytes; a trailing high nibble
/// past `n` is ignored.
#[inline]
pub fn l2_sq_u4_scalar(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(u.len(), s.len());
    debug_assert_eq!(codes.len(), u.len().div_ceil(2));
    let mut acc = [0.0f32; 8];
    for d in 0..u.len() {
        let byte = codes[d / 2];
        let c = if d % 2 == 0 { byte & 0x0F } else { byte >> 4 };
        acc[d % 8] = lane(u[d], s[d], c, acc[d % 8]);
    }
    reduce8(acc)
}

/// Scalar reference for [`l2_sq_u4_batch`]: four independent
/// [`l2_sq_u4_scalar`] accumulations.
#[inline]
pub fn l2_sq_u4_batch_scalar(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    [
        l2_sq_u4_scalar(u, s, codes[0]),
        l2_sq_u4_scalar(u, s, codes[1]),
        l2_sq_u4_scalar(u, s, codes[2]),
        l2_sq_u4_scalar(u, s, codes[3]),
    ]
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2+FMA SQ4 kernels: 8 packed bytes unpack to 16 sequential
    //! dimension codes (`vpand`/`vpsrlw` mask the nibbles apart,
    //! `vpunpcklbw` re-interleaves to natural order), widen exactly to
    //! `f32`, then two fused 8-lane steps per chunk — the same `vfnmadd` /
    //! `vfmadd` arithmetic as the SQ8 kernels, same lane discipline, same
    //! reduction. Tails copy into zero-padded stack buffers.

    use core::arch::x86_64::*;

    /// Canonical `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` reduction.
    #[inline(always)]
    unsafe fn reduce8(acc: __m256) -> f32 {
        let c = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        let d = _mm_add_ps(c, _mm_movehl_ps(c, c));
        let e = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(e)
    }

    /// Unpacks 8 packed bytes at `p` into 16 sequential dimension codes
    /// widened to two exact `f32` octets.
    #[inline(always)]
    unsafe fn load_codes16(p: *const u8) -> (__m256, __m256) {
        let b = _mm_loadl_epi64(p as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let lo = _mm_and_si128(b, mask);
        let hi = _mm_and_si128(_mm_srli_epi16::<4>(b), mask);
        let il = _mm_unpacklo_epi8(lo, hi); // d0, d1, ..., d15
        (
            _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(il)),
            _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128::<8>(il))),
        )
    }

    /// One fused 8-lane step: `acc += (u − s·c)²`.
    #[inline(always)]
    unsafe fn step(acc: __m256, uq: __m256, sq: __m256, cf: __m256) -> __m256 {
        let d = _mm256_fnmadd_ps(sq, cf, uq);
        _mm256_fmadd_ps(d, d, acc)
    }

    /// One 16-dim chunk (both octets) against pre-unpacked codes.
    #[inline(always)]
    unsafe fn chunk(acc: __m256, pu: *const f32, ps: *const f32, pc: *const u8) -> __m256 {
        let (c0, c1) = load_codes16(pc);
        let acc = step(acc, _mm256_loadu_ps(pu), _mm256_loadu_ps(ps), c0);
        step(acc, _mm256_loadu_ps(pu.add(8)), _mm256_loadu_ps(ps.add(8)), c1)
    }

    /// Copies the `rem`-dim tail (floats and packed bytes) into zero-padded
    /// stack buffers.
    #[inline(always)]
    unsafe fn tail_buffers(
        u: &[f32],
        s: &[f32],
        codes: &[u8],
        chunks: usize,
        rem: usize,
    ) -> ([f32; 16], [f32; 16], [u8; 8]) {
        let mut ub = [0.0f32; 16];
        let mut sb = [0.0f32; 16];
        let mut cb = [0u8; 8];
        core::ptr::copy_nonoverlapping(u.as_ptr().add(chunks * 16), ub.as_mut_ptr(), rem);
        core::ptr::copy_nonoverlapping(s.as_ptr().add(chunks * 16), sb.as_mut_ptr(), rem);
        let tail_bytes = codes.len() - chunks * 8;
        core::ptr::copy_nonoverlapping(
            codes.as_ptr().add(chunks * 8),
            cb.as_mut_ptr(),
            tail_bytes,
        );
        (ub, sb, cb)
    }

    /// # Safety
    /// The CPU supports AVX2 and FMA; `s` is as long as `u`, and `codes`
    /// holds exactly `u.len().div_ceil(2)` bytes.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn l2_sq_u4(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(u.len(), s.len());
        debug_assert_eq!(codes.len(), u.len().div_ceil(2));
        let n = u.len();
        let (pu, ps, pc) = (u.as_ptr(), s.as_ptr(), codes.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let chunks = n / 16;
        for i in 0..chunks {
            acc = chunk(acc, pu.add(i * 16), ps.add(i * 16), pc.add(i * 8));
        }
        let rem = n % 16;
        if rem != 0 {
            let (ub, sb, cb) = tail_buffers(u, s, codes, chunks, rem);
            acc = chunk(acc, ub.as_ptr(), sb.as_ptr(), cb.as_ptr());
        }
        reduce8(acc)
    }

    /// # Safety
    /// As [`l2_sq_u4`], for each of the four rows.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn l2_sq_u4_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
        for c in codes {
            debug_assert_eq!(c.len(), u.len().div_ceil(2));
        }
        let n = u.len();
        let (pu, ps) = (u.as_ptr(), s.as_ptr());
        let pc = [codes[0].as_ptr(), codes[1].as_ptr(), codes[2].as_ptr(), codes[3].as_ptr()];
        let mut acc = [_mm256_setzero_ps(); 4];
        let chunks = n / 16;
        for i in 0..chunks {
            let uq0 = _mm256_loadu_ps(pu.add(i * 16));
            let sq0 = _mm256_loadu_ps(ps.add(i * 16));
            let uq1 = _mm256_loadu_ps(pu.add(i * 16 + 8));
            let sq1 = _mm256_loadu_ps(ps.add(i * 16 + 8));
            for v in 0..4 {
                let (c0, c1) = load_codes16(pc[v].add(i * 8));
                acc[v] = step(step(acc[v], uq0, sq0, c0), uq1, sq1, c1);
            }
        }
        let rem = n % 16;
        if rem != 0 {
            for v in 0..4 {
                let (ub, sb, cb) = tail_buffers(u, s, codes[v], chunks, rem);
                acc[v] = chunk(acc[v], ub.as_ptr(), sb.as_ptr(), cb.as_ptr());
            }
        }
        [reduce8(acc[0]), reduce8(acc[1]), reduce8(acc[2]), reduce8(acc[3])]
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON SQ4 kernels: nibbles mask apart (`vand`/`vshr`), `vzip`
    //! re-interleaves to natural dimension order, the SQ8 widening chain
    //! (`u8 → u16 → u32 → f32`, exact) feeds the same `vfmsq`/`vfmaq`
    //! fused arithmetic with two `float32x4` accumulators modeling the
    //! eight lanes.

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

    /// Widens 8 sequential codes into two exact `f32` quads.
    #[inline(always)]
    unsafe fn widen8(codes: uint8x8_t) -> (float32x4_t, float32x4_t) {
        let wide = vmovl_u8(codes);
        (
            vcvtq_f32_u32(vmovl_u16(vget_low_u16(wide))),
            vcvtq_f32_u32(vmovl_u16(vget_high_u16(wide))),
        )
    }

    /// One fused 8-lane step over dims at `pu`/`ps` with codes `c`.
    #[inline(always)]
    unsafe fn accum(
        lo: &mut float32x4_t,
        hi: &mut float32x4_t,
        pu: *const f32,
        ps: *const f32,
        c: uint8x8_t,
    ) {
        let (c0, c1) = widen8(c);
        let d0 = vfmsq_f32(vld1q_f32(pu), vld1q_f32(ps), c0);
        let d1 = vfmsq_f32(vld1q_f32(pu.add(4)), vld1q_f32(ps.add(4)), c1);
        *lo = vfmaq_f32(*lo, d0, d0);
        *hi = vfmaq_f32(*hi, d1, d1);
    }

    /// One 16-dim chunk from 8 packed bytes at `pc`.
    #[inline(always)]
    unsafe fn chunk(
        lo: &mut float32x4_t,
        hi: &mut float32x4_t,
        pu: *const f32,
        ps: *const f32,
        pc: *const u8,
    ) {
        let b = vld1_u8(pc);
        let nlo = vand_u8(b, vdup_n_u8(0x0F));
        let nhi = vshr_n_u8::<4>(b);
        let il = vzip_u8(nlo, nhi); // (d0..d7, d8..d15)
        accum(lo, hi, pu, ps, il.0);
        accum(lo, hi, pu.add(8), ps.add(8), il.1);
    }

    /// # Safety
    /// The CPU supports NEON; `s` is as long as `u`, and `codes` holds
    /// exactly `u.len().div_ceil(2)` bytes.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn l2_sq_u4(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
        debug_assert_eq!(u.len(), s.len());
        debug_assert_eq!(codes.len(), u.len().div_ceil(2));
        let n = u.len();
        let (pu, ps, pc) = (u.as_ptr(), s.as_ptr(), codes.as_ptr());
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        let chunks = n / 16;
        for i in 0..chunks {
            chunk(&mut lo, &mut hi, pu.add(i * 16), ps.add(i * 16), pc.add(i * 8));
        }
        let rem = n % 16;
        if rem != 0 {
            let mut ub = [0.0f32; 16];
            let mut sb = [0.0f32; 16];
            let mut cb = [0u8; 8];
            core::ptr::copy_nonoverlapping(pu.add(chunks * 16), ub.as_mut_ptr(), rem);
            core::ptr::copy_nonoverlapping(ps.add(chunks * 16), sb.as_mut_ptr(), rem);
            let tail_bytes = codes.len() - chunks * 8;
            core::ptr::copy_nonoverlapping(pc.add(chunks * 8), cb.as_mut_ptr(), tail_bytes);
            chunk(&mut lo, &mut hi, ub.as_ptr(), sb.as_ptr(), cb.as_ptr());
        }
        reduce8(lo, hi)
    }

    /// # Safety
    /// As [`l2_sq_u4`], for each of the four rows.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn l2_sq_u4_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        for (o, c) in out.iter_mut().zip(codes) {
            *o = l2_sq_u4(u, s, c);
        }
        out
    }
}

/// Asymmetric squared distance over nibble-packed 4-bit codes,
/// `Σ_d (u_d − s_d · c_d)²`, dispatched to the best available kernel (all
/// backends bit-identical — see the module docs). `u`/`s` come from
/// [`Sq4Store::prepare_into`]; `codes` holds `ceil(u.len()/2)` bytes.
///
/// # Panics
/// Panics unless `s` is as long as `u` and `codes` holds exactly
/// `ceil(u.len()/2)` bytes.
#[inline]
pub fn l2_sq_u4(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
    check_affine("SQ4", u, s, &[codes], u.len().div_ceil(2));
    match crate::distance::active_backend() {
        // SAFETY (every arm): the backend's features were detected, and
        // `check_affine` established the lengths the kernels read under.
        #[cfg(target_arch = "x86_64")]
        crate::distance::BACKEND_AVX2 if super::sq8::fma_available() => unsafe {
            avx2::l2_sq_u4(u, s, codes)
        },
        #[cfg(target_arch = "aarch64")]
        crate::distance::BACKEND_NEON => unsafe { neon::l2_sq_u4(u, s, codes) },
        _ => l2_sq_u4_scalar(u, s, codes),
    }
}

/// [`l2_sq_u4`] against **four** code rows at once. Bit-identical to four
/// separate calls.
///
/// # Panics
/// As [`l2_sq_u4`], for any of the four rows.
#[inline]
pub fn l2_sq_u4_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    check_affine("SQ4", u, s, &codes, u.len().div_ceil(2));
    match crate::distance::active_backend() {
        // SAFETY (every arm): as in `l2_sq_u4`, for each row.
        #[cfg(target_arch = "x86_64")]
        crate::distance::BACKEND_AVX2 if super::sq8::fma_available() => unsafe {
            avx2::l2_sq_u4_batch(u, s, codes)
        },
        #[cfg(target_arch = "aarch64")]
        crate::distance::BACKEND_NEON => unsafe { neon::l2_sq_u4_batch(u, s, codes) },
        _ => l2_sq_u4_batch_scalar(u, s, codes),
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
    fn rows_are_cache_line_aligned_and_half_width() {
        let store = ramp_store(5, 100);
        let q = Sq4Store::from_store(&store);
        assert_eq!(q.stride(), 64, "50 packed bytes round to one line");
        assert_eq!(q.len(), 5);
        for id in 0..5u32 {
            assert_eq!(q.code_row(id).as_ptr() as usize % 64, 0, "row {id} misaligned");
            assert!(q.code_row(id)[50..].iter().all(|&c| c == 0), "padding must be zero");
        }
        // Half the SQ8 footprint on a 128-dim store.
        let wide = ramp_store(4, 128);
        assert_eq!(Sq4Store::from_store(&wide).stride(), 64);
        assert_eq!(super::super::QuantizedStore::from_store(&wide).stride(), 128);
    }

    #[test]
    fn decode_within_one_step_per_dim() {
        let store = ramp_store(20, 13);
        let q = Sq4Store::from_store(&store);
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
        let q = Sq4Store::from_store(&store);
        assert_eq!(q.deltas()[1], 0.0);
        assert_eq!(q.decode(0)[1], 5.5);
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
        let q = Sq4Store::from_store(&store);
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
        let q = Sq4Store::from_store(&store);
        let query: Vec<f32> = (0..100).map(|d| (d as f32 * 0.11).sin()).collect();
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        let batch = q.dist_prepared_batch(&pq, [0, 3, 5, 7]);
        for (i, id) in [0u32, 3, 5, 7].into_iter().enumerate() {
            assert_eq!(batch[i].to_bits(), q.dist_prepared(&pq, id).to_bits());
        }
    }

    #[test]
    fn dispatched_u4_kernels_match_scalar_bitwise() {
        for dim in (1usize..=200).chain([256, 960]) {
            let t: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin() * 9.0).collect();
            let w: Vec<f32> = (0..dim).map(|i| ((i as f32 * 0.3).cos() + 1.5) * 0.01).collect();
            let bytes = dim.div_ceil(2);
            let rows: Vec<Vec<u8>> = (0..4)
                .map(|v| (0..bytes).map(|i| ((i * 37 + v * 91) % 256) as u8).collect())
                .collect();
            let refs = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            assert_eq!(
                l2_sq_u4(&t, &w, refs[0]).to_bits(),
                l2_sq_u4_scalar(&t, &w, refs[0]).to_bits(),
                "dim={dim}"
            );
            let batch = l2_sq_u4_batch(&t, &w, refs);
            let batch_ref = l2_sq_u4_batch_scalar(&t, &w, refs);
            for v in 0..4 {
                assert_eq!(batch[v].to_bits(), batch_ref[v].to_bits(), "dim={dim} v={v}");
            }
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let store = ramp_store(9, 33);
        let q = Sq4Store::from_store(&store);
        let back = Sq4Store::from_parts(
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
        let store = ramp_store(16, 200);
        let q = Sq4Store::from_store(&store);
        // 200 dims -> 100 packed bytes -> two lines per row.
        assert!(q.heap_bytes() >= 16 * 128);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn stores() -> impl Strategy<Value = (usize, Vec<Vec<f32>>)> {
        (1usize..=12).prop_flat_map(|dim| {
            prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim), 1..=8)
                .prop_map(move |rows| (dim, rows))
        })
    }

    proptest! {
        /// Encode→decode lands within one (15-step) quantization step on
        /// every dimension, for arbitrary stores.
        #[test]
        fn encode_decode_within_one_step(case in stores()) {
            let (dim, rows) = case;
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let q = Sq4Store::from_store(&VectorStore::from_flat(dim, flat));
            for d in 0..dim {
                let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
                for r in &rows {
                    lo = lo.min(r[d]);
                    hi = hi.max(r[d]);
                }
                let step = (hi - lo) / 15.0;
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
            let q = Sq4Store::from_store(&VectorStore::from_flat(dim, flat));
            for id in 0..copies as u32 {
                prop_assert_eq!(q.decode(id), row.clone());
            }
        }

        /// Permuting the encoded store is bit-identical to encoding the
        /// permuted vectors: the affine grids are global per dimension, so
        /// encoding is row-local — the SQ4 leg of the reorder∘quantize
        /// commutation contract.
        #[test]
        fn permute_commutes_with_encode(case in stores(), seed in 0usize..6) {
            let (dim, rows) = case;
            let n = rows.len();
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let q = Sq4Store::from_store(&VectorStore::from_flat(dim, flat));
            let new_to_old: Vec<u32> =
                (0..n as u32).map(|i| (i as usize + seed) as u32 % n as u32).collect();
            let map = crate::reorder::IdRemap::from_new_to_old(new_to_old.clone()).unwrap();
            let mut permuted = VectorStore::new(dim);
            for &old in &new_to_old {
                permuted.push(&rows[old as usize]);
            }
            let a = q.permute(&map);
            let b = Sq4Store::from_store(&permuted);
            prop_assert_eq!(a.mins(), b.mins());
            prop_assert_eq!(a.deltas(), b.deltas());
            for id in 0..n as u32 {
                prop_assert_eq!(a.code_row(id), b.code_row(id), "row {}", id);
            }
        }
    }
}
