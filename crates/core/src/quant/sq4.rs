//! SQ4 kernels: the asymmetric distance `Σ_d (u_d − s_d · c_d)²` between
//! a query prepared by [`super::Sq4Store::prepare_into`] and rows of
//! nibble-packed 4-bit codes — even dimension `2k` in the **low** nibble of
//! byte `k`, odd dimension `2k+1` in the **high** nibble (the store itself
//! is [`super::AffineStore`] at [`super::U4`]).
//!
//! SIMD backends *widen* each 8-byte group into 16 sequential dimension
//! codes (mask the nibbles apart, re-interleave to natural dimension
//! order, then the exact `u8 → f32` conversion of the SQ8 kernels) and run
//! the identical fused multiply-subtract / multiply-add lane arithmetic:
//! lane `d mod 8`, the canonical `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))`
//! reduction, zero-padded tails. The scalar reference reproduces the same
//! per-lane sequence through `f32::mul_add`, so AVX2 + FMA and scalar
//! agree bitwise. A phantom high nibble after an odd final
//! dimension meets `u = s = 0` and contributes `+0.0`.

use super::sq8::{check_affine, lane};
use crate::distance::reduce8;
#[cfg(target_arch = "x86_64")]
use crate::distance::{kernel_tier, TIER_AVX2};

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

    use crate::distance::avx2::reduce8;
    use core::arch::x86_64::*;

    /// Unpacks 8 packed bytes at `p` into 16 sequential dimension codes
    /// widened to two exact `f32` octets.
    ///
    /// # Safety
    /// The CPU supports AVX2, and `p` is valid for reading 8 bytes: a
    /// whole chunk of a row the kernel's length check covers, or its
    /// 8-byte stack tail buffer.
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
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA.
    #[inline(always)]
    unsafe fn step(acc: __m256, uq: __m256, sq: __m256, cf: __m256) -> __m256 {
        let d = _mm256_fnmadd_ps(sq, cf, uq);
        _mm256_fmadd_ps(d, d, acc)
    }

    /// One 16-dim chunk (both octets) against pre-unpacked codes.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA; `pu` and `ps` are valid for reading
    /// 16 `f32`s and `pc` as for [`load_codes16`].
    #[inline(always)]
    unsafe fn chunk(acc: __m256, pu: *const f32, ps: *const f32, pc: *const u8) -> __m256 {
        let (c0, c1) = load_codes16(pc);
        let acc = step(acc, _mm256_loadu_ps(pu), _mm256_loadu_ps(ps), c0);
        step(acc, _mm256_loadu_ps(pu.add(8)), _mm256_loadu_ps(ps.add(8)), c1)
    }

    /// Copies the `rem`-dim tail (floats and packed bytes) into zero-padded
    /// stack buffers.
    ///
    /// # Safety
    /// `rem < 16` lanes follow the `chunks` whole chunks of `u` and `s`, and
    /// `codes` holds `u.len().div_ceil(2)` bytes, so the copies read inside
    /// the slices and write at most 16 floats and 8 bytes.
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

/// Asymmetric squared distance over nibble-packed 4-bit codes,
/// `Σ_d (u_d − s_d · c_d)²`, dispatched to the best available kernel (all
/// backends bit-identical — see the module docs). `u`/`s` come from
/// [`super::Sq4Store::prepare_into`]; `codes` holds `ceil(u.len()/2)` bytes.
///
/// # Panics
/// Panics unless `s` is as long as `u` and `codes` holds exactly
/// `ceil(u.len()/2)` bytes.
#[inline]
pub fn l2_sq_u4(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
    check_affine("SQ4", u, s, &[codes], u.len().div_ceil(2));
    #[cfg(target_arch = "x86_64")]
    if kernel_tier() >= TIER_AVX2 {
        // SAFETY: the tier is AVX2 only where CPUID reported AVX2 and FMA;
        // `check_affine` above asserted the step and packed-row lengths the
        // kernel reads under.
        return unsafe { avx2::l2_sq_u4(u, s, codes) };
    }
    l2_sq_u4_scalar(u, s, codes)
}

/// [`l2_sq_u4`] against **four** code rows at once. Bit-identical to four
/// separate calls.
///
/// # Panics
/// As [`l2_sq_u4`], for any of the four rows.
#[inline]
pub fn l2_sq_u4_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    check_affine("SQ4", u, s, &codes, u.len().div_ceil(2));
    #[cfg(target_arch = "x86_64")]
    if kernel_tier() >= TIER_AVX2 {
        // SAFETY: AVX2 and FMA as in `l2_sq_u4`; `check_affine` above
        // asserted every row's length.
        return unsafe { avx2::l2_sq_u4_batch(u, s, codes) };
    }
    l2_sq_u4_batch_scalar(u, s, codes)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
