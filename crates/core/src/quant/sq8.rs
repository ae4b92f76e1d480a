//! SQ8 kernels: the asymmetric distance `Σ_d (u_d − s_d · c_d)²` between
//! a query prepared by [`super::QuantizedStore::prepare_into`] and rows of
//! `u8` codes (the store itself is [`super::AffineStore`] at
//! [`super::U8`]).
//!
//! The kernels ([`l2_sq_u8`], [`l2_sq_u8_batch`]) follow the same
//! bit-identity discipline as the `f32` kernels in [`crate::distance`]:
//! eight accumulator lanes by position `mod 8`, the fixed
//! `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` reduction tree, and zero-padded
//! tails — but with *fused* multiply-adds (`d = u − s·c` and `acc += d·d`,
//! one rounding each), which the scalar reference reproduces exactly
//! through `f32::mul_add`. `u8 → f32` conversion is exact, so AVX2 + FMA
//! and the scalar reference return bit-identical distances; the kernel
//! tier of [`crate::distance`] (and [`crate::set_simd_enabled`]) selects
//! between them exactly as for `f32`.

use crate::distance::reduce8;
#[cfg(target_arch = "x86_64")]
use crate::distance::{kernel_tier, TIER_AVX2};

/// One lane of the asymmetric kernel: fused residual `u − s·c`, fused
/// square-accumulate. Exactly one rounding per operation — what
/// `vfnmadd`/`vfmadd` (AVX2+FMA) produce, which is why the backends agree
/// bitwise.
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

    use crate::distance::avx2::reduce8;
    use core::arch::x86_64::*;

    /// Loads 8 codes and widens them to `f32` (exact for 0..=255).
    ///
    /// # Safety
    /// The CPU supports AVX2, and `p` is valid for reading 8 bytes: a
    /// whole chunk of a row the kernel's length check covers, or its
    /// 8-byte stack tail buffer.
    #[inline(always)]
    unsafe fn load_codes8(p: *const u8) -> __m256 {
        _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_loadl_epi64(p as *const __m128i)))
    }

    /// One 8-lane step: `acc += (u − s·c)²`, fused.
    ///
    /// # Safety
    /// The CPU supports AVX2 and FMA, and `pc` is as for [`load_codes8`].
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
/// [`super::QuantizedStore::prepare_into`].
///
/// # Panics
/// Panics unless `u`, `s` and `codes` have the same length.
#[inline]
pub fn l2_sq_u8(u: &[f32], s: &[f32], codes: &[u8]) -> f32 {
    check_affine("SQ8", u, s, &[codes], u.len());
    #[cfg(target_arch = "x86_64")]
    if kernel_tier() >= TIER_AVX2 {
        // SAFETY: the tier is AVX2 only where CPUID reported AVX2 and FMA;
        // `check_affine` above asserted the equal lengths the kernel reads
        // under.
        return unsafe { avx2::l2_sq_u8(u, s, codes) };
    }
    l2_sq_u8_scalar(u, s, codes)
}

/// [`l2_sq_u8`] against **four** code rows at once — the quantized beam
/// search's batched kernel. Bit-identical to four separate calls.
///
/// # Panics
/// As [`l2_sq_u8`], for any of the four rows.
#[inline]
pub fn l2_sq_u8_batch(u: &[f32], s: &[f32], codes: [&[u8]; 4]) -> [f32; 4] {
    check_affine("SQ8", u, s, &codes, u.len());
    #[cfg(target_arch = "x86_64")]
    if kernel_tier() >= TIER_AVX2 {
        // SAFETY: AVX2 and FMA as in `l2_sq_u8`; `check_affine` above
        // asserted every row's length.
        return unsafe { avx2::l2_sq_u8_batch(u, s, codes) };
    }
    l2_sq_u8_batch_scalar(u, s, codes)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
