//! Distance kernels and the distance-call accounting used throughout the
//! evaluation.
//!
//! The paper measures efficiency primarily in **number of distance
//! calculations**, a machine-independent proxy for work. Every search and
//! construction routine in this workspace therefore funnels its distance
//! evaluations through a [`DistCounter`] so experiments can report the exact
//! figure.
//!
//! All graph methods in the paper use the Euclidean distance; we compute the
//! *squared* Euclidean distance internally (monotone in the true distance,
//! one `sqrt` cheaper) and take square roots only at reporting boundaries
//! (e.g. LID/LRC estimation).
//!
//! ## Kernel dispatch
//!
//! The hot kernels ([`l2_sq`], [`l2_sq_batch`], [`dot`], and the two
//! transposed kernels: [`sub_dists16`] — one short vector against sixteen
//! dimension-major ones, PQ's per-query table kernel — and [`nearest8`] —
//! eight dimension-major points against every centroid, the k-means and
//! PQ-encoding kernel) are dispatched at runtime to an explicit SIMD
//! implementation — AVX2 on x86-64, NEON on aarch64 (the transposed
//! kernels: AVX2 only) — with the unrolled scalar code as the portable
//! fallback.
//! Detection runs once; `GASS_NO_SIMD=1` forces the scalar path for A/B
//! runs, and [`set_simd_enabled`] toggles it in-process for ablation
//! harnesses.
//!
//! **Every backend is bit-identical.** All implementations follow one
//! canonical arithmetic: eight accumulator lanes (lane `j` receives the
//! elements at positions `≡ j (mod 8)`), unfused multiply-then-add, and a
//! fixed `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` reduction tree. Because
//! IEEE-754 single-precision operations round identically whether executed
//! in a vector register or one float at a time, switching kernels changes
//! *only* wall-clock time: recall, traversal paths, and [`DistCounter`]
//! totals are invariant — which is exactly what an evaluation framework
//! built on machine-independent metrics needs.

use crate::store::VectorStore;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// Accumulator lanes in the canonical kernel arithmetic (one AVX2 vector;
/// two NEON vectors). Also the element granularity of the padded store
/// layout's stride rounding (`16` floats = one cache line; a multiple of
/// this).
pub const KERNEL_LANES: usize = 8;

// --- runtime kernel dispatch -------------------------------------------

const BACKEND_UNINIT: u8 = 0;
const BACKEND_SCALAR: u8 = 1;
pub(crate) const BACKEND_AVX2: u8 = 2;
pub(crate) const BACKEND_NEON: u8 = 3;

static BACKEND: AtomicU8 = AtomicU8::new(BACKEND_UNINIT);

/// Best SIMD backend the host supports (ignoring overrides).
fn native_backend() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return BACKEND_AVX2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return BACKEND_NEON;
        }
    }
    BACKEND_SCALAR
}

#[cold]
fn init_backend() -> u8 {
    let no_simd = std::env::var("GASS_NO_SIMD").is_ok_and(|v| !v.is_empty() && v != "0");
    let b = if no_simd { BACKEND_SCALAR } else { native_backend() };
    BACKEND.store(b, Ordering::Relaxed);
    b
}

#[inline(always)]
fn backend() -> u8 {
    let b = BACKEND.load(Ordering::Relaxed);
    if b == BACKEND_UNINIT {
        init_backend()
    } else {
        b
    }
}

/// The active backend id, for sibling modules (`quant`) that dispatch
/// their own kernels under the same detection, env override and in-process
/// toggle.
#[inline(always)]
pub(crate) fn active_backend() -> u8 {
    backend()
}

/// Name of the active kernel backend: `"avx2"`, `"neon"`, or `"scalar"`.
pub fn simd_backend() -> &'static str {
    match backend() {
        BACKEND_AVX2 => "avx2",
        BACKEND_NEON => "neon",
        _ => "scalar",
    }
}

/// Enables or disables the SIMD kernels at runtime (ablation harnesses use
/// this to A/B within one process). Disabling selects the scalar fallback;
/// enabling re-detects the best backend. Because every backend is
/// bit-identical, toggling mid-run changes wall-clock behavior only.
pub fn set_simd_enabled(on: bool) {
    let b = if on { native_backend() } else { BACKEND_SCALAR };
    BACKEND.store(b, Ordering::Relaxed);
}

// Software prefetch is governed the same way: on by default, `GASS_NO_PREFETCH`
// disables it for a whole run, `set_prefetch_enabled` toggles it in-process.
// Tri-state so the env var is read once, lazily.
static PREFETCH: AtomicU8 = AtomicU8::new(PF_UNINIT);
const PF_UNINIT: u8 = 0;
const PF_OFF: u8 = 1;
const PF_ON: u8 = 2;

#[cold]
fn init_prefetch() -> u8 {
    let off = std::env::var("GASS_NO_PREFETCH").is_ok_and(|v| !v.is_empty() && v != "0");
    let p = if off { PF_OFF } else { PF_ON };
    PREFETCH.store(p, Ordering::Relaxed);
    p
}

/// `true` when query-time software prefetching is active.
#[inline(always)]
pub fn prefetch_enabled() -> bool {
    let p = PREFETCH.load(Ordering::Relaxed);
    if p == PF_UNINIT {
        init_prefetch() == PF_ON
    } else {
        p == PF_ON
    }
}

/// Enables or disables query-time software prefetching (ablation knob;
/// prefetching has no semantic effect either way).
pub fn set_prefetch_enabled(on: bool) {
    PREFETCH.store(if on { PF_ON } else { PF_OFF }, Ordering::Relaxed);
}

/// Rows spanning at most this many cache lines are prefetched whole; longer
/// ones get their first two lines only (pulling all 60 lines of a Gist-960
/// row slowed the HNSW build, DESIGN §8).
const PREFETCH_WHOLE_LINES: usize = 8;

/// Hints the CPU to pull the bytes of `row` toward L1: every cache line it
/// touches when that is at most [`PREFETCH_WHOLE_LINES`], else the first
/// two. Semantically a no-op; callers check [`prefetch_enabled`].
#[inline(always)]
pub(crate) fn prefetch_slice<T>(row: &[T]) {
    let p = row.as_ptr().cast::<u8>();
    let end = p.addr() + std::mem::size_of_val(row);
    if end == p.addr() {
        return;
    }
    let mut line = p.addr() & !63;
    if end - line > PREFETCH_WHOLE_LINES * 64 {
        prefetch_line(p);
        prefetch_line(p.wrapping_add(64));
        return;
    }
    while line < end {
        prefetch_line(p.with_addr(line));
        line += 64;
    }
}

/// Issues one prefetch of the cache line holding `p`.
#[inline(always)]
fn prefetch_line(p: *const u8) {
    // SAFETY: a prefetch is a hint: it reads nothing architecturally and
    // never faults, whatever the address. `prefetch_slice` passes only
    // addresses derived from a live, non-empty slice, inside its cache lines.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>());
    }
    // SAFETY: as above; `prfm` is a hint that never faults.
    #[cfg(target_arch = "aarch64")]
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

// --- scalar reference kernels ------------------------------------------

/// Reduces the eight canonical accumulator lanes in the fixed tree order
/// shared by every backend.
#[inline(always)]
fn reduce8(acc: [f32; 8]) -> f32 {
    let c = [acc[0] + acc[4], acc[1] + acc[5], acc[2] + acc[6], acc[3] + acc[7]];
    (c[0] + c[2]) + (c[1] + c[3])
}

/// Scalar reference for [`l2_sq`]: eight-lane unrolled squared Euclidean
/// distance. The unrolling matters twice over — it breaks the FP-add
/// latency chain, and it autovectorizes well where explicit SIMD is
/// unavailable. Tail elements keep their lane (position `mod 8`), which is
/// what makes the SIMD backends' zero-masked tail handling bit-identical.
#[inline]
pub fn l2_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let base = i * 8;
        for lane in 0..8 {
            let d = a[base + lane] - b[base + lane];
            acc[lane] += d * d;
        }
    }
    let base = chunks * 8;
    for lane in 0..a.len() - base {
        let d = a[base + lane] - b[base + lane];
        acc[lane] += d * d;
    }
    reduce8(acc)
}

/// Scalar reference for [`l2_sq_batch`]: four independent [`l2_sq_scalar`]
/// accumulations sharing each loaded query chunk.
#[inline]
pub fn l2_sq_batch_scalar(query: &[f32], vs: [&[f32]; 4]) -> [f32; 4] {
    for v in vs {
        debug_assert_eq!(query.len(), v.len());
    }
    let mut acc = [[0.0f32; 8]; 4];
    let chunks = query.len() / 8;
    for i in 0..chunks {
        let base = i * 8;
        for (v, vec) in vs.iter().enumerate() {
            for lane in 0..8 {
                let d = query[base + lane] - vec[base + lane];
                acc[v][lane] += d * d;
            }
        }
    }
    let base = chunks * 8;
    let mut out = [0.0f32; 4];
    for (v, vec) in vs.iter().enumerate() {
        for lane in 0..query.len() - base {
            let d = query[base + lane] - vec[base + lane];
            acc[v][lane] += d * d;
        }
        out[v] = reduce8(acc[v]);
    }
    out
}

/// Scalar reference for [`dot`]: eight-lane unrolled inner product.
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for i in 0..chunks {
        let base = i * 8;
        for lane in 0..8 {
            acc[lane] += a[base + lane] * b[base + lane];
        }
    }
    let base = chunks * 8;
    for lane in 0..a.len() - base {
        acc[lane] += a[base + lane] * b[base + lane];
    }
    reduce8(acc)
}

/// Vectors scored per [`sub_dists16`] call (one PQ subquantizer's
/// codebook; two AVX2 vectors of lanes).
pub const LANES16: usize = 16;

/// Lays up to 16 row-major `dsub`-dimensional vectors out
/// **dimension-major** for [`sub_dists16`]: coordinate `i` of row `c` moves
/// to `[i * 16 + c]`, so the 16 rows' `i`-th coordinates are contiguous.
/// Missing rows repeat row 0, so a lane-wise minimum, maximum or
/// first-minimum search over all sixteen lanes sees only live values.
///
/// # Panics
/// Panics if `rows` is not whole rows or holds more than 16 of them.
pub fn to_dim_major16(rows: &[f32], dsub: usize) -> Vec<f32> {
    assert!(dsub > 0 && rows.len().is_multiple_of(dsub), "whole rows expected");
    assert!(
        (1..=LANES16).contains(&(rows.len() / dsub)),
        "between 1 and {LANES16} rows per block"
    );
    let mut out = Vec::with_capacity(LANES16 * dsub);
    for i in 0..dsub {
        let lanes = rows.iter().skip(i).step_by(dsub);
        out.extend(lanes.chain(std::iter::repeat(&rows[i])).take(LANES16));
    }
    out
}

/// Scalar reference for [`sub_dists16`]: lane `c` runs exactly
/// [`l2_sq_scalar`]'s operation sequence on `v` and the `c`-th vector of the
/// dimension-major block `tm` — coordinate `i` lands in accumulator `i mod
/// 8` in increasing `i`, unfused multiply then add, the canonical
/// reduction tree over accumulators that start (and, when untouched, stay)
/// `+0.0`.
///
/// # Panics
/// Panics if `tm.len() != v.len() * 16`.
pub fn sub_dists16_scalar(v: &[f32], tm: &[f32]) -> [f32; LANES16] {
    assert_eq!(tm.len(), v.len() * LANES16, "block must hold 16 vectors of v's length");
    let mut out = [0.0f32; LANES16];
    for (c, o) in out.iter_mut().enumerate() {
        let mut acc = [0.0f32; 8];
        for (i, &x) in v.iter().enumerate() {
            let d = x - tm[i * LANES16 + c];
            acc[i % 8] += d * d;
        }
        *o = reduce8(acc);
    }
    out
}

/// Points scored per [`nearest8`] call (one AVX2 vector of lanes).
pub const POINTS8: usize = 8;

/// Per point of an 8-point block: the nearest centroid's index and its
/// squared distance ([`nearest8`]).
pub type Nearest8 = ([u32; POINTS8], [f32; POINTS8]);

/// Lays `n` points of dimension `dim` out in **8-point dimension-major
/// blocks** for [`nearest8`]: coordinate `i` of point `8b + l` lands at
/// `[(b * dim + i) * 8 + l]`. `point(pos)` yields point `pos`'s `dim`
/// coordinates. Lanes past `n` in the last block repeat point `n - 1`, so
/// they score like a live point; callers drop their results.
///
/// # Panics
/// Panics if `n == 0` or a point yields other than `dim` coordinates.
pub fn to_blocks8<P: IntoIterator<Item = f32>>(
    n: usize,
    dim: usize,
    point: impl Fn(usize) -> P,
) -> Vec<f32> {
    assert!(n > 0, "no points to lay out");
    let mut out = vec![0.0f32; n.div_ceil(POINTS8) * POINTS8 * dim];
    for (b, block) in out.chunks_exact_mut(POINTS8 * dim).enumerate() {
        for lane in 0..POINTS8 {
            let mut i = 0;
            for x in point((b * POINTS8 + lane).min(n - 1)) {
                block[i * POINTS8 + lane] = x;
                i += 1;
            }
            assert_eq!(i, dim, "point of the wrong dimension");
        }
    }
    out
}

/// Scalar reference for [`nearest8`]: for each lane `l`, the distance to
/// every centroid runs exactly [`l2_sq_scalar`]'s operation sequence on
/// point `l` of the dimension-major `block` and the centroid, and a strict
/// `<` running minimum in centroid order, starting from `(0, +∞)`, keeps
/// the first nearest — what a per-point scan of `l2_sq` calls selects.
///
/// # Panics
/// Panics if `block` is empty or not whole 8-point columns, or `cents` is
/// not whole centroids of `block.len() / 8` coordinates.
pub fn nearest8_scalar(block: &[f32], cents: &[f32]) -> Nearest8 {
    let dim = check_nearest8(block, cents);
    let (mut best, mut best_d) = ([0u32; POINTS8], [f32::INFINITY; POINTS8]);
    for (c, cent) in cents.chunks_exact(dim).enumerate() {
        for lane in 0..POINTS8 {
            let mut acc = [0.0f32; 8];
            for (i, &y) in cent.iter().enumerate() {
                let d = block[i * POINTS8 + lane] - y;
                acc[i % 8] += d * d;
            }
            let d = reduce8(acc);
            if d < best_d[lane] {
                (best[lane], best_d[lane]) = (c as u32, d);
            }
        }
    }
    (best, best_d)
}

/// The shape checks every form of [`nearest8`] relies on; returns the
/// point dimension.
fn check_nearest8(block: &[f32], cents: &[f32]) -> usize {
    let dim = block.len() / POINTS8;
    assert!(dim > 0 && block.len() == dim * POINTS8, "block must hold 8 whole points");
    assert!(
        cents.len().is_multiple_of(dim),
        "centroids must be whole rows of the point length"
    );
    dim
}

// --- AVX2 kernels -------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 implementations of the canonical kernel arithmetic. No FMA
    //! contraction: fusing the multiply-add would change rounding and break
    //! bit-identity with the scalar reference (the ~cycle it would save is
    //! dwarfed by the loads on this memory-bound kernel). Tails load
    //! through `vmaskmov`, which reads only the enabled lanes and yields
    //! zeros elsewhere — and a `(0-0)²` or `0·0` term leaves its
    //! accumulator lane bit-unchanged.

    use core::arch::x86_64::*;

    /// Mask table for tail loads: `TAIL_MASK[8 - rem ..]` enables the
    /// first `rem` lanes.
    static TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    #[inline(always)]
    unsafe fn tail_mask(rem: usize) -> __m256i {
        debug_assert!((1..=7).contains(&rem));
        _mm256_loadu_si256(TAIL_MASK.as_ptr().add(8 - rem) as *const __m256i)
    }

    /// Canonical `((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))` reduction.
    #[inline(always)]
    unsafe fn reduce8(acc: __m256) -> f32 {
        let c = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        let d = _mm_add_ps(c, _mm_movehl_ps(c, c));
        let e = _mm_add_ss(d, _mm_shuffle_ps(d, d, 0b01));
        _mm_cvtss_f32(e)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let chunks = n / 8;
        for i in 0..chunks {
            let d =
                _mm256_sub_ps(_mm256_loadu_ps(pa.add(i * 8)), _mm256_loadu_ps(pb.add(i * 8)));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        let rem = n % 8;
        if rem != 0 {
            let m = tail_mask(rem);
            let d = _mm256_sub_ps(
                _mm256_maskload_ps(pa.add(chunks * 8), m),
                _mm256_maskload_ps(pb.add(chunks * 8), m),
            );
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        reduce8(acc)
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn l2_sq_batch(query: &[f32], vs: [&[f32]; 4]) -> [f32; 4] {
        for v in vs {
            debug_assert_eq!(query.len(), v.len());
        }
        let n = query.len();
        let pq = query.as_ptr();
        let pv = [vs[0].as_ptr(), vs[1].as_ptr(), vs[2].as_ptr(), vs[3].as_ptr()];
        let mut acc = [_mm256_setzero_ps(); 4];
        let chunks = n / 8;
        for i in 0..chunks {
            let q = _mm256_loadu_ps(pq.add(i * 8));
            for v in 0..4 {
                let d = _mm256_sub_ps(q, _mm256_loadu_ps(pv[v].add(i * 8)));
                acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(d, d));
            }
        }
        let rem = n % 8;
        if rem != 0 {
            let m = tail_mask(rem);
            let q = _mm256_maskload_ps(pq.add(chunks * 8), m);
            for v in 0..4 {
                let d = _mm256_sub_ps(q, _mm256_maskload_ps(pv[v].add(chunks * 8), m));
                acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(d, d));
            }
        }
        [reduce8(acc[0]), reduce8(acc[1]), reduce8(acc[2]), reduce8(acc[3])]
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        let chunks = n / 8;
        for i in 0..chunks {
            let p =
                _mm256_mul_ps(_mm256_loadu_ps(pa.add(i * 8)), _mm256_loadu_ps(pb.add(i * 8)));
            acc = _mm256_add_ps(acc, p);
        }
        let rem = n % 8;
        if rem != 0 {
            let m = tail_mask(rem);
            let p = _mm256_mul_ps(
                _mm256_maskload_ps(pa.add(chunks * 8), m),
                _mm256_maskload_ps(pb.add(chunks * 8), m),
            );
            acc = _mm256_add_ps(acc, p);
        }
        reduce8(acc)
    }

    /// One coordinate's squared differences against eight lanes of a
    /// dimension-major block: `(x − p[0..8])²`, unfused.
    #[inline(always)]
    unsafe fn sq_diff8(x: f32, p: *const f32) -> __m256 {
        let d = _mm256_sub_ps(_mm256_set1_ps(x), _mm256_loadu_ps(p));
        _mm256_mul_ps(d, d)
    }

    /// [`super::sub_dists16_scalar`] with SIMD lanes = vectors: each half of
    /// the block (8 vectors) keeps the eight canonical accumulators in
    /// eight registers, so every lane performs the scalar sequence
    /// verbatim. Explicit intrinsics because the safe array formulations
    /// do not vectorise (≈ 160 ns per call against ≈ 10 ns here, on 6-d
    /// subvectors).
    ///
    /// # Safety
    /// Requires AVX2 and `tm.len() == v.len() * 16`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_dists16(v: &[f32], tm: &[f32]) -> [f32; 16] {
        debug_assert_eq!(tm.len(), v.len() * 16);
        let mut out = [0.0f32; 16];
        for half in 0..2 {
            // SAFETY (every pointer use below): `p` walks this half's eight
            // lanes of one coordinate at a time — coordinate `i` is floats
            // `i*16 + half*8 ..+ 8` of `tm` — and is read only for `i <
            // v.len()`, so each load ends inside the `v.len() * 16` floats
            // the caller checked; the store covers `half*8 ..+ 8` of `out`.
            let mut p = tm.as_ptr().add(half * 8);
            let mut acc = [_mm256_setzero_ps(); 8];
            let mut chunks = v.chunks_exact(8);
            for chunk in &mut chunks {
                for lane in 0..8 {
                    acc[lane] = _mm256_add_ps(acc[lane], sq_diff8(chunk[lane], p));
                    p = p.add(16);
                }
            }
            // Tail: constant lane indices keep the accumulators in
            // registers.
            let tail = chunks.remainder();
            for lane in 0..8 {
                if lane < tail.len() {
                    acc[lane] = _mm256_add_ps(acc[lane], sq_diff8(tail[lane], p));
                    p = p.add(16);
                }
            }
            let c = [
                _mm256_add_ps(acc[0], acc[4]),
                _mm256_add_ps(acc[1], acc[5]),
                _mm256_add_ps(acc[2], acc[6]),
                _mm256_add_ps(acc[3], acc[7]),
            ];
            let r = _mm256_add_ps(_mm256_add_ps(c[0], c[2]), _mm256_add_ps(c[1], c[3]));
            _mm256_storeu_ps(out.as_mut_ptr().add(half * 8), r);
        }
        out
    }

    /// [`super::nearest8_scalar`] with SIMD lanes = points: the eight
    /// canonical accumulators are eight registers, one centroid coordinate
    /// is broadcast against a whole coordinate row of the block, and the
    /// running minimum is a lane-wise `<` compare selecting distance and
    /// index. `(c − p)²` equals `(p − c)²` bit for bit (IEEE subtraction is
    /// sign-symmetric), which lets the block row be the memory operand.
    ///
    /// # Safety
    /// Requires AVX2 and the shapes [`super::check_nearest8`] asserts.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn nearest8(block: &[f32], cents: &[f32]) -> super::Nearest8 {
        // Monomorphised on the exact point dimension up to eight (PQ's
        // `dsub` at the default rate is 5–8), beyond that on the
        // coordinates past the last whole 8-chunk, so every accumulator
        // index is a constant and stays in a register (a runtime `i % 8`
        // index runs at half speed).
        match block.len() / 8 {
            1 => nearest8_dims::<1, true>(block, cents),
            2 => nearest8_dims::<2, true>(block, cents),
            3 => nearest8_dims::<3, true>(block, cents),
            4 => nearest8_dims::<4, true>(block, cents),
            5 => nearest8_dims::<5, true>(block, cents),
            6 => nearest8_dims::<6, true>(block, cents),
            7 => nearest8_dims::<7, true>(block, cents),
            8 => nearest8_dims::<8, true>(block, cents),
            dim => match dim % 8 {
                0 => nearest8_dims::<0, false>(block, cents),
                1 => nearest8_dims::<1, false>(block, cents),
                2 => nearest8_dims::<2, false>(block, cents),
                3 => nearest8_dims::<3, false>(block, cents),
                4 => nearest8_dims::<4, false>(block, cents),
                5 => nearest8_dims::<5, false>(block, cents),
                6 => nearest8_dims::<6, false>(block, cents),
                _ => nearest8_dims::<7, false>(block, cents),
            },
        }
    }

    /// `x + y`, or `x` when `y` is known to be `+0.0`.
    #[inline(always)]
    unsafe fn add_live(x: __m256, y: __m256, y_live: bool) -> __m256 {
        if y_live {
            _mm256_add_ps(x, y)
        } else {
            x
        }
    }

    /// `TAIL` coordinates past the whole 8-chunks — or, when `SHORT`, all
    /// `TAIL ≤ 8` coordinates, so accumulators `TAIL..8` stay `+0.0` and
    /// the reduction skips them: exact, since an accumulator (a sum of
    /// squares from `+0.0`) is never `-0.0` and `x + 0.0 == x` for every
    /// other `x`.
    #[inline(always)]
    unsafe fn nearest8_dims<const TAIL: usize, const SHORT: bool>(
        block: &[f32],
        cents: &[f32],
    ) -> super::Nearest8 {
        let dim = block.len() / 8;
        let (chunks, live) = if SHORT { (0, TAIL) } else { (dim / 8, 8) };
        let mut best_d = _mm256_set1_ps(f32::INFINITY);
        let mut best = _mm256_setzero_ps();
        let mut c = _mm256_setzero_si256();
        for cent in cents.chunks_exact(dim) {
            // SAFETY (every pointer use below): `p` advances 8 floats and
            // `q` one float per coordinate, `dim` coordinates in all, so
            // each load lies inside the `8 * dim` floats of `block` and
            // the `dim` floats of `cent` the caller's shape check covers.
            let (mut p, mut q) = (block.as_ptr(), cent.as_ptr());
            let mut acc = [_mm256_setzero_ps(); 8];
            for _ in 0..chunks {
                for a in &mut acc {
                    let d = _mm256_sub_ps(_mm256_broadcast_ss(&*q), _mm256_loadu_ps(p));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(d, d));
                    (p, q) = (p.add(8), q.add(1));
                }
            }
            for a in &mut acc[..TAIL] {
                let d = _mm256_sub_ps(_mm256_broadcast_ss(&*q), _mm256_loadu_ps(p));
                *a = _mm256_add_ps(*a, _mm256_mul_ps(d, d));
                (p, q) = (p.add(8), q.add(1));
            }
            // The canonical tree, adding only accumulators that may be
            // non-zero.
            let h = [
                add_live(acc[0], acc[4], 4 < live),
                add_live(acc[1], acc[5], 5 < live),
                add_live(acc[2], acc[6], 6 < live),
                add_live(acc[3], acc[7], 7 < live),
            ];
            let d = add_live(
                add_live(h[0], h[2], 2 < live),
                add_live(h[1], h[3], 3 < live),
                1 < live,
            );
            // `min(d, best)` is `d < best ? d : best` (ordered, so `best`
            // on NaN) — the scalar strict `<` lane by lane.
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(d, best_d);
            best_d = _mm256_min_ps(d, best_d);
            best = _mm256_blendv_ps(best, _mm256_castsi256_ps(c), lt);
            c = _mm256_add_epi32(c, _mm256_set1_epi32(1));
        }
        let (mut idx, mut dist) = ([0u32; 8], [0.0f32; 8]);
        _mm256_storeu_si256(idx.as_mut_ptr().cast(), _mm256_castps_si256(best));
        _mm256_storeu_ps(dist.as_mut_ptr(), best_d);
        (idx, dist)
    }
}

// --- NEON kernels -------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    //! NEON implementations of the canonical kernel arithmetic: two
    //! `float32x4` accumulators model the eight lanes (low half = lanes
    //! 0–3, high half = lanes 4–7), so the cross-half `lo + hi` add is the
    //! canonical reduction's first level. Tails go through a zero-filled
    //! stack buffer; zero terms leave their accumulator lane bit-unchanged.

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

    /// Copies the `rem`-element tail starting at `p` into a zero-padded
    /// 8-float buffer.
    #[inline(always)]
    unsafe fn tail(p: *const f32, rem: usize) -> [f32; 8] {
        let mut buf = [0.0f32; 8];
        core::ptr::copy_nonoverlapping(p, buf.as_mut_ptr(), rem);
        buf
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        let chunks = n / 8;
        for i in 0..chunks {
            let d0 = vsubq_f32(vld1q_f32(pa.add(i * 8)), vld1q_f32(pb.add(i * 8)));
            let d1 = vsubq_f32(vld1q_f32(pa.add(i * 8 + 4)), vld1q_f32(pb.add(i * 8 + 4)));
            lo = vaddq_f32(lo, vmulq_f32(d0, d0));
            hi = vaddq_f32(hi, vmulq_f32(d1, d1));
        }
        let rem = n % 8;
        if rem != 0 {
            let ta = tail(pa.add(chunks * 8), rem);
            let tb = tail(pb.add(chunks * 8), rem);
            let d0 = vsubq_f32(vld1q_f32(ta.as_ptr()), vld1q_f32(tb.as_ptr()));
            let d1 = vsubq_f32(vld1q_f32(ta.as_ptr().add(4)), vld1q_f32(tb.as_ptr().add(4)));
            lo = vaddq_f32(lo, vmulq_f32(d0, d0));
            hi = vaddq_f32(hi, vmulq_f32(d1, d1));
        }
        reduce8(lo, hi)
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn l2_sq_batch(query: &[f32], vs: [&[f32]; 4]) -> [f32; 4] {
        let mut out = [0.0f32; 4];
        for (o, v) in out.iter_mut().zip(vs) {
            *o = l2_sq(query, v);
        }
        out
    }

    #[target_feature(enable = "neon")]
    pub(super) unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        let chunks = n / 8;
        for i in 0..chunks {
            lo = vaddq_f32(lo, vmulq_f32(vld1q_f32(pa.add(i * 8)), vld1q_f32(pb.add(i * 8))));
            hi = vaddq_f32(
                hi,
                vmulq_f32(vld1q_f32(pa.add(i * 8 + 4)), vld1q_f32(pb.add(i * 8 + 4))),
            );
        }
        let rem = n % 8;
        if rem != 0 {
            let ta = tail(pa.add(chunks * 8), rem);
            let tb = tail(pb.add(chunks * 8), rem);
            lo = vaddq_f32(lo, vmulq_f32(vld1q_f32(ta.as_ptr()), vld1q_f32(tb.as_ptr())));
            hi = vaddq_f32(
                hi,
                vmulq_f32(vld1q_f32(ta.as_ptr().add(4)), vld1q_f32(tb.as_ptr().add(4))),
            );
        }
        reduce8(lo, hi)
    }
}

// --- dispatched public kernels -----------------------------------------

/// Squared Euclidean distance between two equal-length slices, dispatched
/// to the best available kernel (see the module docs: all backends are
/// bit-identical).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        BACKEND_AVX2 => unsafe { avx2::l2_sq(a, b) },
        #[cfg(target_arch = "aarch64")]
        BACKEND_NEON => unsafe { neon::l2_sq(a, b) },
        _ => l2_sq_scalar(a, b),
    }
}

/// Squared Euclidean distance from one query to **four** stored vectors at
/// once — the beam-search neighbor loop's batched kernel.
///
/// Evaluating four candidates per call reuses each loaded query chunk
/// across all four vectors and gives the hardware four independent
/// accumulation chains. Per vector the arithmetic is exactly [`l2_sq`]'s,
/// so results are bit-identical to four separate calls.
#[inline]
pub fn l2_sq_batch(query: &[f32], vs: [&[f32]; 4]) -> [f32; 4] {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        BACKEND_AVX2 => unsafe { avx2::l2_sq_batch(query, vs) },
        #[cfg(target_arch = "aarch64")]
        BACKEND_NEON => unsafe { neon::l2_sq_batch(query, vs) },
        _ => l2_sq_batch_scalar(query, vs),
    }
}

/// Euclidean distance (`sqrt` of [`l2_sq`]).
#[inline]
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    l2_sq(a, b).sqrt()
}

/// Inner product of two equal-length slices, dispatched like [`l2_sq`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        BACKEND_AVX2 => unsafe { avx2::dot(a, b) },
        #[cfg(target_arch = "aarch64")]
        BACKEND_NEON => unsafe { neon::dot(a, b) },
        _ => dot_scalar(a, b),
    }
}

/// Squared Euclidean distances from `v` to **sixteen** vectors at once,
/// held dimension-major in `tm` (see [`to_dim_major16`]) — the kernel
/// behind PQ table construction, encoding and codebook training, where one
/// short subvector meets a whole 16-centroid codebook. Lane `c` is
/// bit-identical to `l2_sq(v, vector_c)` on every backend (see
/// [`sub_dists16_scalar`]); aarch64 runs the scalar form.
///
/// # Panics
/// Panics if `tm.len() != v.len() * 16`.
#[inline]
pub fn sub_dists16(v: &[f32], tm: &[f32]) -> [f32; LANES16] {
    assert_eq!(tm.len(), v.len() * LANES16, "block must hold 16 vectors of v's length");
    match backend() {
        // SAFETY: the backend is AVX2 only after runtime detection, and the
        // length check above is the one the kernel's pointer arithmetic
        // relies on.
        #[cfg(target_arch = "x86_64")]
        BACKEND_AVX2 => unsafe { avx2::sub_dists16(v, tm) },
        _ => sub_dists16_scalar(v, tm),
    }
}

/// The nearest of `cents` (row-major, any count) for each of the eight
/// points of a dimension-major `block` (see [`to_blocks8`]): per lane the
/// index of the first centroid at the minimum squared distance, and that
/// distance — `(0, +∞)` when no centroid scores below `+∞`. The kernel
/// behind k-means seeding and assignment and PQ encoding, where many
/// points meet the same few centroids; bit-identical on every backend to a
/// per-point strict-`<` scan of `l2_sq` calls (see [`nearest8_scalar`]);
/// aarch64 runs the scalar form.
///
/// # Panics
/// Panics if `block` is empty or not whole 8-point columns, or `cents` is
/// not whole centroids of `block.len() / 8` coordinates.
#[inline]
pub fn nearest8(block: &[f32], cents: &[f32]) -> Nearest8 {
    check_nearest8(block, cents);
    match backend() {
        // SAFETY: the backend is AVX2 only after runtime detection, and
        // `check_nearest8` asserted the shapes the kernel's loads rely on.
        #[cfg(target_arch = "x86_64")]
        BACKEND_AVX2 => unsafe { avx2::nearest8(block, cents) },
        _ => nearest8_scalar(block, cents),
    }
}

/// Lane-wise minimum of sixteen non-NaN values.
#[inline]
pub(crate) fn min16(d: &[f32; LANES16]) -> f32 {
    let lt = |a: f32, b: f32| if a < b { a } else { b };
    let h8: [f32; 8] = std::array::from_fn(|i| lt(d[i], d[i + 8]));
    let h4: [f32; 4] = std::array::from_fn(|i| lt(h8[i], h8[i + 4]));
    lt(lt(h4[0], h4[2]), lt(h4[1], h4[3]))
}

/// Squared L2 norm.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Cosine *distance* (1 − cosine similarity). Zero vectors are treated as
/// maximally distant.
#[inline]
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f32 {
    let na = norm_sq(a).sqrt();
    let nb = norm_sq(b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

/// Shared, thread-safe counter of distance evaluations, split by
/// precision: full-precision `f32` evaluations and quantized `u8`
/// evaluations are tracked separately so harnesses can prove where the
/// work went under SQ8 serving ([`get_f32`](Self::get_f32) /
/// [`get_u8`](Self::get_u8)); [`get`](Self::get) stays the combined total,
/// so all pre-quantization accounting is unchanged.
///
/// Cloning is cheap (an `Arc` bump); clones observe the same count, which is
/// what parallel index construction needs. Counting uses relaxed atomics —
/// the total is read only after the workload quiesces. The shared beam and
/// greedy searches tally their evaluations locally and publish them with
/// one `add` / `add_u8` per precision when they return, so a search's
/// count appears all at once, after it finishes.
#[derive(Clone, Debug, Default)]
pub struct DistCounter(Arc<DistCounts>);

#[derive(Debug, Default)]
struct DistCounts {
    full: AtomicU64,
    quant: AtomicU64,
}

impl DistCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` full-precision (`f32`) distance evaluations.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.full.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a single full-precision distance evaluation.
    #[inline]
    pub fn bump(&self) {
        self.add(1);
    }

    /// Records `n` quantized (`u8` code-space) distance evaluations.
    #[inline]
    pub fn add_u8(&self, n: u64) {
        self.0.quant.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a single quantized distance evaluation.
    #[inline]
    pub fn bump_u8(&self) {
        self.add_u8(1);
    }

    /// Current total across both precisions (the paper's machine-
    /// independent work metric).
    pub fn get(&self) -> u64 {
        self.get_f32() + self.get_u8()
    }

    /// Full-precision (`f32`) evaluations only.
    pub fn get_f32(&self) -> u64 {
        self.0.full.load(Ordering::Relaxed)
    }

    /// Quantized (`u8`) evaluations only.
    pub fn get_u8(&self) -> u64 {
        self.0.quant.load(Ordering::Relaxed)
    }

    /// Resets both precisions to zero (between experiment phases).
    pub fn reset(&self) {
        self.0.full.store(0, Ordering::Relaxed);
        self.0.quant.store(0, Ordering::Relaxed);
    }
}

/// A view of a [`CodecStore`](crate::quant::CodecStore) (SQ8, SQ4 or PQ
/// codes) plus the serving-time rerank policy, attached to a [`Space`] to
/// route traversal through compressed code-space distances.
#[derive(Clone, Copy)]
pub struct QuantView<'a> {
    store: &'a dyn crate::quant::CodecStore,
    rerank_factor: usize,
}

impl<'a> QuantView<'a> {
    /// Pairs quantized codes with a rerank pool multiplier (a
    /// `rerank_factor * k` candidate pool is re-scored exactly before
    /// results are returned; values below 1 behave as 1).
    pub fn new(store: &'a dyn crate::quant::CodecStore, rerank_factor: usize) -> Self {
        Self { store, rerank_factor: rerank_factor.max(1) }
    }

    /// The quantized codes.
    #[inline]
    pub fn store(&self) -> &'a dyn crate::quant::CodecStore {
        self.store
    }

    /// Exact re-scoring pool multiplier (≥ 1).
    #[inline]
    pub fn rerank_factor(&self) -> usize {
        self.rerank_factor
    }
}

/// A vector store paired with a distance counter: the "space" every search
/// and construction routine runs in.
///
/// This is deliberately a borrow-holding view rather than an owning struct:
/// methods keep their own `VectorStore` and create `Space` views per phase
/// so each phase gets its own accounting.
#[derive(Clone, Copy)]
pub struct Space<'a> {
    store: &'a VectorStore,
    counter: &'a DistCounter,
    quant: Option<QuantView<'a>>,
}

impl<'a> Space<'a> {
    /// Wraps a store and counter (full-precision space; no quantization).
    pub fn new(store: &'a VectorStore, counter: &'a DistCounter) -> Self {
        Self { store, counter, quant: None }
    }

    /// Attaches (or detaches) a quantized view. With a view present, the
    /// shared searches traverse on `u8` code-space distances and re-score
    /// a `rerank_factor * k` pool exactly before returning.
    pub fn with_quant(mut self, quant: Option<QuantView<'a>>) -> Self {
        self.quant = quant;
        self
    }

    /// The attached quantized view, if any.
    #[inline]
    pub fn quant(&self) -> Option<QuantView<'a>> {
        self.quant
    }

    /// The underlying store.
    #[inline]
    pub fn store(&self) -> &'a VectorStore {
        self.store
    }

    /// The distance counter.
    #[inline]
    pub fn counter(&self) -> &'a DistCounter {
        self.counter
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Counted squared distance between stored vectors `i` and `j`.
    #[inline]
    pub fn dist(&self, i: u32, j: u32) -> f32 {
        self.counter.bump();
        l2_sq(self.store.get(i), self.store.get(j))
    }

    /// Counted squared distance between an external query and stored
    /// vector `i`.
    #[inline]
    pub fn dist_to(&self, query: &[f32], i: u32) -> f32 {
        self.counter.bump();
        l2_sq(query, self.store.get(i))
    }

    /// Counted squared distances from `query` to four stored vectors at
    /// once (see [`l2_sq_batch`]). Counts four evaluations.
    #[inline]
    pub fn dist_to_batch(&self, query: &[f32], ids: [u32; 4]) -> [f32; 4] {
        self.counter.add(4);
        l2_sq_batch(
            query,
            [
                self.store.get(ids[0]),
                self.store.get(ids[1]),
                self.store.get(ids[2]),
                self.store.get(ids[3]),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sq_matches_naive() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|i| (13 - i) as f32 * 0.25).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((l2_sq(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn l2_sq_zero_for_identical() {
        let a = vec![1.5f32; 9];
        assert_eq!(l2_sq(&a, &a), 0.0);
    }

    fn ramp(dim: usize, phase: usize) -> Vec<f32> {
        (0..dim).map(|i| ((i + phase * 31) as f32 * 0.3).cos()).collect()
    }

    #[test]
    fn dispatched_kernels_are_bit_identical_to_scalar() {
        // Exercises every tail length (dims 1..=40 cover all `mod 8`
        // classes several times) plus the paper's dataset dims.
        for dim in (1usize..=40).chain([96, 100, 128, 200, 960]) {
            let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin()).collect();
            let b = ramp(dim, 1);
            assert_eq!(
                l2_sq(&a, &b).to_bits(),
                l2_sq_scalar(&a, &b).to_bits(),
                "l2_sq dim={dim} backend={}",
                simd_backend()
            );
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_scalar(&a, &b).to_bits(),
                "dot dim={dim} backend={}",
                simd_backend()
            );
            let vs: Vec<Vec<f32>> = (0..4).map(|v| ramp(dim, v + 2)).collect();
            let refs = [&vs[0][..], &vs[1][..], &vs[2][..], &vs[3][..]];
            let batch = l2_sq_batch(&a, refs);
            let batch_ref = l2_sq_batch_scalar(&a, refs);
            for v in 0..4 {
                assert_eq!(
                    batch[v].to_bits(),
                    batch_ref[v].to_bits(),
                    "batch dim={dim} v={v} backend={}",
                    simd_backend()
                );
            }
        }
    }

    #[test]
    fn l2_sq_batch_is_bit_identical_to_l2_sq() {
        // Awkward dimensions exercise the remainder path too.
        for dim in [1usize, 4, 8, 13, 96, 100] {
            let q: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin()).collect();
            let vs: Vec<Vec<f32>> = (0..4).map(|v| ramp(dim, v)).collect();
            let batch = l2_sq_batch(&q, [&vs[0], &vs[1], &vs[2], &vs[3]]);
            for v in 0..4 {
                assert_eq!(
                    batch[v].to_bits(),
                    l2_sq(&q, &vs[v]).to_bits(),
                    "dim={dim} vector={v}"
                );
            }
        }
    }

    #[test]
    fn dim_major_block_pads_with_row_zero() {
        let rows = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // three 2-d rows
        let tm = to_dim_major16(&rows, 2);
        assert_eq!(&tm[..4], &[1.0, 3.0, 5.0, 1.0]);
        assert!(tm[3..16].iter().all(|&x| x == 1.0), "dead lanes repeat row 0");
        assert_eq!(&tm[16..20], &[2.0, 4.0, 6.0, 2.0]);
        // Dead lanes therefore never beat, and never precede, a live one.
        let d = sub_dists16(&[5.0, 6.0], &tm);
        assert_eq!(d[2], 0.0);
        assert_eq!(d[3..], [d[0]; 13]);
    }

    #[test]
    fn point_blocks_repeat_the_last_point() {
        let rows = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // three 2-d points
        let blocks = to_blocks8(3, 2, |pos| rows[pos * 2..pos * 2 + 2].iter().copied());
        assert_eq!(
            blocks,
            [
                [1.0, 3.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0],
                [2.0, 4.0, 6.0, 6.0, 6.0, 6.0, 6.0, 6.0]
            ]
            .concat()
        );
        // No centroid: every lane keeps the `(0, +∞)` start.
        assert_eq!(nearest8(&blocks, &[]), ([0; 8], [f32::INFINITY; 8]));
        // Equal centroids tie to the first; +∞ never beats the start.
        let (idx, d) = nearest8(&blocks, &[9.0, 9.0, 3.0, 4.0, 3.0, 4.0, 1e30, 0.0]);
        assert_eq!((idx[1], d[1]), (1, 0.0));
        assert_eq!(idx[..3], [1, 1, 1]);
        let far = nearest8(&blocks, &[1e30, 0.0, -1e30, 0.0]);
        assert_eq!(far, ([0; 8], [f32::INFINITY; 8]));
    }

    #[test]
    fn simd_toggle_round_trips() {
        // Scalar and SIMD are bit-identical, so flipping the global toggle
        // is observable only through the backend name. (Safe against
        // concurrent tests for the same reason.)
        let before = simd_backend();
        set_simd_enabled(false);
        assert_eq!(simd_backend(), "scalar");
        set_simd_enabled(true);
        let native = simd_backend();
        assert!(["avx2", "neon", "scalar"].contains(&native));
        set_simd_enabled(before != "scalar");
    }

    #[test]
    fn dist_to_batch_counts_four() {
        let store = VectorStore::from_flat(2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let ds = space.dist_to_batch(&[0.0, 0.0], [0, 1, 2, 3]);
        assert_eq!(counter.get(), 4);
        assert_eq!(ds, [0.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn l2_is_sqrt_of_l2_sq() {
        let a = [3.0f32, 0.0];
        let b = [0.0f32, 4.0];
        assert!((l2(&a, &b) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (1..=10).map(|i| i as f32).collect();
        let b: Vec<f32> = (1..=10).map(|i| (i * 2) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn cosine_distance_bounds() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 1.0];
        assert!((cosine_distance(&a, &a)).abs() < 1e-6);
        assert!((cosine_distance(&a, &b) - 1.0).abs() < 1e-6);
        let c = [-1.0f32, 0.0];
        assert!((cosine_distance(&a, &c) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_distance_zero_vector() {
        let z = [0.0f32, 0.0];
        let a = [1.0f32, 0.0];
        assert_eq!(cosine_distance(&z, &a), 1.0);
    }

    #[test]
    fn counter_accumulates_across_clones() {
        let c = DistCounter::new();
        let c2 = c.clone();
        c.add(3);
        c2.bump();
        assert_eq!(c.get(), 4);
        c.reset();
        assert_eq!(c2.get(), 0);
    }

    #[test]
    fn counter_splits_precisions_and_totals_them() {
        let c = DistCounter::new();
        c.add(3);
        c.add_u8(5);
        c.bump_u8();
        assert_eq!(c.get_f32(), 3);
        assert_eq!(c.get_u8(), 6);
        assert_eq!(c.get(), 9, "get() stays the combined total");
        c.reset();
        assert_eq!((c.get_f32(), c.get_u8()), (0, 0));
    }

    #[test]
    fn space_counts_every_call() {
        let store = VectorStore::from_flat(2, vec![0.0, 0.0, 3.0, 4.0]);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        assert!((space.dist(0, 1) - 25.0).abs() < 1e-6);
        assert!((space.dist_to(&[0.0, 0.0], 1) - 25.0).abs() < 1e-6);
        assert_eq!(counter.get(), 2);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Values the 16-lane kernel must treat exactly like the scalar
    /// reference: signed zeros, subnormals, magnitudes whose squares sit
    /// near both ends of the `f32` range.
    const EDGE: [f32; 8] = [0.0, -0.0, 1e-40, -3e-39, 1e18, -1e18, 1e-18, -1e-18];

    fn value() -> impl Strategy<Value = f32> {
        (0usize..16, -100.0f32..100.0).prop_map(|(pick, x)| *EDGE.get(pick).unwrap_or(&x))
    }

    /// A `dsub`-dimensional vector and 1..=16 more, `dsub` in 1..=24:
    /// sub-chunk, exact-chunk, multi-chunk and ragged-tail lengths.
    fn blocks() -> impl Strategy<Value = (Vec<f32>, Vec<Vec<f32>>)> {
        (1usize..=24).prop_flat_map(|dsub| {
            (
                prop::collection::vec(value(), dsub),
                prop::collection::vec(prop::collection::vec(value(), dsub), 1..=16),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every form of the kernel — scalar reference, the AVX2 lanes
        /// called directly, the dispatcher — equals `l2_sq_scalar` per
        /// lane, bit for bit, and so does the dispatched `l2_sq` it
        /// replaces.
        #[test]
        fn sub_dists16_is_l2_sq_scalar_per_lane(case in blocks()) {
            let (v, rows) = case;
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let tm = to_dim_major16(&flat, v.len());
            let want: Vec<u32> = (0..LANES16)
                .map(|c| l2_sq_scalar(&v, rows.get(c).unwrap_or(&rows[0])).to_bits())
                .collect();
            let bits = |d: [f32; LANES16]| d.map(f32::to_bits).to_vec();
            prop_assert_eq!(bits(sub_dists16_scalar(&v, &tm)), want.clone());
            prop_assert_eq!(bits(sub_dists16(&v, &tm)), want.clone());
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was just detected; `to_dim_major16` returns
                // `v.len() * 16` floats.
                prop_assert_eq!(bits(unsafe { avx2::sub_dists16(&v, &tm) }), want.clone());
            }
            for (c, row) in rows.iter().enumerate() {
                prop_assert_eq!(l2_sq(&v, row).to_bits(), want[c]);
            }
        }
    }

    /// A palette heavy in duplicates (ties), signed zeros, subnormals and
    /// magnitudes whose squares overflow (`+∞` ties) or underflow.
    const PALETTE: [f32; 12] =
        [0.0, -0.0, 1.0, 1.0, -2.0, 0.5, 1e-40, -3e-39, 1e18, -1e18, 1e-18, 3e19];

    fn tie_value() -> impl Strategy<Value = f32> {
        (0usize..16, -4.0f32..4.0).prop_map(|(pick, x)| *PALETTE.get(pick).unwrap_or(&x))
    }

    /// `n` points (never a whole number of blocks) and `ncent` centroids of
    /// dimension `dsub`; every centroid after the first may instead copy an
    /// earlier one, so exact ties in distance are common.
    fn point_sets() -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>)> {
        (1usize..=24, (0usize..3, 1usize..8), 1usize..=40).prop_flat_map(|(dsub, (b, r), k)| {
            let n = b * POINTS8 + r;
            let cents =
                prop::collection::vec((prop::collection::vec(tie_value(), dsub), 0usize..4), k)
                    .prop_map(move |rows| {
                        let mut flat: Vec<f32> = Vec::with_capacity(rows.len() * dsub);
                        for (c, (row, copy)) in rows.into_iter().enumerate() {
                            let from = if copy == 0 && c > 0 { (c * 7 + 3) % c } else { c };
                            if from == c {
                                flat.extend(row);
                            } else {
                                flat.extend_from_within(from * dsub..(from + 1) * dsub);
                            }
                        }
                        flat
                    });
            (prop::collection::vec(tie_value(), n * dsub), cents)
                .prop_map(move |(points, cents)| (dsub, points, cents))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every form of the 8-point kernel — scalar reference, the AVX2
        /// lanes called directly, the dispatcher — returns, per live point,
        /// the index and distance bits of a strict-`<` scan of
        /// `l2_sq_scalar` over the centroids in order.
        #[test]
        fn nearest8_is_the_strict_less_scan_of_l2_sq_scalar(case in point_sets()) {
            let (dsub, points, cents) = case;
            let n = points.len() / dsub;
            let point = |pos: usize| &points[pos * dsub..(pos + 1) * dsub];
            let want: Vec<(u32, u32)> = (0..n)
                .map(|pos| {
                    let (mut best, mut best_d) = (0u32, f32::INFINITY);
                    for (c, cent) in cents.chunks_exact(dsub).enumerate() {
                        let d = l2_sq_scalar(point(pos), cent);
                        if d < best_d {
                            (best, best_d) = (c as u32, d);
                        }
                    }
                    (best, best_d.to_bits())
                })
                .collect();
            let blocks = to_blocks8(n, dsub, |pos| point(pos).iter().copied());
            let run = |kernel: &dyn Fn(&[f32]) -> Nearest8| -> Vec<(u32, u32)> {
                blocks
                    .chunks_exact(POINTS8 * dsub)
                    .flat_map(|block| {
                        let (idx, d) = kernel(block);
                        (0..POINTS8).map(move |l| (idx[l], d[l].to_bits()))
                    })
                    .take(n)
                    .collect()
            };
            prop_assert_eq!(run(&|b| nearest8_scalar(b, &cents)), want.clone());
            prop_assert_eq!(run(&|b| nearest8(b, &cents)), want.clone());
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was just detected; `to_blocks8` returns whole
                // 8-point blocks and `cents` holds whole `dsub` rows.
                prop_assert_eq!(run(&|b| unsafe { avx2::nearest8(b, &cents) }), want.clone());
            }
        }
    }
}
