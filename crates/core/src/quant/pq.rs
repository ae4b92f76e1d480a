//! Product quantization: `m` subquantizers × 16 k-means centroids with
//! 4-bit codes, scored through per-query distance tables scanned by SIMD
//! 16-entry LUT kernels — the Faiss/kANNolo fast-scan family adapted to
//! scattered graph traversal.
//!
//! ## Codes
//!
//! Each vector splits into `m` subvectors of `dsub = dim/m` dimensions.
//! Dimensions are dealt to subquantizers by descending per-dim variance
//! in snake order (L2 is permutation-invariant, so distances are
//! unchanged), which balances the quantization energy across
//! subquantizers — contiguous blocking concentrates the error in the
//! high-variance regions of histogram-style data and measurably hurts
//! rerank containment. Subquantizer `j` assigns its subvector to the
//! nearest of (up to) 16 centroids learned by a **deterministic** Lloyd's
//! k-means over a stride-sampled training set (maximin seeding from the
//! subspace mean, fixed iteration count, farthest-point reseeding of
//! empty clusters — no RNG, so the same store always yields the same
//! codebooks and codes). Codes pack two per byte (even `j` low nibble,
//! odd `j` high nibble), rows pad to a multiple of 16 bytes from a
//! 64-byte-aligned base.
//!
//! Codebooks are held **dimension-major** (`[j][i][c]`: the 16 centroids'
//! `i`-th coordinates contiguous) — the only in-memory layout — so one
//! [`sub_dists16`] call scores a query subvector against a subquantizer's
//! whole codebook with SIMD lanes = centroids, each lane bit-identical to
//! the per-centroid `l2_sq`: the per-query table. Training and encoding
//! run the other way round — eight training points or rows per SIMD
//! vector, [`nearest8`] against every centroid of a row-major book — with
//! the same per-lane arithmetic. Persisted files keep the centroid-major
//! `[j][c][i]` order ([`PqStore::centroids`]).
//!
//! ## Per-query LUT and the compare-select scan
//!
//! [`PqStore::prepare_into`] computes the exact `f32` table `T[j][c] =
//! ‖q_j − centroid_{j,c}‖²`, then quantizes it to `u8` with a per-query
//! additive bias (`Σ_j min_c T[j][c]`) and one shared scale `λ`
//! (`max residual / 255`), so a candidate's code distance is recovered as
//! `λ · Σ_j lut[j][c_j] + bias` — the inner sum is **exact integer**
//! arithmetic, which is why scalar and SIMD agree bitwise by construction.
//!
//! True `vpshufb` fast-scan shuffles one subquantizer's 16-entry table
//! against 16 *sequential* database vectors; graph traversal visits
//! scattered ids in batches of four, so the kernels here keep the
//! register-resident 16-entry tables but select with compare masks
//! instead: for each candidate code value `c`, `sel |= (codes == c) &
//! lut_row[c]` — the masks are disjoint, so the OR accumulates each lane's
//! table entry — then a horizontal byte sum feeds the integer accumulator
//! (`vpcmpeqb`/`vpand`/`vpor`/`vpsadbw` on AVX2). The LUT is laid out
//! chunk-major for 16-byte rows:
//! for each 16-byte group of code bytes (32 subquantizers), entry `c`
//! stores 16 even-nibble bytes then 16 odd-nibble bytes at offset
//! `chunk·512 + c·32`.
//!
//! ## Table lookups on AVX-512 VBMI
//!
//! Where the CPU has AVX-512 VBMI (the top kernel tier of
//! [`crate::distance`]), a chunk's 512-byte table is four
//! 128-byte groups that `vpermi2b` indexes directly, so a lane's entry is
//! one lookup per group (four per chunk) instead of sixteen compare-select
//! rounds, and a zmm holds **two** code rows. [`pq_scan_pair`] scores two
//! rows per call, [`pq_scan`] a row paired with itself and
//! [`pq_scan_batch`] two pairs; the table layout is the one above, and the
//! sums are the same exact integers.

use super::{
    lines_as_bytes, lines_as_bytes_mut, CodeLine, CodecSpec, CodecStore, PreparedQuery, LINE_U8,
};
#[cfg(target_arch = "x86_64")]
use crate::distance::{kernel_tier, native_tier, TIER_AVX2, TIER_VBMI};
use crate::distance::{min16, nearest8, sub_dists16, to_blocks8, to_dim_major16, POINTS8};
use crate::par::par_map;
use crate::store::VectorStore;

/// Centroids per subquantizer (4-bit codes) — one [`sub_dists16`] block.
pub const KSUB: usize = crate::distance::LANES16;

/// Training sample cap: k-means sees every `ceil(n / PQ_TRAIN_MAX)`-th row.
const PQ_TRAIN_MAX: usize = 32_768;

/// Lloyd refinement rounds.
const PQ_KMEANS_ITERS: usize = 25;

/// LUT bytes per 16-byte code chunk: 16 entries × (16 even + 16 odd).
const LUT_CHUNK: usize = 512;

/// The divisor of `dim` nearest `dim/6` (ties prefer the larger `m`) —
/// the default subquantizer count, matching the extension ladder's
/// operating point (e.g. 960 → 160, 96 → 16, 100 → 20).
pub fn pq_auto_m(dim: usize) -> usize {
    assert!(dim > 0, "vector dimension must be positive");
    let target = ((dim as f64) / 6.0).round().max(1.0) as usize;
    let mut best = 1usize;
    for m in 1..=dim {
        if dim.is_multiple_of(m) {
            let (d, bd) = (m.abs_diff(target), best.abs_diff(target));
            if d < bd || (d == bd && m > best) {
                best = m;
            }
        }
    }
    best
}

/// Bytes between consecutive row starts: two codes per byte, rounded up
/// to whole 16-byte kernel chunks.
pub(crate) fn pq_stride(m: usize) -> usize {
    m.div_ceil(2).next_multiple_of(16)
}

/// Deals dimensions to subquantizers by descending per-dim variance
/// (computed over the training sample, f64 sums in row order) in snake
/// order, so every subquantizer receives a balanced share of the data's
/// energy. Returns the group-major map: subquantizer `j`'s `p`-th
/// dimension is original dimension `perm[j*dsub + p]`.
fn balanced_dim_order(store: &VectorStore, train: &[u32], m: usize, dsub: usize) -> Vec<u32> {
    let dim = m * dsub;
    let mut sum = vec![0.0f64; dim];
    let mut sq = vec![0.0f64; dim];
    for &id in train {
        for (d, &x) in store.get(id).iter().enumerate() {
            sum[d] += x as f64;
            sq[d] += (x as f64) * (x as f64);
        }
    }
    let n = train.len() as f64;
    let mut order: Vec<u32> = (0..dim as u32).collect();
    order.sort_by(|&a, &b| {
        let va = sq[a as usize] / n - (sum[a as usize] / n).powi(2);
        let vb = sq[b as usize] / n - (sum[b as usize] / n).powi(2);
        vb.total_cmp(&va).then(a.cmp(&b))
    });
    let mut perm = vec![0u32; dim];
    for (rank, &d) in order.iter().enumerate() {
        let (round, lane) = (rank / m, rank % m);
        let j = if round % 2 == 0 { lane } else { m - 1 - lane };
        perm[j * dsub + round] = d;
    }
    perm
}

/// Deterministic Lloyd's k-means over subvector `j` of the training rows,
/// via the workspace's shared trainer [`crate::kmeans::maximin_lloyd`]:
/// maximin seeding, fixed iterations, empty clusters reseeded at the
/// current farthest-assigned points (successively, index tie-break). Same
/// inputs always produce the same centroids. Returns the `ncent` centroids
/// row-major (`[c][i]`).
fn train_subquantizer(
    store: &VectorStore,
    train: &[u32],
    perm_j: &[u32],
    ncent: usize,
) -> Vec<f32> {
    let dsub = perm_j.len();
    // Gather this subquantizer's (permuted) training subvectors once,
    // straight into the trainer's 8-point blocks.
    let blocks = to_blocks8(train.len(), dsub, |pos| {
        let row = store.get(train[pos]);
        perm_j.iter().map(move |&d| row[d as usize])
    });
    crate::kmeans::maximin_lloyd_blocks(&blocks, train.len(), dsub, ncent, PQ_KMEANS_ITERS)
}

/// Encodes every row of `store` against fixed row-major codebooks (one
/// `ncent * dsub` book per subquantizer): nearest centroid per
/// subquantizer (strict `<`, lowest index on ties), nibble-packed, eight
/// rows per kernel call. Row-local, so it commutes with any row
/// permutation.
fn encode_rows(
    store: &VectorStore,
    books: &[Vec<f32>],
    perm: &[u32],
    stride: usize,
) -> Vec<CodeLine> {
    let n = store.len();
    let dsub = perm.len() / books.len();
    let row_bytes = books.len().div_ceil(2);
    let blocks: Vec<Vec<u8>> = par_map(0, n.div_ceil(POINTS8), |b| {
        let live = POINTS8.min(n - b * POINTS8);
        // Subquantizer `j`'s block is `[j][i][lane]`: `perm` is group-major.
        let sv = to_blocks8(live, perm.len(), |lane| {
            let row = store.get((b * POINTS8 + lane) as u32);
            perm.iter().map(move |&d| row[d as usize])
        });
        let mut packed = vec![0u8; live * row_bytes];
        for (j, (block, book)) in sv.chunks_exact(POINTS8 * dsub).zip(books).enumerate() {
            let (best, _) = nearest8(block, book);
            for (row, &c) in packed.chunks_exact_mut(row_bytes).zip(&best) {
                row[j / 2] |= (c as u8) << (4 * (j % 2));
            }
        }
        packed
    });
    let mut codes = vec![CodeLine([0u8; LINE_U8]); (n * stride).div_ceil(LINE_U8)];
    let raw = lines_as_bytes_mut(&mut codes);
    for (i, row) in blocks.iter().flat_map(|b| b.chunks_exact(row_bytes)).enumerate() {
        raw[i * stride..i * stride + row_bytes].copy_from_slice(row);
    }
    codes
}

/// `x` rounded half away from zero and saturated to a byte — what
/// `x.round().clamp(0.0, 255.0) as u8` computes — for `x ≥ 0` (or NaN,
/// which yields 0), written so sixteen entries quantize as packed
/// arithmetic: adding 2²³ leaves no fraction bits, so `(x + 2²³) − 2²³` is
/// `x` rounded to the nearest integer with ties to even, exactly; the one
/// case where that differs from ties-away is a remainder of exactly `+½`;
/// and the result, an integer in `0..=255`, is the low byte of `r + 2²³`'s
/// bit pattern.
#[inline(always)]
fn round_to_u8(x: f32) -> u8 {
    const TWO23: f32 = 8_388_608.0;
    let x = if x > 255.0 { 255.0 } else { x };
    let even = (x + TWO23) - TWO23;
    let r = if x - even == 0.5 { even + 1.0 } else { even };
    (r + TWO23).to_bits() as u8
}

/// Product-quantized codes over a whole [`VectorStore`]: `m` subquantizer
/// codebooks plus nibble-packed code rows in 16-byte-strided,
/// 64-byte-based storage.
#[derive(Clone, Debug)]
pub struct PqStore {
    dim: usize,
    m: usize,
    dsub: usize,
    ncent: usize,
    stride: usize,
    len: usize,
    /// Group-major dimension map: subquantizer `j`'s `p`-th dimension is
    /// original dimension `perm[j*dsub + p]` (the variance-balanced snake
    /// deal from [`balanced_dim_order`]).
    perm: Vec<u32>,
    /// `m * dsub * KSUB` floats, dimension-major: coordinate `i` of
    /// subquantizer `j`'s centroid `c` at `[(j*dsub + i)*KSUB + c]` (lanes
    /// past `ncent` repeat lane 0 — see [`to_dim_major16`]).
    ct: Vec<f32>,
    codes: Vec<CodeLine>,
}

impl PqStore {
    /// Trains codebooks on (a deterministic sample of) `store` and encodes
    /// every row. `m` must divide the dimensionality; `None` resolves via
    /// [`pq_auto_m`].
    ///
    /// # Panics
    /// Panics if `store` is empty or `m` does not divide `dim`.
    pub fn from_store(store: &VectorStore, m: Option<usize>) -> Self {
        assert!(!store.is_empty(), "cannot quantize an empty store");
        let dim = store.dim();
        let m = m.unwrap_or_else(|| pq_auto_m(dim));
        assert!(
            m >= 1 && m <= dim && dim.is_multiple_of(m),
            "pq subquantizer count m={m} must divide dim={dim}"
        );
        let dsub = dim / m;
        let step = store.len().div_ceil(PQ_TRAIN_MAX);
        let train: Vec<u32> = (0..store.len() as u32).step_by(step).collect();
        let ncent = train.len().min(KSUB);
        let perm = balanced_dim_order(store, &train, m, dsub);
        let books = par_map(0, m, |j| {
            train_subquantizer(store, &train, &perm[j * dsub..(j + 1) * dsub], ncent)
        });
        let stride = pq_stride(m);
        let codes = encode_rows(store, &books, &perm, stride);
        // Collected through the same `Flatten` as always: `ct`'s capacity is
        // part of `heap_bytes`.
        let ct_blocks: Vec<Vec<f32>> = books.iter().map(|b| to_dim_major16(b, dsub)).collect();
        let ct: Vec<f32> = ct_blocks.into_iter().flatten().collect();
        Self { dim, m, dsub, ncent, stride, len: store.len(), perm, ct, codes }
    }

    /// Number of encoded vectors.
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

    /// Subquantizer count.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Live centroids per subquantizer (≤ 16; fewer only on tiny stores).
    #[inline]
    pub fn ncent(&self) -> usize {
        self.ncent
    }

    /// Bytes between consecutive row starts (a multiple of 16).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The full padded codebooks in persisted centroid-major order
    /// (`m * 16 * dsub` floats; centroid `c` of subquantizer `j` at
    /// `[(j*16 + c)*dsub ..][..dsub]`, rows past `ncent` zero), gathered
    /// from the dimension-major serving layout.
    pub fn centroids(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.ct.len()];
        for (j, rows) in out.chunks_exact_mut(KSUB * self.dsub).enumerate() {
            for (c, row) in rows.chunks_exact_mut(self.dsub).take(self.ncent).enumerate() {
                row.iter_mut().zip(self.centroid(j, c)).for_each(|(o, x)| *o = x);
            }
        }
        out
    }

    /// The group-major dimension permutation (`dim` entries; subquantizer
    /// `j`'s `p`-th dimension is original dimension `perm()[j*dsub + p]`).
    #[inline]
    pub fn perm(&self) -> &[u32] {
        &self.perm
    }

    /// Centroid `c` of subquantizer `j` (a stride-16 gather).
    #[inline]
    fn centroid(&self, j: usize, c: usize) -> impl Iterator<Item = f32> + '_ {
        let block = self.dsub * KSUB;
        self.ct[j * block..(j + 1) * block].iter().skip(c).step_by(KSUB).copied()
    }

    /// The full padded code row of vector `id` (`stride` bytes).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn code_row(&self, id: u32) -> &[u8] {
        let start = id as usize * self.stride;
        &lines_as_bytes(&self.codes)[start..start + self.stride]
    }

    /// Copies the logical code bytes into a packed `len * ceil(m/2)`
    /// buffer (padding stripped) — the persisted representation.
    pub fn to_packed_codes(&self) -> Vec<u8> {
        let row_bytes = self.m.div_ceil(2);
        let mut out = Vec::with_capacity(self.len * row_bytes);
        for id in 0..self.len as u32 {
            out.extend_from_slice(&self.code_row(id)[..row_bytes]);
        }
        out
    }

    /// Copies the store with code rows relabeled through `map`. Encoding
    /// is row-local under fixed codebooks, so the permuted rows are
    /// bit-identical to re-encoding the permuted vectors with this store's
    /// codebooks.
    pub fn permute(&self, map: &crate::reorder::IdRemap) -> PqStore {
        assert_eq!(map.len(), self.len, "remap covers a different vector count");
        let mut codes =
            vec![CodeLine([0u8; LINE_U8]); (self.len * self.stride).div_ceil(LINE_U8)];
        let src = lines_as_bytes(&self.codes);
        let dst = lines_as_bytes_mut(&mut codes);
        for new in 0..self.len {
            let old = map.to_old(new as u32) as usize;
            dst[new * self.stride..(new + 1) * self.stride]
                .copy_from_slice(&src[old * self.stride..old * self.stride + self.stride]);
        }
        Self { codes, perm: self.perm.clone(), ct: self.ct.clone(), ..*self }
    }

    /// Reconstructs vector `id` by scattering its assigned centroids back
    /// through the dimension permutation.
    pub fn decode(&self, id: u32) -> Vec<f32> {
        let row = self.code_row(id);
        let mut out = vec![0.0f32; self.dim];
        for j in 0..self.m {
            let c = ((row[j / 2] >> (4 * (j % 2))) & 0x0F) as usize;
            for (&d, x) in
                self.perm[j * self.dsub..(j + 1) * self.dsub].iter().zip(self.centroid(j, c))
            {
                out[d as usize] = x;
            }
        }
        out
    }

    /// Builds the per-query quantized distance LUT (see the module docs):
    /// exact `f32` tables per subquantizer, folded into a `u8` table with
    /// bias `Σ_j min_c T[j][c]` and shared scale `λ`, laid out chunk-major
    /// for the compare-select kernels. Padded subquantizers and dead
    /// centroid slots hold zero and are never selected by live codes.
    ///
    /// Row minima and the residual maximum are taken lane-wise (sixteen
    /// independent chains; order-free for the non-NaN values a finite
    /// query produces), the bias is summed in `j` order. On the AVX2 tier
    /// one vector pass (the `avx2` module's `prepare`) writes the same
    /// bytes, scale and bias as the scalar reference. Allocation-free once
    /// `out`'s buffers have grown to this store's geometry.
    ///
    /// # Panics
    /// Panics unless `query` has this store's dimension.
    pub fn prepare_into(&self, query: &[f32], out: &mut PreparedQuery) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        debug_assert!(query.iter().all(|x| x.is_finite()), "query components must be finite");
        self.size_prepared(out);
        #[cfg(target_arch = "x86_64")]
        if kernel_tier() >= TIER_AVX2 {
            // SAFETY: the tier is AVX2 only where CPUID reported AVX2; the
            // assert above and the resizes are the shapes the pass reads
            // and writes under, and `perm` is a permutation of `0..dim`.
            unsafe { avx2::prepare(self, query, out) };
            return;
        }
        self.prepare_scalar(query, out);
    }

    /// Sizes `out`'s buffers to this store's geometry: the LUT zeroed, the
    /// affine codecs' vectors empty.
    fn size_prepared(&self, out: &mut PreparedQuery) {
        out.u.clear();
        out.s.clear();
        out.lut.clear();
        out.lut.resize((self.stride / 16) * LUT_CHUNK, 0);
        out.qperm.resize(self.dim, 0.0);
        out.table.resize(self.m * KSUB, 0.0);
    }

    /// The scalar reference for [`Self::prepare_into`]'s pass, over buffers
    /// [`Self::size_prepared`] sized.
    fn prepare_scalar(&self, query: &[f32], out: &mut PreparedQuery) {
        for (q, &d) in out.qperm.iter_mut().zip(&self.perm) {
            *q = query[d as usize];
        }
        let mut bias = 0.0f32;
        let mut maxes = [0.0f32; KSUB];
        let subs =
            out.qperm.chunks_exact(self.dsub).zip(self.ct.chunks_exact(self.dsub * KSUB));
        for ((qsub, ct_j), row) in subs.zip(out.table.chunks_exact_mut(KSUB)) {
            let d = sub_dists16(qsub, ct_j);
            let mn = min16(&d);
            bias += mn;
            for c in 0..KSUB {
                row[c] = d[c] - mn;
                maxes[c] = if row[c] > maxes[c] { row[c] } else { maxes[c] };
            }
        }
        let maxres = maxes.iter().fold(0.0f32, |a, &b| if b > a { b } else { a });
        let inv = if maxres > 0.0 { 255.0 / maxres } else { 0.0 };
        // One 512-byte LUT chunk per 16 code bytes = 32 subquantizers; entry
        // `c` of the chunk's `jj`-th subquantizer sits at `c*32 + (jj odd)*16
        // + jj/2`.
        let chunks = out.table.chunks(32 * KSUB).zip(out.lut.chunks_exact_mut(LUT_CHUNK));
        for (rows, lut) in chunks {
            for (jj, row) in rows.chunks_exact(KSUB).enumerate() {
                let at = (jj % 2) * 16 + jj / 2;
                let bytes: [u8; KSUB] = std::array::from_fn(|c| round_to_u8(row[c] * inv));
                for (c, &b) in bytes[..self.ncent].iter().enumerate() {
                    lut[at + c * 32] = b;
                }
            }
        }
        out.lut_scale = maxres / 255.0;
        out.lut_bias = bias;
    }

    /// Code distance from a prepared query to vector `id`: exact integer
    /// LUT sum, mapped back through the query's scale and bias.
    ///
    /// # Panics
    /// Panics if `pq` was not prepared by a store of this geometry (its
    /// LUT does not cover a code row), or if `id` is out of bounds.
    #[inline]
    pub fn dist_prepared(&self, pq: &PreparedQuery, id: u32) -> f32 {
        let sum = pq_scan(&pq.lut, self.code_row(id));
        (sum as f32).mul_add(pq.lut_scale, pq.lut_bias)
    }

    /// Code distances to **two** vectors through [`pq_scan_pair`]
    /// (bit-identical to two [`Self::dist_prepared`] calls).
    #[inline]
    pub fn dist_prepared_pair(&self, pq: &PreparedQuery, ids: [u32; 2]) -> [f32; 2] {
        let sums = pq_scan_pair(&pq.lut, self.code_row(ids[0]), self.code_row(ids[1]));
        sums.map(|s| (s as f32).mul_add(pq.lut_scale, pq.lut_bias))
    }

    /// Code distances to **four** vectors at once (bit-identical to four
    /// [`Self::dist_prepared`] calls — the LUT sums are exact integers).
    #[inline]
    pub fn dist_prepared_batch(&self, pq: &PreparedQuery, ids: [u32; 4]) -> [f32; 4] {
        let sums = pq_scan_batch(
            &pq.lut,
            [
                self.code_row(ids[0]),
                self.code_row(ids[1]),
                self.code_row(ids[2]),
                self.code_row(ids[3]),
            ],
        );
        let mut out = [0.0f32; 4];
        for (o, s) in out.iter_mut().zip(sums) {
            *o = (s as f32).mul_add(pq.lut_scale, pq.lut_bias);
        }
        out
    }

    /// Hints the CPU to pull vector `id`'s code row into L1. Semantically
    /// a no-op.
    #[inline]
    pub fn prefetch(&self, id: u32) {
        crate::distance::prefetch_slice(self.code_row(id));
    }

    /// Heap bytes held by the codes, codebooks, and dimension map.
    pub fn heap_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<CodeLine>()
            + self.ct.capacity() * std::mem::size_of::<f32>()
            + self.perm.capacity() * std::mem::size_of::<u32>()
    }

    /// Re-encodes `store` under this store's codebooks (the commutation
    /// reference: `permute` must equal encode-after-permute).
    #[cfg(test)]
    fn reencode(&self, store: &VectorStore) -> PqStore {
        assert_eq!(store.dim(), self.dim);
        let books: Vec<Vec<f32>> = (0..self.m)
            .map(|j| (0..self.ncent).flat_map(|c| self.centroid(j, c)).collect())
            .collect();
        let codes = encode_rows(store, &books, &self.perm, self.stride);
        Self { codes, perm: self.perm.clone(), ct: self.ct.clone(), len: store.len(), ..*self }
    }
}

impl CodecStore for PqStore {
    fn spec(&self) -> CodecSpec {
        CodecSpec::Pq { m: Some(self.m) }
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
    fn dist_prepared_pair(&self, pq: &PreparedQuery, ids: [u32; 2]) -> [f32; 2] {
        self.dist_prepared_pair(pq, ids)
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        self.prefetch(id);
    }

    fn decode(&self, id: u32) -> Vec<f32> {
        self.decode(id)
    }

    fn permute(&self, map: &crate::reorder::IdRemap) -> Box<dyn CodecStore> {
        Box::new(PqStore::permute(self, map))
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

// --- LUT scan kernels ---------------------------------------------------

/// The precondition every scan kernel reads memory under: `codes` is whole
/// 16-byte chunks and `lut` holds exactly one 512-byte table chunk per code
/// chunk. Checked at every safe entry point, so a table prepared by another
/// store (or never prepared) is a panic, not an out-of-bounds read.
#[inline(always)]
fn check_scan(lut: &[u8], codes: &[u8]) {
    assert!(
        codes.len().is_multiple_of(16) && lut.len() == codes.len() * 32,
        "PQ scan of a {}-byte code row needs whole 16-byte chunks and a {}-byte LUT, got {} \
         (was the query prepared by this store?)",
        codes.len(),
        codes.len() * 32,
        lut.len()
    );
}

/// Scalar reference for [`pq_scan`]: per 16-byte code chunk, each byte's
/// two nibbles index the chunk's even/odd 16-entry tables. Pure integer —
/// the SIMD backends must (and do) match it exactly.
///
/// # Panics
/// Panics unless `codes` is whole 16-byte chunks and `lut` holds 32 bytes
/// per code byte.
#[inline]
pub fn pq_scan_scalar(lut: &[u8], codes: &[u8]) -> u32 {
    check_scan(lut, codes);
    let mut sum = 0u32;
    for (b, chunk) in codes.chunks_exact(16).enumerate() {
        let base = b * LUT_CHUNK;
        for (i, &byte) in chunk.iter().enumerate() {
            let lo = (byte & 0x0F) as usize;
            let hi = (byte >> 4) as usize;
            sum += lut[base + lo * 32 + i] as u32;
            sum += lut[base + hi * 32 + 16 + i] as u32;
        }
    }
    sum
}

/// Scalar reference for [`pq_scan_batch`].
#[inline]
pub fn pq_scan_batch_scalar(lut: &[u8], codes: [&[u8]; 4]) -> [u32; 4] {
    [
        pq_scan_scalar(lut, codes[0]),
        pq_scan_scalar(lut, codes[1]),
        pq_scan_scalar(lut, codes[2]),
        pq_scan_scalar(lut, codes[3]),
    ]
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 compare-select LUT scan: the 16 even-nibble codes ride the low
    //! 128-bit lane, the 16 odd-nibble codes the high lane, so one 256-bit
    //! load pulls entry `c`'s even+odd table rows and one
    //! `vpcmpeqb`+`vpand`+`vpor` sequence selects both halves at once.
    //! `vpsadbw` folds the selected bytes into 64-bit partials — exact
    //! integer arithmetic end to end.

    use core::arch::x86_64::*;

    #[inline(always)]
    unsafe fn sum_sad(acc: __m256i) -> u32 {
        let s = _mm_add_epi64(_mm256_castsi256_si128(acc), _mm256_extracti128_si256::<1>(acc));
        (_mm_cvtsi128_si64(s) + _mm_extract_epi64::<1>(s)) as u32
    }

    /// Loads one 16-byte code chunk with even nibbles in the low lane and
    /// odd nibbles in the high lane.
    #[inline(always)]
    unsafe fn load_nibbles(p: *const u8) -> __m256i {
        let cv = _mm_loadu_si128(p as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let lo = _mm_and_si128(cv, mask);
        let hi = _mm_and_si128(_mm_srli_epi16::<4>(cv), mask);
        _mm256_set_m128i(hi, lo)
    }

    /// Selects each lane's LUT entry for one chunk via 16 compare-select
    /// rounds (disjoint masks, so OR accumulates the selection).
    #[inline(always)]
    unsafe fn select_chunk(cb: __m256i, lp: *const u8) -> __m256i {
        let mut sel = _mm256_setzero_si256();
        for c in 0..16i8 {
            let eq = _mm256_cmpeq_epi8(cb, _mm256_set1_epi8(c));
            let row = _mm256_loadu_si256(lp.add(c as usize * 32) as *const __m256i);
            sel = _mm256_or_si256(sel, _mm256_and_si256(eq, row));
        }
        sel
    }

    /// # Safety
    /// The CPU supports AVX2; `codes` is whole 16-byte chunks and `lut`
    /// holds 32 bytes per code byte.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pq_scan(lut: &[u8], codes: &[u8]) -> u32 {
        debug_assert!(codes.len().is_multiple_of(16));
        debug_assert_eq!(lut.len(), codes.len() * 32);
        let mut acc = _mm256_setzero_si256();
        for (b, chunk) in codes.chunks_exact(16).enumerate() {
            let cb = load_nibbles(chunk.as_ptr());
            let sel = select_chunk(cb, lut.as_ptr().add(b * super::LUT_CHUNK));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(sel, _mm256_setzero_si256()));
        }
        sum_sad(acc)
    }

    /// # Safety
    /// As [`pq_scan`], for each of the four rows (all the same length).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn pq_scan_batch(lut: &[u8], codes: [&[u8]; 4]) -> [u32; 4] {
        for c in codes {
            debug_assert_eq!(c.len(), codes[0].len());
        }
        debug_assert!(codes[0].len().is_multiple_of(16));
        debug_assert_eq!(lut.len(), codes[0].len() * 32);
        let chunks = codes[0].len() / 16;
        let zero = _mm256_setzero_si256();
        let mut acc = [zero; 4];
        for b in 0..chunks {
            let lp = lut.as_ptr().add(b * super::LUT_CHUNK);
            let cb = [
                load_nibbles(codes[0].as_ptr().add(b * 16)),
                load_nibbles(codes[1].as_ptr().add(b * 16)),
                load_nibbles(codes[2].as_ptr().add(b * 16)),
                load_nibbles(codes[3].as_ptr().add(b * 16)),
            ];
            let mut sel = [zero; 4];
            for c in 0..16i8 {
                let bc = _mm256_set1_epi8(c);
                let row = _mm256_loadu_si256(lp.add(c as usize * 32) as *const __m256i);
                for v in 0..4 {
                    sel[v] = _mm256_or_si256(
                        sel[v],
                        _mm256_and_si256(_mm256_cmpeq_epi8(cb[v], bc), row),
                    );
                }
            }
            for v in 0..4 {
                acc[v] = _mm256_add_epi64(acc[v], _mm256_sad_epu8(sel[v], zero));
            }
        }
        [sum_sad(acc[0]), sum_sad(acc[1]), sum_sad(acc[2]), sum_sad(acc[3])]
    }

    /// Lane `l` of a transposed chunk comes from input vector `BITREV[l]`:
    /// the four unpack rounds of [`transpose16`] leave row `r` at byte
    /// `r` bit-reversed, so the rows go in bit-reversed.
    const BITREV: [usize; 16] = [0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15];

    /// [`super::PqStore::prepare_scalar`] as one AVX2 pass, with the same
    /// float operations in the same order per entry: the gather through
    /// `perm`; per subquantizer the [`sub_dists16`](crate::distance::sub_dists16)
    /// lanes kept in registers, their minimum through `min16`'s tree
    /// (`vminps` is the strict-`<` select), the residuals and the
    /// lane-wise running maxima (`vmaxps`, the strict-`>` select), the
    /// bias summed in `j` order; then per 32-subquantizer chunk
    /// `round_to_u8` on sixteen entries at a time, packed into one vector
    /// per subquantizer pair (even `jj` in the low half, odd in the high),
    /// and one in-lane byte transpose that turns the sixteen pair vectors
    /// into the chunk's sixteen 32-byte entry rows.
    ///
    /// # Safety
    /// The CPU supports AVX2; `query` holds `store.dim` floats, `out.qperm`
    /// `dim`, `out.table` `m * KSUB` and `out.lut` one `LUT_CHUNK` per code
    /// chunk, and every `perm` entry is below `dim`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn prepare(
        store: &super::PqStore,
        query: &[f32],
        out: &mut super::PreparedQuery,
    ) {
        use super::{KSUB, LUT_CHUNK};
        let (m, dsub) = (store.m, store.dsub);
        debug_assert_eq!(query.len(), store.dim);
        debug_assert_eq!(out.qperm.len(), store.dim);
        debug_assert_eq!(out.table.len(), m * KSUB);
        debug_assert_eq!(out.lut.len(), store.stride / 16 * LUT_CHUNK);
        debug_assert!(store.perm.iter().all(|&d| (d as usize) < query.len()));
        for (q, &d) in out.qperm.iter_mut().zip(&store.perm) {
            // SAFETY: every `perm` entry is below `dim = query.len()`.
            *q = *query.get_unchecked(d as usize);
        }
        let mut bias = 0.0f32;
        let mut maxes = [_mm256_setzero_ps(); 2];
        let subs = out.qperm.chunks_exact(dsub).zip(store.ct.chunks_exact(dsub * KSUB));
        for ((qsub, ct_j), row) in subs.zip(out.table.chunks_exact_mut(KSUB)) {
            let d = crate::distance::avx2::sub_dists16_ymm(qsub, ct_j);
            let mn = min16(d);
            bias += mn;
            let mnv = _mm256_set1_ps(mn);
            let res = [_mm256_sub_ps(d[0], mnv), _mm256_sub_ps(d[1], mnv)];
            _mm256_storeu_ps(row.as_mut_ptr(), res[0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), res[1]);
            maxes = [_mm256_max_ps(res[0], maxes[0]), _mm256_max_ps(res[1], maxes[1])];
        }
        let mut lanes = [0.0f32; KSUB];
        _mm256_storeu_ps(lanes.as_mut_ptr(), maxes[0]);
        _mm256_storeu_ps(lanes.as_mut_ptr().add(8), maxes[1]);
        let maxres = lanes.iter().fold(0.0f32, |a, &b| if b > a { b } else { a });
        let inv = _mm256_set1_ps(if maxres > 0.0 { 255.0 / maxres } else { 0.0 });
        let live: [u8; 32] =
            std::array::from_fn(|i| if i % 16 < store.ncent { 0xFF } else { 0 });
        let live = _mm256_loadu_si256(live.as_ptr().cast());
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        for (k, lut) in out.lut.chunks_exact_mut(LUT_CHUNK).enumerate() {
            let mut rows = [_mm256_setzero_si256(); 16];
            for (l, &slot) in BITREV.iter().enumerate() {
                let j = 32 * k + 2 * l;
                let (e, o) =
                    (quantize16(&out.table, j, m, inv), quantize16(&out.table, j + 1, m, inv));
                // Words [e0-3 e8-11 | e4-7 e12-15] and the same of `o`;
                // bytes [e0-3 e8-11 o0-3 o8-11 | e4-7 e12-15 o4-7 o12-15],
                // put in entry order by one dword permute.
                let bytes = _mm256_packus_epi16(
                    _mm256_packus_epi32(e[0], e[1]),
                    _mm256_packus_epi32(o[0], o[1]),
                );
                rows[slot] = _mm256_and_si256(_mm256_permutevar8x32_epi32(bytes, order), live);
            }
            transpose16(&mut rows);
            debug_assert_eq!(lut.len(), 16 * 32);
            for (c, row) in rows.iter().enumerate() {
                // SAFETY: entry row `c` is bytes `c*32 ..+ 32` of the
                // 512-byte chunk.
                _mm256_storeu_si256(lut.as_mut_ptr().add(c * 32).cast(), *row);
            }
        }
        out.lut_scale = maxres / 255.0;
        out.lut_bias = bias;
    }

    /// `min16` of the two halves: `vminps(a, b)` is `a < b ? a : b`, the
    /// scalar select, taken over the same pairs.
    #[inline(always)]
    unsafe fn min16(d: [__m256; 2]) -> f32 {
        let h8 = _mm256_min_ps(d[0], d[1]);
        let h4 = _mm_min_ps(_mm256_castps256_ps128(h8), _mm256_extractf128_ps::<1>(h8));
        let h2 = _mm_min_ps(h4, _mm_movehl_ps(h4, h4));
        _mm_cvtss_f32(_mm_min_ss(h2, _mm_shuffle_ps::<0b01>(h2, h2)))
    }

    /// Row `j` of `table` times `inv` through `round_to_u8`, each byte in
    /// the low bits of its `i32` lane (entries 0–7, then 8–15); zero for a
    /// padded subquantizer (`j ≥ m`).
    #[inline(always)]
    unsafe fn quantize16(table: &[f32], j: usize, m: usize, inv: __m256) -> [__m256i; 2] {
        if j >= m {
            return [_mm256_setzero_si256(); 2];
        }
        debug_assert!(table.len() >= (j + 1) * super::KSUB);
        // SAFETY: row `j < m` is floats `16j ..+ 16` of the `16m`-float table.
        let row = table.as_ptr().add(j * super::KSUB);
        [
            round_to_u8(_mm256_mul_ps(_mm256_loadu_ps(row), inv)),
            round_to_u8(_mm256_mul_ps(_mm256_loadu_ps(row.add(8)), inv)),
        ]
    }

    /// `super::round_to_u8` on eight lanes, operation for operation: the
    /// saturation (`vminps(255, x)` is `x > 255 ? 255 : x`), the 2²³
    /// round trip, the `+½` tie fix-up, and the low byte of `r + 2²³`.
    #[inline(always)]
    unsafe fn round_to_u8(x: __m256) -> __m256i {
        let two23 = _mm256_set1_ps(8_388_608.0);
        let x = _mm256_min_ps(_mm256_set1_ps(255.0), x);
        let even = _mm256_sub_ps(_mm256_add_ps(x, two23), two23);
        let tie = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_sub_ps(x, even), _mm256_set1_ps(0.5));
        let r = _mm256_blendv_ps(even, _mm256_add_ps(even, _mm256_set1_ps(1.0)), tie);
        _mm256_and_si256(_mm256_castps_si256(_mm256_add_ps(r, two23)), _mm256_set1_epi32(0xFF))
    }

    /// Transposes each 128-bit half of sixteen vectors as a 16 × 16 byte
    /// matrix: four rounds of interleaving vector `i` with vector `i + 8`
    /// (bytes, words, dwords, quadwords), after which vector `c` holds
    /// byte `c` of every input, input `i` at byte `i` bit-reversed.
    #[inline(always)]
    unsafe fn transpose16(r: &mut [__m256i; 16]) {
        macro_rules! round {
            ($lo:ident, $hi:ident) => {{
                let s = *r;
                for i in 0..8 {
                    r[2 * i] = $lo(s[i], s[i + 8]);
                    r[2 * i + 1] = $hi(s[i], s[i + 8]);
                }
            }};
        }
        round!(_mm256_unpacklo_epi8, _mm256_unpackhi_epi8);
        round!(_mm256_unpacklo_epi16, _mm256_unpackhi_epi16);
        round!(_mm256_unpacklo_epi32, _mm256_unpackhi_epi32);
        round!(_mm256_unpacklo_epi64, _mm256_unpackhi_epi64);
    }
}

#[cfg(target_arch = "x86_64")]
mod vbmi {
    //! AVX-512 VBMI table-lookup LUT scan over **two** code rows, one per
    //! 256-bit half of a zmm, each half laid out like the AVX2 kernel's
    //! ymm: lane `L` < 16 holds byte `L`'s even-subquantizer (low) nibble,
    //! lane `16 + i` byte `i`'s odd (high) nibble. A chunk's 512-byte table
    //! is four 128-byte groups of four entries (`c = 4g .. 4g + 3`), and
    //! `vpermi2b` looks a lane up inside one group with index
    //! `(c & 3) << 5 | L` — byte `g·128 + (c & 3)·32 + L`, i.e. exactly
    //! `lut[chunk·512 + c·32 + L]`. Each group's lookup is merge-masked to
    //! the lanes whose code lies in it (`c >> 2 == g`) and writes over the
    //! index register itself, so every lane is written exactly once and a
    //! lane not yet written still holds its index for the later groups.
    //! `vpsadbw` folds the selected bytes into `u64` lanes (0–3 row `a`,
    //! 4–7 row `b`) — exact integer sums, so the result is the scalar
    //! reference's by construction.

    use core::arch::x86_64::*;

    /// `i & 31` for every byte lane `i`: a lane's position within its row.
    const LANE: [u8; 64] = {
        let mut lane = [0u8; 64];
        let mut i = 0;
        while i < 64 {
            lane[i] = (i & 31) as u8;
            i += 1;
        }
        lane
    };

    /// # Safety
    /// The CPU supports AVX-512F, AVX-512BW and AVX-512VBMI; `a` and `b`
    /// are the same length, whole 16-byte chunks, and `lut` holds 32
    /// bytes per code byte.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub(super) unsafe fn pq_scan_pair(lut: &[u8], a: &[u8], b: &[u8]) -> [u32; 2] {
        debug_assert!(a.len() == b.len() && a.len().is_multiple_of(16));
        debug_assert_eq!(lut.len(), a.len() * 32);
        let nibble = _mm512_set1_epi8(0x0F);
        let lane = _mm512_loadu_si512(LANE.as_ptr().cast());
        let mut acc = _mm512_setzero_si512();
        for k in 0..a.len() / 16 {
            // 128-bit lanes [a, a, b, b]; the second copy of each row is
            // shifted down to its odd nibbles.
            let ra =
                _mm256_broadcastsi128_si256(_mm_loadu_si128(a.as_ptr().add(k * 16).cast()));
            let rb =
                _mm256_broadcastsi128_si256(_mm_loadu_si128(b.as_ptr().add(k * 16).cast()));
            let rows = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(ra), rb);
            let c =
                _mm512_and_si512(_mm512_mask_srli_epi16::<4>(rows, 0xFF00_FF00, rows), nibble);
            // `(c & 3) << 5 | L` (0xEA: `(x & y) | z`), and `c & 0b1100`.
            let mut sel = _mm512_ternarylogic_epi32::<0xEA>(
                _mm512_slli_epi16::<5>(c),
                _mm512_set1_epi8(0x60),
                lane,
            );
            let group = _mm512_and_si512(c, _mm512_set1_epi8(0x0C));
            let lp = lut.as_ptr().add(k * super::LUT_CHUNK);
            for g in 0..4 {
                let t0 = _mm512_loadu_si512(lp.add(g * 128).cast());
                let t1 = _mm512_loadu_si512(lp.add(g * 128 + 64).cast());
                let in_g = _mm512_cmpeq_epi8_mask(group, _mm512_set1_epi8(4 * g as i8));
                sel = _mm512_mask2_permutex2var_epi8(t0, sel, in_g, t1);
            }
            acc = _mm512_add_epi64(acc, _mm512_sad_epu8(sel, _mm512_setzero_si512()));
        }
        [
            _mm512_mask_reduce_add_epi64(0x0F, acc) as u32,
            _mm512_mask_reduce_add_epi64(0xF0, acc) as u32,
        ]
    }
}

/// Integer LUT sum of one code row against a prepared query table,
/// dispatched to the best available kernel (all backends exact — the sum
/// is the same `u32` everywhere). `codes` is a whole number of 16-byte
/// chunks; `lut` holds 512 bytes per chunk in the layout documented in
/// the module docs. On AVX-512 VBMI hosts the row runs through the pair
/// kernel as a pair with itself.
///
/// # Panics
/// Panics unless `codes` is whole 16-byte chunks and `lut` holds 32 bytes
/// per code byte.
#[inline]
pub fn pq_scan(lut: &[u8], codes: &[u8]) -> u32 {
    check_scan(lut, codes);
    #[cfg(target_arch = "x86_64")]
    match kernel_tier() {
        // SAFETY: the tier is VBMI only where CPUID reported AVX-512
        // F/BW/VBMI; `check_scan` established the lengths the kernel reads
        // under.
        TIER_VBMI => return unsafe { vbmi::pq_scan_pair(lut, codes, codes)[0] },
        // SAFETY: the tier is AVX2 only where CPUID reported AVX2;
        // `check_scan` established the lengths the kernel reads under.
        TIER_AVX2 => return unsafe { avx2::pq_scan(lut, codes) },
        _ => {}
    }
    pq_scan_scalar(lut, codes)
}

/// [`pq_scan`] against **four** code rows at once, sharing the broadcast
/// and table loads (two pair-kernel calls on VBMI hosts). Identical
/// results to four separate calls.
///
/// # Panics
/// As [`pq_scan`], for any of the four rows.
#[inline]
pub fn pq_scan_batch(lut: &[u8], codes: [&[u8]; 4]) -> [u32; 4] {
    for row in codes {
        check_scan(lut, row);
    }
    #[cfg(target_arch = "x86_64")]
    match kernel_tier() {
        // SAFETY: VBMI as in `pq_scan`; `check_scan` established every
        // row's length.
        TIER_VBMI => unsafe {
            let [s0, s1] = vbmi::pq_scan_pair(lut, codes[0], codes[1]);
            let [s2, s3] = vbmi::pq_scan_pair(lut, codes[2], codes[3]);
            return [s0, s1, s2, s3];
        },
        // SAFETY: AVX2 as in `pq_scan`; `check_scan` established every
        // row's length.
        TIER_AVX2 => return unsafe { avx2::pq_scan_batch(lut, codes) },
        _ => {}
    }
    pq_scan_batch_scalar(lut, codes)
}

/// [`pq_scan`] against **two** code rows: one VBMI kernel call for both on
/// hosts that have it, two single-row scans everywhere else. Identical
/// results to two separate calls.
///
/// # Panics
/// As [`pq_scan`], for either row.
#[inline]
pub fn pq_scan_pair(lut: &[u8], a: &[u8], b: &[u8]) -> [u32; 2] {
    check_scan(lut, a);
    check_scan(lut, b);
    #[cfg(target_arch = "x86_64")]
    if kernel_tier() == TIER_VBMI {
        // SAFETY: VBMI as in `pq_scan`; `check_scan` established both
        // rows' lengths.
        return unsafe { vbmi::pq_scan_pair(lut, a, b) };
    }
    [pq_scan(lut, a), pq_scan(lut, b)]
}

/// The AVX2 compare-select kernel alone, bypassing dispatch (kernel
/// benchmarks and tests compare it with the VBMI kernel); `None` when the
/// CPU lacks AVX2 and FMA.
///
/// # Panics
/// As [`pq_scan`].
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn pq_scan_avx2(lut: &[u8], codes: &[u8]) -> Option<u32> {
    check_scan(lut, codes);
    // SAFETY: `native_tier` read AVX2 from CPUID; lengths checked above.
    (native_tier() >= TIER_AVX2).then(|| unsafe { avx2::pq_scan(lut, codes) })
}

/// The VBMI pair kernel alone, bypassing dispatch; `None` when the CPU
/// lacks AVX-512F/BW/VBMI.
///
/// # Panics
/// As [`pq_scan`], for either row.
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn pq_scan_pair_vbmi(lut: &[u8], a: &[u8], b: &[u8]) -> Option<[u32; 2]> {
    check_scan(lut, a);
    check_scan(lut, b);
    // SAFETY: `native_tier` read AVX-512 F/BW/VBMI from CPUID; lengths
    // checked above.
    (native_tier() == TIER_VBMI).then(|| unsafe { vbmi::pq_scan_pair(lut, a, b) })
}

/// PQ as it stood before the 16-centroid kernel — centroid-major
/// codebooks, one dispatched `l2_sq` per point–centroid pair, serial
/// `f32::min`/`max` folds, per-entry `round().clamp() as u8` — with the
/// arithmetic kept verbatim: the oracle the dimension-major implementation
/// must reproduce bit for bit.
#[cfg(test)]
mod oracle {
    use super::{balanced_dim_order, pq_auto_m, pq_stride, KSUB, LUT_CHUNK, PQ_KMEANS_ITERS};
    use crate::distance::l2_sq;
    use crate::store::VectorStore;

    pub(super) struct Oracle {
        pub m: usize,
        dsub: usize,
        pub ncent: usize,
        stride: usize,
        pub perm: Vec<u32>,
        /// `[j][c][i]`, zero-padded to `KSUB` rows per subquantizer.
        pub centroids: Vec<f32>,
        /// `ceil(m/2)` bytes per row.
        pub packed: Vec<u8>,
    }

    impl Oracle {
        pub(super) fn train(store: &VectorStore, m: Option<usize>) -> Self {
            let dim = store.dim();
            let m = m.unwrap_or_else(|| pq_auto_m(dim));
            let dsub = dim / m;
            let train: Vec<u32> = (0..store.len() as u32).collect();
            let ncent = train.len().min(KSUB);
            let perm = balanced_dim_order(store, &train, m, dsub);
            let mut centroids = Vec::new();
            for j in 0..m {
                let perm_j = &perm[j * dsub..(j + 1) * dsub];
                let tv: Vec<f32> = train
                    .iter()
                    .flat_map(|&id| {
                        let row = store.get(id);
                        perm_j.iter().map(move |&d| row[d as usize])
                    })
                    .collect();
                let mut block =
                    crate::kmeans::maximin_lloyd_reference(&tv, dsub, ncent, PQ_KMEANS_ITERS);
                block.resize(KSUB * dsub, 0.0);
                centroids.extend(block);
            }
            let mut packed = Vec::new();
            for i in 0..store.len() {
                let row = store.get(i as u32);
                let mut sv = vec![0.0f32; dsub];
                let mut code = vec![0u8; m.div_ceil(2)];
                for j in 0..m {
                    for (s, &d) in sv.iter_mut().zip(&perm[j * dsub..(j + 1) * dsub]) {
                        *s = row[d as usize];
                    }
                    let v = &sv[..];
                    let base = j * KSUB * dsub;
                    let (mut best, mut best_d) = (0usize, f32::INFINITY);
                    for c in 0..ncent {
                        let d = l2_sq(v, &centroids[base + c * dsub..base + (c + 1) * dsub]);
                        if d < best_d {
                            best_d = d;
                            best = c;
                        }
                    }
                    code[j / 2] |= (best as u8) << (4 * (j % 2));
                }
                packed.extend(code);
            }
            Self { m, dsub, ncent, stride: pq_stride(m), perm, centroids, packed }
        }

        fn centroid(&self, j: usize, c: usize) -> &[f32] {
            let start = (j * KSUB + c) * self.dsub;
            &self.centroids[start..start + self.dsub]
        }

        /// The quantized table with its scale and bias.
        pub(super) fn prepare(&self, query: &[f32]) -> (Vec<u8>, f32, f32) {
            let mut lut = vec![0u8; (self.stride / 16) * LUT_CHUNK];
            let mut table = vec![0.0f32; self.m * KSUB];
            let mut qsub = vec![0.0f32; self.dsub];
            let mut bias = 0.0f32;
            let mut maxres = 0.0f32;
            for j in 0..self.m {
                for (s, &d) in
                    qsub.iter_mut().zip(&self.perm[j * self.dsub..(j + 1) * self.dsub])
                {
                    *s = query[d as usize];
                }
                let row = &mut table[j * KSUB..j * KSUB + self.ncent];
                let mut mn = f32::INFINITY;
                for (c, slot) in row.iter_mut().enumerate() {
                    let d = l2_sq(&qsub, self.centroid(j, c));
                    *slot = d;
                    mn = mn.min(d);
                }
                bias += mn;
                for slot in row.iter_mut() {
                    *slot -= mn;
                    maxres = maxres.max(*slot);
                }
            }
            let inv = if maxres > 0.0 { 255.0 / maxres } else { 0.0 };
            for j in 0..self.m {
                // Chunk of 16 code bytes, lane within it, even/odd half.
                let (chunk, lane, half) = (j / 32, (j % 32) / 2, j % 2);
                let base = chunk * LUT_CHUNK + half * 16 + lane;
                for c in 0..self.ncent {
                    let q = (table[j * KSUB + c] * inv).round().clamp(0.0, 255.0) as u8;
                    lut[base + c * 32] = q;
                }
            }
            (lut, maxres / 255.0, bias)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::Oracle;
    use super::*;

    fn ramp_store(n: usize, dim: usize) -> VectorStore {
        let mut s = VectorStore::new(dim);
        for i in 0..n {
            let row: Vec<f32> =
                (0..dim).map(|d| ((i * 31 + d * 7) as f32 * 0.37).sin() * 3.0).collect();
            s.push(&row);
        }
        s
    }

    /// A store with per-row, per-dimension structure at several scales
    /// (so variances, and hence the dimension deal, are not degenerate).
    fn mixed_store(n: usize, dim: usize, seed: u32) -> VectorStore {
        let mut state = seed;
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let row: Vec<f32> = (0..dim)
                .map(|d| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    ((state >> 8) as f32 / (1u32 << 24) as f32 - 0.5) * (1.0 + (d % 7) as f32)
                })
                .collect();
            s.push(&row);
        }
        s
    }

    #[test]
    fn codebooks_codes_and_tables_match_the_oracle_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Single- and multi-chunk tables, dsub below / at / above one
        // kernel chunk (1, 4, 5, 6, 64), stores too small for 16 centroids.
        for (dim, m) in [(96, 16), (100, 20), (128, 32), (960, 160), (7, 7), (64, 1)] {
            for n in [1usize, 5, 16, 40] {
                let store = mixed_store(n, dim, (dim * 31 + n) as u32);
                let (pq, want) =
                    (PqStore::from_store(&store, Some(m)), Oracle::train(&store, Some(m)));
                let label = format!("dim={dim} m={m} n={n}");
                assert_eq!((pq.m(), pq.ncent()), (want.m, want.ncent), "{label}");
                assert_eq!(pq.perm(), &want.perm[..], "{label}");
                assert_eq!(bits(&pq.centroids()), bits(&want.centroids), "{label}: codebooks");
                assert_eq!(pq.to_packed_codes(), want.packed, "{label}: codes");
                let mut prepared = PreparedQuery::default();
                for q in 0..3u32 {
                    let query = mixed_store(1, dim, 1000 + q);
                    pq.prepare_into(query.get(0), &mut prepared);
                    let (lut, scale, bias) = want.prepare(query.get(0));
                    assert_eq!(prepared.lut(), &lut[..], "{label} query {q}: table");
                    assert_eq!(
                        prepared.lut_scale().to_bits(),
                        scale.to_bits(),
                        "{label}: scale"
                    );
                    assert_eq!(prepared.lut_bias().to_bits(), bias.to_bits(), "{label}: bias");
                }
            }
        }
    }

    #[test]
    fn constant_store_folds_to_an_all_zero_table() {
        // Every row equal: every centroid equal, every residual zero.
        let store = VectorStore::from_flat(12, [1.5f32, -2.0, 0.25].repeat(4 * 20));
        let (pq, want) = (PqStore::from_store(&store, Some(4)), Oracle::train(&store, Some(4)));
        assert_eq!(pq.centroids(), want.centroids);
        assert_eq!(pq.to_packed_codes(), want.packed);
        let mut prepared = PreparedQuery::default();
        for query in [[1.5f32, -2.0, 0.25].repeat(4), vec![0.0; 12], vec![9.0; 12]] {
            pq.prepare_into(&query, &mut prepared);
            let (lut, scale, bias) = want.prepare(&query);
            assert!(lut.iter().all(|&b| b == 0) && scale == 0.0, "maxres must be zero");
            assert_eq!(prepared.lut(), &lut[..]);
            assert_eq!(prepared.lut_scale().to_bits(), scale.to_bits());
            assert_eq!(prepared.lut_bias().to_bits(), bias.to_bits());
        }
    }

    #[test]
    fn round_to_u8_is_round_half_away_saturated() {
        let want = |x: f32| x.round().clamp(0.0, 255.0) as u8;
        for k in 0..=255u32 {
            let tie = k as f32 + 0.5;
            for x in [k as f32, tie.next_down(), tie, tie.next_up()] {
                assert_eq!(round_to_u8(x), want(x), "x = {x:?}");
            }
        }
        // Every 1/4096 step of [0, 256), plus what a table entry scaled by
        // a rounded-up `255 / maxres` can overshoot to.
        for i in 0..(256u32 << 12) {
            let x = i as f32 / 4096.0;
            assert_eq!(round_to_u8(x), want(x), "x = {x:?}");
        }
        for x in [255.0f32.next_up(), 255.5, 256.0, 1e9, f32::INFINITY, f32::NAN] {
            assert_eq!(round_to_u8(x), want(x), "x = {x:?}");
        }
    }

    /// The AVX2 prepare pass against the scalar reference on Deep-96
    /// (m = 16: one chunk, half of it padding), Gist-960 (m = 160: five
    /// full chunks) and two odd geometries (an odd `m`; a store too small
    /// for 16 centroids): the same LUT bytes, scale and bias for random
    /// queries, stored rows (zero residuals), and queries scaled far out.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_prepare_matches_the_scalar_reference() {
        if native_tier() < TIER_AVX2 {
            println!("no AVX2 on this CPU: nothing to compare");
            return;
        }
        for (dim, m, n) in [(96, 16, 400), (960, 160, 200), (7, 7, 40), (100, 20, 9)] {
            let store = mixed_store(n, dim, dim as u32 * 3);
            let pq = PqStore::from_store(&store, Some(m));
            let (mut fast, mut slow) = (PreparedQuery::default(), PreparedQuery::default());
            for q in 0..24u32 {
                let query: Vec<f32> = match q % 3 {
                    0 => mixed_store(1, dim, 7000 + q).get(0).to_vec(),
                    1 => store.get(q % n as u32).to_vec(),
                    _ => mixed_store(1, dim, 9000 + q).get(0).iter().map(|x| x * 1e3).collect(),
                };
                pq.size_prepared(&mut slow);
                pq.prepare_scalar(&query, &mut slow);
                pq.size_prepared(&mut fast);
                fast.lut.fill(0xA5);
                // SAFETY: CPUID reported AVX2, and `size_prepared` sized
                // the buffers for this store and its `dim`-float query.
                unsafe { avx2::prepare(&pq, &query, &mut fast) };
                let label = format!("dim={dim} m={m} n={n} query {q}");
                assert_eq!(fast.lut, slow.lut, "{label}: table");
                assert_eq!(
                    fast.lut_scale.to_bits(),
                    slow.lut_scale.to_bits(),
                    "{label}: scale"
                );
                assert_eq!(fast.lut_bias.to_bits(), slow.lut_bias.to_bits(), "{label}: bias");
            }
        }
    }

    #[test]
    fn prepare_into_allocates_nothing_after_the_first_call() {
        let store = mixed_store(40, 96, 3);
        let pq = PqStore::from_store(&store, None);
        let mut prepared = PreparedQuery::default();
        pq.prepare_into(store.get(0), &mut prepared);
        let buffers = |p: &PreparedQuery| {
            [
                (p.lut.as_ptr() as usize, p.lut.capacity()),
                (p.qperm.as_ptr() as usize, p.qperm.capacity()),
                (p.table.as_ptr() as usize, p.table.capacity()),
                (p.u.as_ptr() as usize, p.u.capacity()),
                (p.s.as_ptr() as usize, p.s.capacity()),
            ]
        };
        let before = buffers(&prepared);
        for i in 0..100u32 {
            pq.prepare_into(store.get(i % 40), &mut prepared);
            assert_eq!(buffers(&prepared), before, "call {i} moved or grew a buffer");
        }
    }

    /// The precondition is finiteness; a caller inside the process that
    /// breaks it gets meaningless distances, never a panic or a wild read
    /// (debug builds assert the precondition instead).
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "must be finite"))]
    fn non_finite_query_does_not_panic_in_release() {
        use crate::distance::{DistCounter, QuantView, Space};
        let store = mixed_store(200, 24, 5);
        let pq = PqStore::from_store(&store, Some(4));
        let mut graph = crate::graph::AdjacencyGraph::new(200);
        for u in 0..200u32 {
            for step in [1, 7, 31] {
                graph.add_edge(u, (u + step) % 200);
            }
        }
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter).with_quant(Some(QuantView::new(&pq, 4)));
        let mut scratch = crate::search::SearchScratch::new(200, 16);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut query = store.get(3).to_vec();
            query[5] = bad;
            let mut prepared = PreparedQuery::default();
            pq.prepare_into(&query, &mut prepared);
            let _ = pq.dist_prepared(&prepared, 0);
            let res =
                crate::search::beam_search(&graph, space, &query, &[0], 5, 16, &mut scratch);
            assert!(res.neighbors.len() <= 5);
        }
    }

    #[test]
    fn auto_m_picks_divisor_near_dim_over_six() {
        assert_eq!(pq_auto_m(960), 160);
        assert_eq!(pq_auto_m(96), 16);
        assert_eq!(pq_auto_m(100), 20);
        assert_eq!(pq_auto_m(128), 16);
        assert_eq!(pq_auto_m(25), 5);
        assert_eq!(pq_auto_m(1), 1);
        for dim in 1usize..=300 {
            let m = pq_auto_m(dim);
            assert!(dim % m == 0, "dim={dim} m={m}");
        }
    }

    #[test]
    fn rows_are_chunk_padded_and_aligned() {
        let store = ramp_store(20, 96); // auto m = 16 -> 8 packed bytes -> stride 16
        let q = PqStore::from_store(&store, None);
        assert_eq!(q.m(), 16);
        assert_eq!(q.stride(), 16);
        assert_eq!(q.len(), 20);
        for id in 0..20u32 {
            assert_eq!(q.code_row(id).as_ptr() as usize % 16, 0, "row {id} misaligned");
            assert!(q.code_row(id)[8..].iter().all(|&b| b == 0), "padding must be zero");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let store = ramp_store(50, 24);
        let a = PqStore::from_store(&store, Some(4));
        let b = PqStore::from_store(&store, Some(4));
        assert_eq!(a.centroids(), b.centroids());
        for id in 0..50u32 {
            assert_eq!(a.code_row(id), b.code_row(id), "row {id}");
        }
    }

    #[test]
    fn single_vector_store_decodes_exactly() {
        let store = VectorStore::from_flat(6, vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0]);
        let q = PqStore::from_store(&store, Some(2));
        assert_eq!(q.ncent(), 1);
        assert_eq!(q.decode(0), vec![1.0, -2.0, 0.5, 3.0, 4.0, -1.0]);
        // With one centroid the scale degenerates and the LUT distance is
        // exactly the distance to the decode.
        let query = [0.5f32, 0.0, 1.0, -1.0, 2.0, 0.0];
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        assert_eq!(pq.lut_scale(), 0.0);
        let d = q.dist_prepared(&pq, 0);
        let exact = crate::distance::l2_sq(&query, &q.decode(0));
        assert!((d - exact).abs() <= exact.abs() * 1e-5 + 1e-5, "{d} vs {exact}");
    }

    #[test]
    fn lut_distance_tracks_decoded_distance_within_quantization() {
        let store = ramp_store(64, 24);
        let q = PqStore::from_store(&store, Some(4));
        let query: Vec<f32> = (0..24).map(|d| ((d * 13) as f32 * 0.21).cos() * 2.5).collect();
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        for id in 0..64u32 {
            let lut_d = q.dist_prepared(&pq, id);
            let exact = crate::distance::l2_sq(&query, &q.decode(id));
            // Each subquantizer's table entry rounds within λ/2.
            let tol = q.m() as f32 * pq.lut_scale() * 0.5 + exact.abs() * 1e-4 + 1e-3;
            assert!((lut_d - exact).abs() <= tol, "id={id}: {lut_d} vs {exact} (tol {tol})");
        }
    }

    #[test]
    fn batch_is_identical_to_single() {
        let store = ramp_store(10, 20);
        let q = PqStore::from_store(&store, Some(5));
        let query: Vec<f32> = (0..20).map(|d| (d as f32 * 0.11).sin()).collect();
        let mut pq = PreparedQuery::default();
        q.prepare_into(&query, &mut pq);
        let batch = q.dist_prepared_batch(&pq, [0, 3, 5, 9]);
        for (i, id) in [0u32, 3, 5, 9].into_iter().enumerate() {
            assert_eq!(batch[i].to_bits(), q.dist_prepared(&pq, id).to_bits());
        }
    }

    #[test]
    fn dispatched_scan_matches_scalar_exactly() {
        // Kernel-level agreement across every auto-resolved geometry for
        // dims 1..=200: synthetic LUTs and code rows, exact u32 sums.
        for dim in (1usize..=200).chain([256, 960]) {
            let m = pq_auto_m(dim);
            let stride = pq_stride(m);
            let lut: Vec<u8> =
                (0..(stride / 16) * LUT_CHUNK).map(|i| ((i * 73 + 11) % 256) as u8).collect();
            let rows: Vec<Vec<u8>> = (0..4)
                .map(|v| (0..stride).map(|i| ((i * 37 + v * 91 + dim) % 256) as u8).collect())
                .collect();
            let refs = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            assert_eq!(pq_scan(&lut, refs[0]), pq_scan_scalar(&lut, refs[0]), "dim={dim}");
            assert_eq!(
                pq_scan_batch(&lut, refs),
                pq_scan_batch_scalar(&lut, refs),
                "dim={dim} m={m}"
            );
        }
    }

    /// Scalar, AVX2-direct, VBMI-direct and dispatched kernels return the
    /// same sums for singles, batches and pairs: rows of 1..=8 chunks, LUTs
    /// of all-0, all-255 (the largest sums) or random bytes, codes of
    /// all-0, all-15 or random nibbles, and pairs holding one row twice.
    #[test]
    fn every_scan_kernel_matches_the_scalar_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut byte = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        };
        #[cfg(target_arch = "x86_64")]
        if pq_scan_pair_vbmi(&[0; LUT_CHUNK], &[0; 16], &[0; 16]).is_none() {
            eprintln!("note: no AVX-512F/BW/VBMI on this CPU, VBMI leg skipped");
        }
        for chunks in 1..=8usize {
            for (lut_kind, code_kind) in (0..3).flat_map(|l| (0..3).map(move |c| (l, c))) {
                let mut fill = |len: usize, kind: usize, max: u8| -> Vec<u8> {
                    (0..len).map(|_| [0, max, byte()][kind]).collect()
                };
                let lut = fill(chunks * LUT_CHUNK, lut_kind, 255);
                let rows: Vec<Vec<u8>> =
                    (0..4).map(|_| fill(chunks * 16, code_kind, 0xFF)).collect();
                let r = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
                let want = r.map(|row| pq_scan_scalar(&lut, row));
                let label = format!("chunks={chunks} lut={lut_kind} codes={code_kind}");
                let pairs = [(0, 1), (2, 3), (3, 0), (1, 1)];
                assert_eq!(r.map(|row| pq_scan(&lut, row)), want, "{label}: dispatched single");
                assert_eq!(pq_scan_batch(&lut, r), want, "{label}: dispatched batch");
                assert_eq!(pq_scan_batch_scalar(&lut, r), want, "{label}: scalar batch");
                for (i, j) in pairs {
                    let got = pq_scan_pair(&lut, r[i], r[j]);
                    assert_eq!(got, [want[i], want[j]], "{label}: dispatched pair ({i}, {j})");
                }
                #[cfg(target_arch = "x86_64")]
                {
                    if native_tier() >= TIER_AVX2 {
                        let single = r.map(|row| pq_scan_avx2(&lut, row).unwrap());
                        assert_eq!(single, want, "{label}: AVX2 single");
                        // SAFETY: the CPU has AVX2; every row is whole
                        // chunks and `lut` covers them.
                        let batch = unsafe { avx2::pq_scan_batch(&lut, r) };
                        assert_eq!(batch, want, "{label}: AVX2 batch");
                    }
                    for (i, j) in pairs {
                        if let Some(got) = pq_scan_pair_vbmi(&lut, r[i], r[j]) {
                            assert_eq!(
                                got,
                                [want[i], want[j]],
                                "{label}: VBMI pair ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A query prepared by another store (or never prepared) is refused by
    /// a length check before any kernel reads the table — the same for
    /// every public entry point.
    #[test]
    fn a_foreign_or_empty_prepared_query_panics_instead_of_reading_out_of_bounds() {
        let small = PqStore::from_store(&mixed_store(40, 96, 1), Some(16));
        let large = PqStore::from_store(&mixed_store(40, 960, 2), Some(160));
        let mut foreign = PreparedQuery::default();
        small.prepare_into(mixed_store(1, 96, 3).get(0), &mut foreign);
        let empty = PreparedQuery::default();
        let row = large.code_row(0);
        let panics = |what: &str, f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err(&format!("{what} must panic"));
            let msg = err.downcast_ref::<String>().map_or("", |s| s.as_str());
            assert!(msg.contains("was the query prepared by this store"), "{what}: {msg}");
        };
        for (name, pq) in [("foreign", &foreign), ("empty", &empty)] {
            panics(name, &|| {
                let _ = large.dist_prepared(pq, 0);
            });
            panics(name, &|| {
                let _ = large.dist_prepared_batch(pq, [0, 1, 2, 3]);
            });
            panics(name, &|| {
                let _ = large.dist_prepared_pair(pq, [0, 1]);
            });
            panics(name, &|| {
                let _ = pq_scan(pq.lut(), row);
            });
            panics(name, &|| {
                let _ = pq_scan_batch(pq.lut(), [row; 4]);
            });
            panics(name, &|| {
                let _ = pq_scan_pair(pq.lut(), row, row);
            });
        }
        // A ragged row against a table sized for it; rows of two
        // geometries in one pair.
        panics("ragged row", &|| {
            let _ = pq_scan(&[0; 17 * 32], &row[..17]);
        });
        panics("mixed pair", &|| {
            let _ = pq_scan_pair(foreign.lut(), small.code_row(0), row);
        });
    }

    #[test]
    fn heap_bytes_accounts_codes_and_codebooks() {
        let store = ramp_store(16, 96);
        let q = PqStore::from_store(&store, None);
        assert!(q.heap_bytes() >= 16 * q.stride() + q.centroids().len() * 4);
    }

    #[test]
    fn pq_rows_are_at_least_4x_smaller_than_sq8() {
        // The ladder's headline geometry: 960 dims, m = 160.
        let (dim, m) = (960usize, pq_auto_m(960));
        let sq8_row = dim.next_multiple_of(64);
        let pq_row = pq_stride(m);
        assert!(pq_row * 4 <= sq8_row, "pq row {pq_row}B vs sq8 row {sq8_row}B");
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use crate::reorder::IdRemap;
    use proptest::prelude::*;

    fn stores() -> impl Strategy<Value = (usize, Vec<Vec<f32>>)> {
        (1usize..=12).prop_flat_map(|dim| {
            prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim), 1..=8)
                .prop_map(move |rows| (dim, rows))
        })
    }

    proptest! {
        /// Decoding returns each row's nearest centroid tuple: the decode
        /// error can never beat the best centroid, and with ≥ as many
        /// centroids as training rows every row decodes exactly (each row
        /// can claim its own centroid only if k-means converged there — so
        /// assert the weaker, always-true bound instead: decode error is
        /// minimal over this row's available centroids).
        #[test]
        fn decode_is_nearest_available_centroid(case in stores()) {
            let (dim, rows) = case;
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let q = PqStore::from_store(&VectorStore::from_flat(dim, flat), None);
            let dsub = q.dim() / q.m();
            for (id, r) in rows.iter().enumerate() {
                let dec = q.decode(id as u32);
                for j in 0..q.m() {
                    // Gather this subquantizer's dimensions through the
                    // variance-balanced permutation.
                    let sub = |v: &[f32]| -> Vec<f32> {
                        q.perm()[j * dsub..(j + 1) * dsub]
                            .iter()
                            .map(|&d| v[d as usize])
                            .collect()
                    };
                    let (rsub, dsubv) = (sub(r), sub(&dec));
                    let err = crate::distance::l2_sq(&dsubv, &rsub);
                    for c in 0..q.ncent() {
                        let cent: Vec<f32> = q.centroid(j, c).collect();
                        let alt = crate::distance::l2_sq(&cent, &rsub);
                        prop_assert!(
                            err <= alt + alt.abs() * 1e-5 + 1e-5,
                            "id {} subq {}: decode err {} beats centroid {} ({})",
                            id, j, err, c, alt
                        );
                    }
                }
            }
        }

        /// Permuting the encoded store is bit-identical to re-encoding the
        /// permuted vectors under the same codebooks (row-local encoding —
        /// the PQ leg of the reorder∘quantize commutation contract).
        #[test]
        fn permute_commutes_with_fixed_codebook_encode(case in stores(), seed in 0usize..6) {
            let (dim, rows) = case;
            let n = rows.len();
            let flat: Vec<f32> = rows.iter().flatten().copied().collect();
            let store = VectorStore::from_flat(dim, flat);
            let q = PqStore::from_store(&store, None);
            // A deterministic non-trivial permutation: rotate by `seed`.
            let new_to_old: Vec<u32> =
                (0..n as u32).map(|i| (i as usize + seed) as u32 % n as u32).collect();
            let map = IdRemap::from_new_to_old(new_to_old.clone()).unwrap();
            let mut permuted = VectorStore::new(dim);
            for &old in &new_to_old {
                permuted.push(&rows[old as usize]);
            }
            let a = q.permute(&map);
            let b = q.reencode(&permuted);
            for id in 0..n as u32 {
                prop_assert_eq!(a.code_row(id), b.code_row(id), "row {}", id);
            }
        }
    }
}
