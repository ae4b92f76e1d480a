//! Contiguous, row-major storage for dense `f32` vectors.
//!
//! Every method in this workspace operates on a [`VectorStore`]: a single
//! allocation holding the vectors row-major. This mirrors how the evaluated
//! C/C++ implementations lay out their data (one flat buffer, no per-vector
//! indirection) and is what makes the distance kernels in
//! [`crate::distance`] cache-friendly.
//!
//! Two physical layouts are supported:
//!
//! * **packed** (default) — rows are exactly `dim` floats apart, no wasted
//!   space; the layout every store starts in and the one persisted to disk.
//! * **aligned** — the base pointer and every row start on a 64-byte cache
//!   line, with rows padded to a multiple of 16 floats. The SIMD kernels
//!   then never split a load across two lines, and query-time prefetches
//!   pull whole rows. Padding floats are zero and are never exposed:
//!   [`VectorStore::get`] always returns exactly `dim` elements.
//!
//! The layout is a runtime serving choice, not part of the data's
//! identity: both layouts serialize identically, compare by content, and
//! convert freely via [`VectorStore::to_aligned`] /
//! [`VectorStore::to_packed`].
//!
//! A third, read-only backing exists for datasets that overflow RAM:
//! **mapped** — rows live in a memory-mapped persisted section
//! ([`crate::mmap::MmapRegion`]) using the aligned layout's exact
//! geometry (64-byte data area, rows padded to whole cache lines), so the
//! kernel faults pages in on first touch and evicts cold rows under
//! pressure. Mapped stores are immutable ([`VectorStore::push`] /
//! [`VectorStore::get_mut`] panic); every copying operation (`subset`,
//! `permute`, `to_aligned`) produces an ordinary heap store.

/// Floats per 64-byte cache line.
const LINE_F32: usize = 16;

/// One cache line of floats; the allocation unit of the aligned layout.
/// `repr(align(64))` makes any `Vec<CacheLine>`'s base pointer — and hence
/// every padded row — 64-byte aligned.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct CacheLine(#[allow(dead_code)] [f32; LINE_F32]); // read via pointer casts in raw()/raw_mut()

/// Physical storage backing a [`VectorStore`].
#[derive(Clone, Debug)]
enum Storage {
    /// Rows `dim` floats apart in an ordinary `Vec`.
    Packed(Vec<f32>),
    /// Rows `stride` floats apart in cache-line units.
    Aligned(Vec<CacheLine>),
    /// Read-only rows in a memory-mapped persisted section (aligned
    /// geometry). Clones share the mapping.
    Mapped(crate::mmap::MmapRegion),
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Packed(Vec::new())
    }
}

/// Dense collection of `f32` vectors with a fixed dimensionality.
///
/// Vector `i` occupies `raw[i*stride .. i*stride + dim]` (with
/// `stride == dim` for the packed layout). Identifiers are `u32`
/// throughout the workspace (a deliberate size choice: adjacency lists
/// dominate index memory, and 32-bit ids halve them relative to `usize`).
#[derive(Clone, Debug, Default)]
pub struct VectorStore {
    dim: usize,
    stride: usize,
    len: usize,
    data: Storage,
}

/// Row stride of the aligned layout: `dim` rounded up to a whole number of
/// cache lines (16 floats).
pub(crate) fn aligned_stride(dim: usize) -> usize {
    dim.next_multiple_of(LINE_F32)
}

impl VectorStore {
    /// Creates an empty packed store for vectors of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self { dim, stride: dim, len: 0, data: Storage::Packed(Vec::new()) }
    }

    /// Creates an empty packed store with capacity reserved for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self { dim, stride: dim, len: 0, data: Storage::Packed(Vec::with_capacity(dim * n)) }
    }

    /// Creates an empty **aligned** store: 64-byte-aligned base, rows
    /// padded to whole cache lines (see the module docs).
    pub fn aligned(dim: usize) -> Self {
        Self::aligned_with_capacity(dim, 0)
    }

    /// Creates an empty aligned store with capacity reserved for `n`
    /// vectors.
    pub fn aligned_with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        let stride = aligned_stride(dim);
        let lines = Vec::with_capacity(n * stride / LINE_F32);
        Self { dim, stride, len: 0, data: Storage::Aligned(lines) }
    }

    /// Builds a packed store from a flat buffer of `n * dim` floats.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`, or `dim == 0`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        let len = data.len() / dim;
        Self { dim, stride: dim, len, data: Storage::Packed(data) }
    }

    /// Builds a packed store by copying an iterator of vector rows.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows<'a, I>(dim: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut store = Self::new(dim);
        for row in rows {
            store.push(row);
        }
        store
    }

    /// Wraps a memory-mapped data area as a read-only store. The region
    /// must hold `len` rows in the aligned geometry: rows
    /// `aligned_stride(dim)` floats apart, zero-padded, starting at a
    /// 64-byte-aligned offset (persisted mapped sections guarantee this).
    ///
    /// # Panics
    /// Panics if `dim == 0` or the region size disagrees with
    /// `len * stride` floats.
    pub fn from_mapped(dim: usize, len: usize, region: crate::mmap::MmapRegion) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        let stride = aligned_stride(dim);
        assert_eq!(
            region.len(),
            len * stride * std::mem::size_of::<f32>(),
            "mapped region size disagrees with {len} rows of stride {stride}"
        );
        // Fail fast on misaligned sections rather than on first access.
        let _ = region.as_f32s();
        Self { dim, stride, len, data: Storage::Mapped(region) }
    }

    /// `true` when rows live in a memory-mapped (or file-backed fallback)
    /// region rather than on the heap.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.data, Storage::Mapped(_))
    }

    /// Copies this store into the aligned layout (same vectors, same ids).
    pub fn to_aligned(&self) -> VectorStore {
        let mut out = Self::aligned_with_capacity(self.dim, self.len);
        for (_, row) in self.iter() {
            out.push(row);
        }
        out
    }

    /// Copies this store into the packed layout (same vectors, same ids).
    pub fn to_packed(&self) -> VectorStore {
        let mut out = Self::with_capacity(self.dim, self.len);
        for (_, row) in self.iter() {
            out.push(row);
        }
        out
    }

    /// `true` when rows are cache-line aligned and padded (the aligned
    /// heap layout and the mapped backing share this geometry).
    #[inline]
    pub fn is_aligned(&self) -> bool {
        matches!(self.data, Storage::Aligned(_) | Storage::Mapped(_))
    }

    /// Floats between consecutive row starts (`== dim()` when packed).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The raw storage in row-major order. Rows are [`Self::stride`]
    /// floats apart; the aligned layout's zero padding is included.
    #[inline]
    fn raw(&self) -> &[f32] {
        match &self.data {
            Storage::Packed(v) => v,
            Storage::Aligned(lines) => {
                debug_assert_eq!(std::mem::size_of::<CacheLine>(), LINE_F32 * 4);
                debug_assert!(lines.as_ptr().cast::<f32>().is_aligned());
                // SAFETY: `CacheLine` is `repr(align(64))` over `[f32; 16]`
                // with no padding (its size is 16 floats), and every float
                // is initialized, so `lines` is `len · 16` readable,
                // `f32`-aligned floats; the borrow of `lines` bounds the
                // returned slice's lifetime.
                unsafe {
                    std::slice::from_raw_parts(
                        lines.as_ptr().cast::<f32>(),
                        lines.len() * LINE_F32,
                    )
                }
            }
            Storage::Mapped(region) => region.as_f32s(),
        }
    }

    /// Mutable view of the raw storage (same shape as [`Self::raw`]).
    #[inline]
    fn raw_mut(&mut self) -> &mut [f32] {
        match &mut self.data {
            Storage::Packed(v) => v,
            Storage::Aligned(lines) => {
                debug_assert_eq!(std::mem::size_of::<CacheLine>(), LINE_F32 * 4);
                debug_assert!(lines.as_ptr().cast::<f32>().is_aligned());
                // SAFETY: as in `raw`; the exclusive borrow of `lines` makes
                // the returned view the only access, and any `f32` written
                // keeps every `CacheLine` valid.
                unsafe {
                    std::slice::from_raw_parts_mut(
                        lines.as_mut_ptr().cast::<f32>(),
                        lines.len() * LINE_F32,
                    )
                }
            }
            Storage::Mapped(_) => panic!("mapped stores are read-only"),
        }
    }

    /// Appends one vector, returning its id.
    ///
    /// # Panics
    /// Panics if `v.len() != dim`, or if the store already holds
    /// `u32::MAX` vectors.
    pub fn push(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector length mismatch");
        let id = self.len;
        assert!(id < u32::MAX as usize, "vector store exceeds u32 id space");
        match &mut self.data {
            Storage::Packed(data) => data.extend_from_slice(v),
            Storage::Mapped(_) => panic!("mapped stores are read-only"),
            Storage::Aligned(lines) => {
                let mut rest = v;
                for _ in 0..self.stride / LINE_F32 {
                    let mut line = [0.0f32; LINE_F32];
                    let take = rest.len().min(LINE_F32);
                    line[..take].copy_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    lines.push(CacheLine(line));
                }
            }
        }
        self.len += 1;
        id as u32
    }

    /// Number of vectors stored.
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

    /// Borrows vector `id` (always exactly `dim` elements; padding is
    /// never exposed).
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn get(&self, id: u32) -> &[f32] {
        let start = id as usize * self.stride;
        &self.raw()[start..start + self.dim]
    }

    /// Mutably borrows vector `id`.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> &mut [f32] {
        let start = id as usize * self.stride;
        let dim = self.dim;
        &mut self.raw_mut()[start..start + dim]
    }

    /// Hints the CPU to pull vector `id`'s row into L1: the whole row when
    /// it spans at most eight cache lines (Deep-96's 384 B), else its first
    /// two. Semantically a no-op.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn prefetch(&self, id: u32) {
        crate::distance::prefetch_slice(self.get(id));
    }

    /// Iterates over `(id, vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        (0..self.len as u32).map(|i| (i, self.get(i)))
    }

    /// The underlying flat buffer **of a packed store** (`len * dim`
    /// floats, rows adjacent). Use [`Self::iter`] or [`Self::to_flat_vec`]
    /// for layout-agnostic access.
    ///
    /// # Panics
    /// Panics on an aligned store, whose raw buffer interleaves padding.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        assert!(!self.is_aligned(), "as_flat on an aligned store (use iter()/to_flat_vec())");
        self.raw()
    }

    /// Copies the logical contents into a packed `len * dim` buffer
    /// (padding stripped). Both layouts produce identical output.
    pub fn to_flat_vec(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len * self.dim);
        for (_, row) in self.iter() {
            out.extend_from_slice(row);
        }
        out
    }

    /// Heap bytes held by this store (the paper's "raw data" component of
    /// every index footprint report). For the aligned layout this includes
    /// the padding overhead — see [`Self::padding_bytes`] for that share.
    pub fn heap_bytes(&self) -> usize {
        match &self.data {
            Storage::Packed(v) => v.capacity() * std::mem::size_of::<f32>(),
            Storage::Aligned(lines) => lines.capacity() * std::mem::size_of::<CacheLine>(),
            // Kernel-managed: resident share is demand-faulted, not heap.
            Storage::Mapped(_) => 0,
        }
    }

    /// Bytes of the mapped backing file region (zero for heap stores):
    /// the demand-faulted counterpart of [`Self::heap_bytes`].
    pub fn mapped_bytes(&self) -> usize {
        match &self.data {
            Storage::Mapped(region) => region.len(),
            _ => 0,
        }
    }

    /// Bytes spent on alignment padding (zero for the packed layout): the
    /// cost side of the aligned layout's speed/space trade-off.
    pub fn padding_bytes(&self) -> usize {
        (self.stride - self.dim) * self.len * std::mem::size_of::<f32>()
    }

    /// Copies a subset of vectors into a new store (same layout as `self`),
    /// preserving order of `ids`. Used by divide-and-conquer methods
    /// (SPTAG, HCNNG, ELPIS) that build per-partition graphs.
    pub fn subset(&self, ids: &[u32]) -> VectorStore {
        let mut out = if self.is_aligned() {
            VectorStore::aligned_with_capacity(self.dim, ids.len())
        } else {
            VectorStore::with_capacity(self.dim, ids.len())
        };
        for &id in ids {
            out.push(self.get(id));
        }
        out
    }

    /// Copies the store with rows relabeled through `map`: row `u` of the
    /// result is row `map.to_old(u)` of `self`. The physical layout
    /// (packed or aligned) is preserved.
    pub fn permute(&self, map: &crate::reorder::IdRemap) -> VectorStore {
        assert_eq!(map.len(), self.len, "remap covers a different vector count");
        let mut out = if self.is_aligned() {
            VectorStore::aligned_with_capacity(self.dim, self.len)
        } else {
            VectorStore::with_capacity(self.dim, self.len)
        };
        for new in 0..self.len as u32 {
            out.push(self.get(map.to_old(new)));
        }
        out
    }

    /// Computes the exact medoid: the vector minimizing the sum of squared
    /// Euclidean distances to the dataset centroid's nearest representative.
    ///
    /// Following NSG and Vamana, the "medoid" entry point is approximated as
    /// the vector closest to the dataset centroid — an `O(n·d)` computation
    /// rather than the `O(n²·d)` true medoid.
    pub fn centroid_medoid(&self) -> u32 {
        assert!(!self.is_empty(), "medoid of empty store");
        let mut centroid = vec![0.0f64; self.dim];
        for (_, v) in self.iter() {
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += *x as f64;
            }
        }
        let n = self.len() as f64;
        for c in &mut centroid {
            *c /= n;
        }
        let mut best = 0u32;
        let mut best_d = f64::INFINITY;
        for (id, v) in self.iter() {
            let mut d = 0.0f64;
            for (c, x) in centroid.iter().zip(v) {
                let diff = c - *x as f64;
                d += diff * diff;
            }
            if d < best_d {
                best_d = d;
                best = id;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut s = VectorStore::new(3);
        assert!(s.is_empty());
        let a = s.push(&[1.0, 2.0, 3.0]);
        let b = s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_splits_rows() {
        let s = VectorStore::from_flat(2, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged() {
        let _ = VectorStore::from_flat(3, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn push_rejects_wrong_dim() {
        let mut s = VectorStore::new(3);
        s.push(&[1.0]);
    }

    #[test]
    fn iter_yields_all_rows() {
        let s = VectorStore::from_flat(1, vec![9.0, 8.0, 7.0]);
        let rows: Vec<_> = s.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], (2, &[7.0][..]));
    }

    #[test]
    fn subset_preserves_order() {
        let s = VectorStore::from_flat(1, vec![0.0, 10.0, 20.0, 30.0]);
        let sub = s.subset(&[3, 1]);
        assert_eq!(sub.get(0), &[30.0]);
        assert_eq!(sub.get(1), &[10.0]);
    }

    #[test]
    fn centroid_medoid_picks_central_point() {
        // Points on a line: 0, 1, 2, 100. Centroid ~ 25.75, closest is 2.
        let s = VectorStore::from_flat(1, vec![0.0, 1.0, 2.0, 100.0]);
        assert_eq!(s.centroid_medoid(), 2);
    }

    #[test]
    fn from_rows_collects() {
        let rows: Vec<&[f32]> = vec![&[1.0, 0.0], &[0.0, 1.0]];
        let s = VectorStore::from_rows(2, rows);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dim(), 2);
    }

    // --- aligned layout -------------------------------------------------

    /// A 5-d store (awkward: 5 < 16, so stride rounds to one full line).
    fn sample_rows() -> Vec<Vec<f32>> {
        (0..7).map(|i| (0..5).map(|j| (i * 5 + j) as f32 * 0.25).collect()).collect()
    }

    #[test]
    fn aligned_rows_start_on_cache_lines() {
        let mut s = VectorStore::aligned(20); // stride rounds to 32
        assert_eq!(s.stride(), 32);
        for r in 0..3 {
            s.push(&(0..20).map(|j| (r * 20 + j) as f32).collect::<Vec<_>>());
        }
        for id in 0..3u32 {
            assert_eq!(s.get(id).as_ptr() as usize % 64, 0, "row {id} misaligned");
            assert_eq!(s.get(id).len(), 20);
        }
    }

    #[test]
    fn aligned_matches_packed_content() {
        let rows = sample_rows();
        let mut packed = VectorStore::new(5);
        let mut aligned = VectorStore::aligned(5);
        for r in &rows {
            assert_eq!(packed.push(r), aligned.push(r));
        }
        assert_eq!(packed.len(), aligned.len());
        for id in 0..rows.len() as u32 {
            assert_eq!(packed.get(id), aligned.get(id), "row {id}");
        }
        assert_eq!(packed.to_flat_vec(), aligned.to_flat_vec());
        assert_eq!(packed.centroid_medoid(), aligned.centroid_medoid());
    }

    #[test]
    fn layout_conversions_roundtrip() {
        let rows = sample_rows();
        let packed = VectorStore::from_rows(5, rows.iter().map(|r| r.as_slice()));
        let aligned = packed.to_aligned();
        assert!(aligned.is_aligned());
        assert!(!packed.is_aligned());
        let back = aligned.to_packed();
        assert_eq!(back.to_flat_vec(), packed.to_flat_vec());
        // Subset preserves its source's layout.
        assert!(aligned.subset(&[1, 3]).is_aligned());
        assert!(!packed.subset(&[1, 3]).is_aligned());
        assert_eq!(aligned.subset(&[1, 3]).get(1), packed.subset(&[1, 3]).get(1));
    }

    #[test]
    fn padding_is_accounted() {
        let packed = VectorStore::from_rows(5, sample_rows().iter().map(|r| r.as_slice()));
        let aligned = packed.to_aligned();
        assert_eq!(packed.padding_bytes(), 0);
        // stride 16, dim 5 -> 11 padding floats per row.
        assert_eq!(aligned.padding_bytes(), 11 * 7 * 4);
        assert!(aligned.heap_bytes() >= aligned.len() * 64);
    }

    #[test]
    fn aligned_get_mut_writes_through() {
        let mut s = VectorStore::aligned(3);
        s.push(&[1.0, 2.0, 3.0]);
        s.push(&[4.0, 5.0, 6.0]);
        s.get_mut(1)[0] = 9.0;
        assert_eq!(s.get(1), &[9.0, 5.0, 6.0]);
        assert_eq!(s.get(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "as_flat on an aligned store")]
    fn as_flat_rejects_aligned() {
        let s = VectorStore::aligned(3);
        let _ = s.as_flat();
    }

    #[test]
    fn prefetch_is_a_noop_semantically() {
        let s = VectorStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]).to_aligned();
        s.prefetch(0);
        s.prefetch(1);
        assert_eq!(s.get(1), &[3.0, 4.0]);
    }

    #[test]
    fn dim_exactly_one_line_gets_no_padding() {
        let mut s = VectorStore::aligned(16);
        assert_eq!(s.stride(), 16);
        s.push(&[0.5; 16]);
        assert_eq!(s.padding_bytes(), 0);
        assert_eq!(s.get(0), &[0.5; 16]);
    }
}
