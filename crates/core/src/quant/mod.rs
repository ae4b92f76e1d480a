//! Compressed serving codecs: a ladder of code stores for bandwidth-bound
//! graph traversal, with exact `f32` rerank at the end of every search.
//!
//! Graph traversal at serving time is memory-bound: every beam step streams
//! whole vector rows through the cache hierarchy. The [`CodecStore`] trait
//! abstracts the compressed row store behind the two-phase contract every
//! codec shares — traverse on compact codes, then re-score a
//! `rerank_factor · k` candidate pool with exact `f32` distances before
//! returning (kANNolo's and Faiss's standard scheme). Three rungs:
//!
//! * [`QuantizedStore`] (**SQ8**) and [`Sq4Store`] (**SQ4**) — one
//!   per-dimension affine store, [`AffineStore`], generic over the code
//!   [`Width`]: `u8` codes ([`U8`]: 4× less traffic than `f32`,
//!   near-lossless traversal ranking) or 4-bit codes two per byte ([`U4`]:
//!   8× less traffic, widened SIMD unpack into the same fused asymmetric
//!   arithmetic). Each width's kernels live in [`sq8`] / [`sq4`];
//! * [`PqStore`] (**PQ**, [`pq`]) — product quantization, `m`
//!   subquantizers × 4-bit codes over k-means codebooks, distances scanned
//!   from a per-query 16-entry LUT with SIMD compare-select kernels
//!   (`vpshufb`/`tbl`-style register-resident tables), or `vpermi2b` table
//!   lookups on AVX-512 VBMI.
//!
//! Every codec keeps the bit-identity discipline of [`crate::distance`]:
//! the portable scalar kernel is the reference and the AVX2/NEON backends
//! reproduce it bitwise, so `GASS_NO_SIMD` and the CI matrix legs exercise
//! the same numerics. Returned distances are always exact `f32` — the
//! codec only reorders the traversal frontier.

use crate::reorder::IdRemap;
use crate::store::VectorStore;

mod affine;
pub mod pq;
pub mod sq4;
pub mod sq8;

pub use affine::{AffineStore, QuantizedStore, Sq4Store, Width, U4, U8};
pub use pq::{
    pq_auto_m, pq_scan, pq_scan_batch, pq_scan_batch_scalar, pq_scan_pair, pq_scan_scalar,
    PqStore,
};
#[cfg(target_arch = "x86_64")]
pub use pq::{pq_scan_avx2, pq_scan_pair_vbmi};
pub use sq4::{l2_sq_u4, l2_sq_u4_batch, l2_sq_u4_batch_scalar, l2_sq_u4_scalar};
pub use sq8::{l2_sq_u8, l2_sq_u8_batch, l2_sq_u8_batch_scalar, l2_sq_u8_scalar};

/// Codes per 64-byte cache line — the row-stride granularity shared by the
/// byte-packed codecs.
pub const LINE_U8: usize = 64;

/// One cache line of codes; the allocation unit of every packed code
/// layout. `repr(align(64))` makes any `Vec<CodeLine>`'s base pointer —
/// and hence every padded row — 64-byte aligned.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
pub(crate) struct CodeLine(#[allow(dead_code)] pub(crate) [u8; LINE_U8]); // read via pointer casts

// The byte views below rely on a line being exactly its 64 bytes.
const _: () = assert!(std::mem::size_of::<CodeLine>() == LINE_U8);

/// Reinterprets a line vector as its raw bytes.
#[inline]
pub(crate) fn lines_as_bytes(lines: &[CodeLine]) -> &[u8] {
    // SAFETY: `CodeLine` is `repr(align(64))` over `[u8; 64]`, so it has
    // no padding (its size is checked to be 64 at compile time above) and
    // every byte is initialized: `lines` is `len · 64` readable bytes, `u8`
    // needs no alignment, and the borrow of `lines` bounds the returned
    // slice's lifetime.
    unsafe { std::slice::from_raw_parts(lines.as_ptr().cast::<u8>(), lines.len() * LINE_U8) }
}

/// Mutable view of a line vector's raw bytes.
#[inline]
pub(crate) fn lines_as_bytes_mut(lines: &mut [CodeLine]) -> &mut [u8] {
    // SAFETY: as in `lines_as_bytes`; the exclusive borrow of `lines` makes
    // the returned view the only access, and any byte written is a valid
    // `u8`, so every `CodeLine` stays valid.
    unsafe {
        std::slice::from_raw_parts_mut(lines.as_mut_ptr().cast::<u8>(), lines.len() * LINE_U8)
    }
}

/// Backing for a codec's code rows: heap cache-line units (the layout
/// every encoder produces) or a memory-mapped persisted section with the
/// identical geometry — rows `stride` bytes apart starting on a 64-byte
/// boundary — so the kernels read both through one byte view and cold
/// rows of a mapped codec fault in on demand (see [`crate::mmap`]).
#[derive(Clone, Debug)]
pub(crate) enum CodeBuf {
    /// Ordinary heap lines.
    Heap(Vec<CodeLine>),
    /// Read-only window into a mapped persisted section.
    Mapped(crate::mmap::MmapRegion),
}

impl CodeBuf {
    /// Wraps a mapped code area, validating the heap layout's geometry.
    ///
    /// # Panics
    /// Panics if the region is not 64-byte aligned or not whole lines.
    pub(crate) fn from_mapped(region: crate::mmap::MmapRegion) -> Self {
        assert!(
            (region.as_ptr() as usize).is_multiple_of(LINE_U8),
            "mapped code area must start on a cache line"
        );
        assert!(
            region.len().is_multiple_of(LINE_U8),
            "mapped code area must be whole cache lines"
        );
        CodeBuf::Mapped(region)
    }

    /// The code bytes, padding included (rows `stride` apart).
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            CodeBuf::Heap(lines) => lines_as_bytes(lines),
            CodeBuf::Mapped(region) => region,
        }
    }

    /// Heap bytes held (zero for the mapped backing, whose resident share
    /// is kernel-managed).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            CodeBuf::Heap(lines) => lines.capacity() * std::mem::size_of::<CodeLine>(),
            CodeBuf::Mapped(_) => 0,
        }
    }
}

// --- codec selection ----------------------------------------------------

/// Which compression rung to serve from. `Pq { m: None }` resolves `m`
/// automatically to the divisor of `dim` nearest `dim/6` (ties prefer the
/// larger `m`), the operating point the extension ladder targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecSpec {
    /// Per-dimension affine `u8` scalar quantization (1 byte/dim).
    Sq8,
    /// Per-dimension affine 4-bit scalar quantization (2 dims/byte).
    Sq4,
    /// Product quantization: `m` subquantizers × 16 k-means centroids,
    /// 4-bit codes scanned through per-query LUTs.
    Pq {
        /// Subquantizer count; must divide `dim`. `None` auto-resolves.
        m: Option<usize>,
    },
}

impl CodecSpec {
    /// Every concrete rung (PQ with auto `m`), in ladder order.
    pub const ALL: [CodecSpec; 3] = [CodecSpec::Sq8, CodecSpec::Sq4, CodecSpec::Pq { m: None }];

    /// The CLI name of the codec family (`sq8`, `sq4`, `pq`).
    pub const fn name(&self) -> &'static str {
        match self {
            CodecSpec::Sq8 => "sq8",
            CodecSpec::Sq4 => "sq4",
            CodecSpec::Pq { .. } => "pq",
        }
    }

    /// Encodes `store` with this codec.
    ///
    /// # Panics
    /// Panics if `store` is empty, or for [`CodecSpec::Pq`] when an
    /// explicit `m` does not divide the store's dimensionality (the CLI
    /// validates this up front to fail with a clean error instead).
    pub fn build(&self, store: &VectorStore) -> Box<dyn CodecStore> {
        match *self {
            CodecSpec::Sq8 => Box::new(QuantizedStore::from_store(store)),
            CodecSpec::Sq4 => Box::new(Sq4Store::from_store(store)),
            CodecSpec::Pq { m } => Box::new(PqStore::from_store(store, m)),
        }
    }

    /// `true` when two specs select the same codec family (ignoring
    /// whether PQ's `m` is explicit or auto-resolved).
    pub fn same_family(&self, other: &CodecSpec) -> bool {
        self.name() == other.name()
    }

    /// The concrete spec this request builds for a `dim`-dimensional
    /// store: PQ's auto `m` resolves through [`pq_auto_m`], everything
    /// else is already concrete. Two requests are idempotent on an
    /// installed codec exactly when their resolutions are equal — which is
    /// how [`crate::reorder::ServingState::quantize`] decides whether to
    /// re-encode (so `pq` followed by an explicit `--pq-m` that differs
    /// does re-encode rather than silently keeping the old geometry).
    pub fn resolve(&self, dim: usize) -> CodecSpec {
        match *self {
            CodecSpec::Pq { m } => {
                CodecSpec::Pq { m: Some(m.unwrap_or_else(|| pq_auto_m(dim))) }
            }
            other => other,
        }
    }
}

impl std::str::FromStr for CodecSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sq8" => Ok(CodecSpec::Sq8),
            "sq4" => Ok(CodecSpec::Sq4),
            "pq" => Ok(CodecSpec::Pq { m: None }),
            other => Err(format!("unknown codec {other:?} (expected sq8, sq4 or pq)")),
        }
    }
}

impl std::fmt::Display for CodecSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecSpec::Pq { m: Some(m) } => write!(f, "pq(m={m})"),
            other => f.write_str(other.name()),
        }
    }
}

// --- the codec abstraction ----------------------------------------------

/// A compressed row store serving the two-phase traversal contract: encode
/// once at quantize time, score candidates in code space during traversal
/// ([`CodecStore::dist_prepared`] / [`CodecStore::dist_prepared_batch`]
/// after a per-query [`CodecStore::prepare_into`]), and let the search
/// re-score the leading pool at full precision. Implementations must keep
/// scalar and SIMD scoring bit-identical and make [`CodecStore::permute`]
/// commute with encoding row-for-row, so graph reordering composes with
/// quantization in either order.
pub trait CodecStore: std::fmt::Debug + Send + Sync {
    /// The codec family and parameters this store was built with.
    fn spec(&self) -> CodecSpec;

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Number of encoded vectors.
    fn len(&self) -> usize;

    /// `true` when no vectors are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The padded code row of vector `id` (layout is codec-specific;
    /// padding bytes are zero).
    fn code_row(&self, id: u32) -> &[u8];

    /// Prepares `query` for code-space scoring, reusing `out`'s buffers
    /// (affine codecs shift the query against the grid; PQ builds the
    /// quantized distance LUT). **Precondition: every component of `query`
    /// is finite.** A non-finite component never panics or reads out of
    /// bounds, but the distances it yields are meaningless (PQ's lane-wise
    /// table folding lets a NaN spread to the whole table); input from
    /// outside the process is rejected where it enters (`gass serve`).
    fn prepare_into(&self, query: &[f32], out: &mut PreparedQuery);

    /// Code-space distance from a prepared query to vector `id`.
    fn dist_prepared(&self, pq: &PreparedQuery, id: u32) -> f32;

    /// Code-space distances to **four** vectors at once — bit-identical to
    /// four [`CodecStore::dist_prepared`] calls.
    fn dist_prepared_batch(&self, pq: &PreparedQuery, ids: [u32; 4]) -> [f32; 4];

    /// Code-space distances to **two** vectors — bit-identical to two
    /// [`CodecStore::dist_prepared`] calls, which is what the default does
    /// (PQ scores both rows in one kernel call where the CPU allows).
    fn dist_prepared_pair(&self, pq: &PreparedQuery, ids: [u32; 2]) -> [f32; 2] {
        ids.map(|id| self.dist_prepared(pq, id))
    }

    /// Hints the CPU to pull vector `id`'s code row toward L1.
    /// Semantically a no-op.
    fn prefetch(&self, id: u32);

    /// Reconstructs vector `id` from its codes.
    fn decode(&self, id: u32) -> Vec<f32>;

    /// Copies the store with rows relabeled through `map`: row `u` of the
    /// result is row `map.to_old(u)` of `self`. Codec parameters (affine
    /// grids, codebooks) are row-independent, so the permuted rows are
    /// bit-identical to re-encoding the permuted vectors under the same
    /// parameters.
    fn permute(&self, map: &IdRemap) -> Box<dyn CodecStore>;

    /// Heap bytes held by the codes and codec parameters (the compressed
    /// serving path's memory cost, reported by footprint harnesses).
    fn heap_bytes(&self) -> usize;

    /// Clones into a fresh box ([`Clone`] for `Box<dyn CodecStore>`).
    fn clone_box(&self) -> Box<dyn CodecStore>;

    /// Downcast hook (persistence dispatches on the concrete codec).
    fn as_any(&self) -> &dyn std::any::Any;
}

impl Clone for Box<dyn CodecStore> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

// --- the prepared query -------------------------------------------------

/// Per-query scratch for code-space scoring, reused across queries via
/// [`crate::search::SearchScratch`]. The affine codecs (SQ8/SQ4) fill
/// `u`/`s` — the query shifted against the quantization grid (`u_d = q_d −
/// min_d`, step `s_d = Δ_d`, zero-padded to the kernel span) so each
/// candidate distance is the exact squared distance to its decode,
/// `Σ_d (u_d − s_d · c_d)²`. PQ fills `lut`/`lut_scale`/`lut_bias` — the
/// per-query distance table `T[j][c]` quantized to `u8` (`T[j][c] ≈ bias_j
/// + λ · lut[j][c]` with a shared scale λ), so a code row scores as
/// `λ · Σ_j lut[j][c_j] + Σ_j bias_j` with exact integer accumulation.
#[derive(Clone, Debug, Default)]
pub struct PreparedQuery {
    pub(crate) u: Vec<f32>,
    pub(crate) s: Vec<f32>,
    pub(crate) lut: Vec<u8>,
    pub(crate) lut_scale: f32,
    pub(crate) lut_bias: f32,
    /// PQ scratch: the query dealt through the dimension permutation.
    pub(crate) qperm: Vec<f32>,
    /// PQ scratch: the exact residual table `T[j][c] − min_c T[j][c]`.
    pub(crate) table: Vec<f32>,
}

impl PreparedQuery {
    /// The query shifted to the grid origin, `q_d − min_d` (padded to the
    /// kernel span; affine codecs).
    #[inline]
    pub fn u(&self) -> &[f32] {
        &self.u
    }

    /// Per-dimension steps `Δ_d` (padded to the kernel span; affine
    /// codecs).
    #[inline]
    pub fn s(&self) -> &[f32] {
        &self.s
    }

    /// The quantized PQ distance table, in the chunked compare-select
    /// layout documented in [`pq`].
    #[inline]
    pub fn lut(&self) -> &[u8] {
        &self.lut
    }

    /// Scale λ mapping summed LUT codes back to distance space.
    #[inline]
    pub fn lut_scale(&self) -> f32 {
        self.lut_scale
    }

    /// Additive bias `Σ_j min_c T[j][c]` restored after the integer scan.
    #[inline]
    pub fn lut_bias(&self) -> f32 {
        self.lut_bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_spec_parses_and_displays() {
        assert_eq!("sq8".parse::<CodecSpec>().unwrap(), CodecSpec::Sq8);
        assert_eq!("sq4".parse::<CodecSpec>().unwrap(), CodecSpec::Sq4);
        assert_eq!("pq".parse::<CodecSpec>().unwrap(), CodecSpec::Pq { m: None });
        assert!("sq2".parse::<CodecSpec>().is_err());
        assert_eq!(CodecSpec::Sq4.to_string(), "sq4");
        assert_eq!(CodecSpec::Pq { m: Some(8) }.to_string(), "pq(m=8)");
        assert!(CodecSpec::Pq { m: Some(8) }.same_family(&CodecSpec::Pq { m: None }));
        assert!(!CodecSpec::Sq8.same_family(&CodecSpec::Sq4));
    }

    #[test]
    fn resolve_pins_pq_geometry() {
        assert_eq!(CodecSpec::Sq8.resolve(96), CodecSpec::Sq8);
        assert_eq!(CodecSpec::Sq4.resolve(96), CodecSpec::Sq4);
        assert_eq!(CodecSpec::Pq { m: None }.resolve(96), CodecSpec::Pq { m: Some(16) });
        assert_eq!(CodecSpec::Pq { m: Some(48) }.resolve(96), CodecSpec::Pq { m: Some(48) });
    }

    /// The public SQ8/SQ4 kernels refuse operands the SIMD kernels would
    /// read past — a short or long row, a ragged batch, steps of another
    /// length, and for SQ4 a row that does not pack two lanes per byte —
    /// with a panic before any kernel runs, on every backend.
    #[test]
    fn short_ragged_or_mismatched_affine_rows_panic_instead_of_reading_out_of_bounds() {
        let panics = |what: &str, f: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err(&format!("{what} must panic"));
            let msg = err.downcast_ref::<String>().map_or("", |s| s.as_str());
            assert!(msg.contains("kernel over"), "{what}: {msg}");
        };
        type Single = fn(&[f32], &[f32], &[u8]) -> f32;
        type Batch = fn(&[f32], &[f32], [&[u8]; 4]) -> [f32; 4];
        // Name, kernels, query lanes per code byte.
        let kernels: [(&str, Single, Batch, usize); 2] =
            [("sq8", l2_sq_u8, l2_sq_u8_batch, 1), ("sq4", l2_sq_u4, l2_sq_u4_batch, 2)];
        for n in [1usize, 7, 24, 100, 960] {
            let (u, s, bytes) = (vec![0.5f32; n], vec![0.25f32; n], vec![7u8; n + 2]);
            for (name, single, batch, per_byte) in kernels {
                let ok = &bytes[..n.div_ceil(per_byte)];
                single(&u, &s, ok);
                batch(&u, &s, [ok; 4]);
                // `n` bytes — one per lane — also breaks SQ4's packing.
                for len in [ok.len() - 1, ok.len() + 1, n] {
                    if len != ok.len() {
                        let row = &bytes[..len];
                        panics(&format!("{name} {len}-byte row, n={n}"), &|| {
                            single(&u, &s, row);
                        });
                        panics(&format!("{name} ragged batch, n={n}"), &|| {
                            batch(&u, &s, [ok, ok, row, ok]);
                        });
                    }
                }
                panics(&format!("{name} short steps, n={n}"), &|| {
                    single(&u, &s[..n - 1], ok);
                });
                panics(&format!("{name} batch with short steps, n={n}"), &|| {
                    batch(&u, &s[..n - 1], [ok; 4]);
                });
            }
        }
    }

    #[test]
    fn build_dispatches_to_each_codec() {
        let store = VectorStore::from_flat(6, (0..24).map(|i| i as f32 * 0.5).collect());
        for spec in CodecSpec::ALL {
            let codec = spec.build(&store);
            assert_eq!(codec.len(), 4, "{spec}");
            assert_eq!(codec.dim(), 6, "{spec}");
            assert!(codec.spec().same_family(&spec), "{spec}");
            assert!(codec.heap_bytes() > 0, "{spec}");
            let cloned = codec.clone();
            assert_eq!(cloned.code_row(2), codec.code_row(2), "{spec}");
        }
    }
}
