//! Binary persistence for the core structures: vector stores and frozen
//! graphs.
//!
//! Indexes at the paper's scale take hours to days to build; any usable
//! release must be able to save and reload them. The format is a simple
//! length-prefixed little-endian layout with a magic header and version
//! byte, built on the `bytes` crate:
//!
//! ```text
//! "GASS" | version:u8 | kind:u8 | payload...
//! ```
//!
//! Payloads:
//! * store — `dim:u64 | len:u64 | f32 data`
//! * flat graph — `slots:u64 | nodes:u64 | counts:u32[] | edges:u32[]`
//! * permutation — `n:u64 | new_to_old:u32[n]` (the reorder placement
//!   order; the inverse table is rebuilt — and the bijection re-validated —
//!   on load)
//! * codec store — `codec:u8 | codec payload`, where the codec tag selects
//!   the body: the affine codecs (SQ8, SQ4) are `dim:u64 | len:u64 |
//!   mins:f32[dim] | deltas:f32[dim] | codes:u8[len*row_bytes]` (rows
//!   packed, cache-line padding stripped and rebuilt on load; `row_bytes`
//!   is `dim` for SQ8 and `ceil(dim/2)` for SQ4), PQ is
//!   `dim:u64 | m:u64 | ncent:u64 | len:u64 | perm:u32[dim]
//!   | centroids:f32[m*16*(dim/m)] | codes:u8[len*ceil(m/2)]` (`perm` is
//!   the variance-balanced dimension deal, validated as a permutation on
//!   load). Kind 3, an SQ8-only section that predates the codec tag, is
//!   retired: [`open_codec`] rejects it with an error.
//!
//! ## Mapped sections
//!
//! Two further kinds store their bulk payload **in the serving layout**
//! (padded rows from a 64-byte-aligned file offset) so a loaded file can
//! be memory-mapped and searched in place, cold rows faulting in on
//! demand — the beyond-RAM tiers' on-disk format (see [`crate::mmap`]):
//! * mapped store — `dim:u64 | len:u64 | zero pad to offset 64 | rows`,
//!   each row `aligned_stride(dim)` zero-padded `f32`s
//! * mapped codec — `codec:u8 | params (as the codec section) | zero pad
//!   to a 64-byte boundary | padded code rows` (the whole code area, tail
//!   padding included)
//!
//! [`open_store`]/[`open_codec`] sniff the kind byte and accept either
//! representation; when mapping is disabled or unavailable the mapped
//! kinds are parsed into ordinary heap structures instead. Byte equality
//! of the heap and mapped row layouts is what makes the mapped path
//! observationally identical to the aligned heap path.
//!
//! * shard table — `nprobe:u64 | dim:u64 | shards:u64 | total:u64 |
//!   centroids:f32[shards*dim] | per shard (len:u64 | ids:u32[len])` —
//!   the routing half of a sharded index ([`crate::sharded`]); the id
//!   lists are validated to partition `0..total` on load.

use crate::graph::FlatGraph;
use crate::mmap::{Advice, MmapBuf, MmapRegion};
use crate::quant::{AffineStore, CodecStore, PqStore, QuantizedStore, Sq4Store, Width, U4, U8};
use crate::reorder::IdRemap;
use crate::store::VectorStore;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::fs;
use std::io;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"GASS";
const VERSION: u8 = 1;
/// Section kind: packed vector store.
pub const KIND_STORE: u8 = 1;
/// Section kind: flat adjacency graph.
pub const KIND_FLAT_GRAPH: u8 = 2;
// Section kind 3 is retired (the SQ8-only section the codec kind replaced);
// it is never reused, so an old file fails with `WrongKind`.
/// Section kind: reorder permutation.
pub const KIND_PERM: u8 = 4;
/// Section kind: codec store (SQ8/SQ4/PQ, packed).
pub const KIND_CODEC: u8 = 5;
/// Section kind: mapped vector store (page-aligned, stride-padded rows).
pub const KIND_MSTORE: u8 = 6;
/// Section kind: mapped codec store (page-aligned, stride-padded code rows).
pub const KIND_MCODEC: u8 = 7;
/// Section kind: shard table (centroids + per-shard global id lists).
pub const KIND_SHARDS: u8 = 8;

/// File offset where a mapped section's row data begins (one cache line;
/// keeps every row 64-byte aligned when the mapping itself is
/// page-aligned).
const MAP_DATA_ALIGN: usize = 64;

const CODEC_SQ8: u8 = 1;
const CODEC_SQ4: u8 = 2;
const CODEC_PQ: u8 = 3;

/// Errors arising while decoding a persisted structure.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Missing or wrong magic header.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Payload kind did not match the requested structure.
    WrongKind {
        /// Kind byte found in the file.
        found: u8,
        /// Kind byte the caller expected.
        expected: u8,
    },
    /// Payload shorter than its own header claims.
    Truncated,
    /// A persisted permutation whose id table is not a bijection.
    NotAPermutation(String),
    /// A codec section carrying an unrecognized codec tag.
    UnknownCodec(u8),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a GASS file (bad magic)"),
            PersistError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::WrongKind { found, expected } => {
                write!(f, "wrong payload kind {found} (expected {expected})")
            }
            PersistError::Truncated => write!(f, "payload truncated"),
            PersistError::NotAPermutation(why) => {
                write!(f, "invalid permutation payload: {why}")
            }
            PersistError::UnknownCodec(tag) => {
                write!(f, "unknown codec tag {tag} (expected sq8=1, sq4=2 or pq=3)")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn header(kind: u8, capacity: usize) -> BytesMut {
    let mut buf = BytesMut::with_capacity(capacity + 6);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind);
    buf
}

/// `Ok` when the `remaining` bytes can back `count` items of `width`
/// bytes — the check every header-derived count passes before it sizes an
/// allocation.
fn backed(count: usize, width: usize, remaining: usize) -> Result<(), PersistError> {
    match count.checked_mul(width) {
        Some(bytes) if bytes <= remaining => Ok(()),
        _ => Err(PersistError::Truncated),
    }
}

/// `m * 16 * (dim / m)`: the float count of a PQ section's padded codebooks.
fn pq_codebook_len(dim: usize, m: usize) -> Result<usize, PersistError> {
    m.checked_mul(16).and_then(|x| x.checked_mul(dim / m)).ok_or(PersistError::Truncated)
}

fn check_header(buf: &mut Bytes, expected_kind: u8) -> Result<(), PersistError> {
    if buf.remaining() < 6 {
        return Err(PersistError::BadMagic);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let kind = buf.get_u8();
    if kind != expected_kind {
        return Err(PersistError::WrongKind { found: kind, expected: expected_kind });
    }
    Ok(())
}

/// Encodes a vector store. Rows are written packed (padding stripped), so
/// both layouts of the same vectors produce identical bytes; decoding
/// always yields the packed layout (re-align with
/// [`VectorStore::to_aligned`] if desired).
pub fn encode_store(store: &VectorStore) -> Bytes {
    let mut buf = header(KIND_STORE, 16 + store.len() * store.dim() * 4);
    buf.put_u64_le(store.dim() as u64);
    buf.put_u64_le(store.len() as u64);
    for (_, row) in store.iter() {
        for &x in row {
            buf.put_f32_le(x);
        }
    }
    buf.freeze()
}

/// Decodes a vector store.
pub fn decode_store(mut buf: Bytes) -> Result<VectorStore, PersistError> {
    check_header(&mut buf, KIND_STORE)?;
    if buf.remaining() < 16 {
        return Err(PersistError::Truncated);
    }
    let dim = buf.get_u64_le() as usize;
    let len = buf.get_u64_le() as usize;
    let want = dim.checked_mul(len).ok_or(PersistError::Truncated)?;
    backed(want, 4, buf.remaining())?;
    let mut data = Vec::with_capacity(want);
    for _ in 0..want {
        data.push(buf.get_f32_le());
    }
    Ok(VectorStore::from_flat(dim.max(1), data))
}

/// Encodes a flat graph.
pub fn encode_flat_graph(graph: &FlatGraph) -> Bytes {
    use crate::graph::GraphView;
    let n = graph.num_nodes();
    let slots = graph.slots();
    let mut buf = header(KIND_FLAT_GRAPH, 16 + n * 4 + n * slots * 4);
    buf.put_u64_le(slots as u64);
    buf.put_u64_le(n as u64);
    for v in 0..n as u32 {
        buf.put_u32_le(graph.neighbors(v).len() as u32);
    }
    for v in 0..n as u32 {
        let ns = graph.neighbors(v);
        for &e in ns {
            buf.put_u32_le(e);
        }
        for _ in ns.len()..slots {
            buf.put_u32_le(0);
        }
    }
    buf.freeze()
}

/// Decodes a flat graph.
pub fn decode_flat_graph(mut buf: Bytes) -> Result<FlatGraph, PersistError> {
    check_header(&mut buf, KIND_FLAT_GRAPH)?;
    if buf.remaining() < 16 {
        return Err(PersistError::Truncated);
    }
    let slots = buf.get_u64_le() as usize;
    let n = buf.get_u64_le() as usize;
    backed(n, 4, buf.remaining())?;
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(buf.get_u32_le());
    }
    let want = n.checked_mul(slots).ok_or(PersistError::Truncated)?;
    backed(want, 4, buf.remaining())?;
    let mut edges = Vec::with_capacity(want);
    for _ in 0..want {
        edges.push(buf.get_u32_le());
    }
    // Rebuild through an adjacency graph to reuse the flat constructor;
    // a neighbour id outside the graph could not be served.
    let lists = (0..n)
        .map(|v| {
            let live = &edges[v * slots..v * slots + (counts[v] as usize).min(slots)];
            if live.iter().any(|&e| e as usize >= n) {
                return Err(PersistError::Truncated);
            }
            Ok(live.to_vec())
        })
        .collect::<Result<_, _>>()?;
    let adj = crate::graph::AdjacencyGraph::from_lists(lists);
    Ok(FlatGraph::from_adjacency(&adj, Some(slots.max(1))))
}

/// Writes an affine codec's tag and parameters: `codec | dim | len | mins
/// | deltas`.
fn put_affine_head<W: Width>(buf: &mut BytesMut, tag: u8, q: &AffineStore<W>) {
    buf.put_u8(tag);
    buf.put_u64_le(q.dim() as u64);
    buf.put_u64_le(q.len() as u64);
    for &m in q.mins() {
        buf.put_f32_le(m);
    }
    for &d in q.deltas() {
        buf.put_f32_le(d);
    }
}

/// An affine codec section at width `W`, padding stripped.
fn encode_affine<W: Width>(tag: u8, q: &AffineStore<W>) -> Bytes {
    let codes = q.to_packed_codes();
    let mut buf = header(KIND_CODEC, 17 + q.dim() * 8 + codes.len());
    put_affine_head(&mut buf, tag, q);
    buf.put_slice(&codes);
    buf.freeze()
}

/// Reads an affine codec body at width `W` (after its tag).
fn decode_affine<W: Width>(buf: &mut Bytes) -> Result<Box<dyn CodecStore>, PersistError> {
    if buf.remaining() < 16 {
        return Err(PersistError::Truncated);
    }
    let dim = buf.get_u64_le() as usize;
    let len = buf.get_u64_le() as usize;
    if dim == 0 {
        return Err(PersistError::Truncated);
    }
    backed(dim, 8, buf.remaining())?;
    let mut mins = Vec::with_capacity(dim);
    for _ in 0..dim {
        mins.push(buf.get_f32_le());
    }
    let mut deltas = Vec::with_capacity(dim);
    for _ in 0..dim {
        deltas.push(buf.get_f32_le());
    }
    let want =
        AffineStore::<W>::row_bytes(dim).checked_mul(len).ok_or(PersistError::Truncated)?;
    backed(want, 1, buf.remaining())?;
    let mut packed = vec![0u8; want];
    buf.copy_to_slice(&mut packed);
    Ok(Box::new(AffineStore::<W>::from_parts(dim, mins, deltas, packed)))
}

/// Encodes any [`CodecStore`] as a tagged codec section (see the module
/// docs). All three codecs persist their packed logical bytes; padded and
/// aligned layouts are rebuilt on load.
pub fn encode_codec(codec: &dyn CodecStore) -> Bytes {
    let any = codec.as_any();
    if let Some(q) = any.downcast_ref::<QuantizedStore>() {
        encode_affine(CODEC_SQ8, q)
    } else if let Some(q) = any.downcast_ref::<Sq4Store>() {
        encode_affine(CODEC_SQ4, q)
    } else if let Some(q) = any.downcast_ref::<PqStore>() {
        // Files keep the centroid-major order whatever the serving layout.
        let centroids = q.centroids();
        let mut buf = header(
            KIND_CODEC,
            33 + q.dim() * 4 + centroids.len() * 4 + q.len() * q.m().div_ceil(2),
        );
        buf.put_u8(CODEC_PQ);
        buf.put_u64_le(q.dim() as u64);
        buf.put_u64_le(q.m() as u64);
        buf.put_u64_le(q.ncent() as u64);
        buf.put_u64_le(q.len() as u64);
        for &d in q.perm() {
            buf.put_u32_le(d);
        }
        for c in centroids {
            buf.put_f32_le(c);
        }
        buf.put_slice(&q.to_packed_codes());
        buf.freeze()
    } else {
        unreachable!("unknown CodecStore implementation {:?}", codec.spec())
    }
}

/// Decodes a tagged codec section into the matching [`CodecStore`].
pub fn decode_codec(mut buf: Bytes) -> Result<Box<dyn CodecStore>, PersistError> {
    check_header(&mut buf, KIND_CODEC)?;
    if buf.remaining() < 1 {
        return Err(PersistError::Truncated);
    }
    match buf.get_u8() {
        CODEC_SQ8 => decode_affine::<U8>(&mut buf),
        CODEC_SQ4 => decode_affine::<U4>(&mut buf),
        CODEC_PQ => {
            if buf.remaining() < 32 {
                return Err(PersistError::Truncated);
            }
            let dim = buf.get_u64_le() as usize;
            let m = buf.get_u64_le() as usize;
            let ncent = buf.get_u64_le() as usize;
            let len = buf.get_u64_le() as usize;
            if dim == 0
                || m == 0
                || m > dim
                || !dim.is_multiple_of(m)
                || ncent == 0
                || ncent > 16
            {
                return Err(PersistError::Truncated);
            }
            backed(dim, 4, buf.remaining())?;
            let mut perm = Vec::with_capacity(dim);
            let mut seen = vec![false; dim];
            for _ in 0..dim {
                let d = buf.get_u32_le();
                if d as usize >= dim || std::mem::replace(&mut seen[d as usize], true) {
                    return Err(PersistError::Truncated);
                }
                perm.push(d);
            }
            let cents = pq_codebook_len(dim, m)?;
            backed(cents, 4, buf.remaining())?;
            let mut centroids = Vec::with_capacity(cents);
            for _ in 0..cents {
                centroids.push(buf.get_f32_le());
            }
            let want = m.div_ceil(2).checked_mul(len).ok_or(PersistError::Truncated)?;
            backed(want, 1, buf.remaining())?;
            let mut packed = vec![0u8; want];
            buf.copy_to_slice(&mut packed);
            Ok(Box::new(PqStore::from_parts(dim, m, ncent, perm, &centroids, packed)))
        }
        tag => Err(PersistError::UnknownCodec(tag)),
    }
}

/// Encodes a reorder permutation (the `new → old` placement order; the
/// inverse table is cheap to rebuild, so only one direction is stored).
pub fn encode_permutation(map: &IdRemap) -> Bytes {
    let mut buf = header(KIND_PERM, 8 + map.len() * 4);
    buf.put_u64_le(map.len() as u64);
    for &old in map.new_to_old() {
        buf.put_u32_le(old);
    }
    buf.freeze()
}

/// Decodes a reorder permutation, re-validating that it is a bijection.
pub fn decode_permutation(mut buf: Bytes) -> Result<IdRemap, PersistError> {
    check_header(&mut buf, KIND_PERM)?;
    if buf.remaining() < 8 {
        return Err(PersistError::Truncated);
    }
    let n = buf.get_u64_le() as usize;
    if buf.remaining() < n.checked_mul(4).ok_or(PersistError::Truncated)? {
        return Err(PersistError::Truncated);
    }
    let mut new_to_old = Vec::with_capacity(n);
    for _ in 0..n {
        new_to_old.push(buf.get_u32_le());
    }
    IdRemap::from_new_to_old(new_to_old).map_err(PersistError::NotAPermutation)
}

/// Writes a store to `path`.
pub fn save_store(store: &VectorStore, path: &Path) -> Result<(), PersistError> {
    fs::write(path, encode_store(store))?;
    Ok(())
}

/// Reads a store from `path`.
pub fn load_store(path: &Path) -> Result<VectorStore, PersistError> {
    decode_store(Bytes::from(fs::read(path)?))
}

/// Writes a flat graph to `path`.
pub fn save_flat_graph(graph: &FlatGraph, path: &Path) -> Result<(), PersistError> {
    fs::write(path, encode_flat_graph(graph))?;
    Ok(())
}

/// Reads a flat graph from `path`.
pub fn load_flat_graph(path: &Path) -> Result<FlatGraph, PersistError> {
    decode_flat_graph(Bytes::from(fs::read(path)?))
}

/// Writes a codec store to `path`.
pub fn save_codec(codec: &dyn CodecStore, path: &Path) -> Result<(), PersistError> {
    fs::write(path, encode_codec(codec))?;
    Ok(())
}

/// Reads a codec store from `path`.
pub fn load_codec(path: &Path) -> Result<Box<dyn CodecStore>, PersistError> {
    decode_codec(Bytes::from(fs::read(path)?))
}

/// Writes a reorder permutation to `path`.
pub fn save_permutation(map: &IdRemap, path: &Path) -> Result<(), PersistError> {
    fs::write(path, encode_permutation(map))?;
    Ok(())
}

/// Reads a reorder permutation from `path`.
pub fn load_permutation(path: &Path) -> Result<IdRemap, PersistError> {
    decode_permutation(Bytes::from(fs::read(path)?))
}

// --- mapped sections ----------------------------------------------------

/// Reads just the kind byte of a GASS file (validating magic and version)
/// without touching the payload — how [`open_store`]/[`open_codec`]
/// dispatch between heap and mapped representations.
pub fn peek_kind(path: &Path) -> Result<u8, PersistError> {
    let mut head = [0u8; 6];
    fs::File::open(path)?.read_exact(&mut head).map_err(|_| PersistError::BadMagic)?;
    if &head[..4] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    if head[4] != VERSION {
        return Err(PersistError::BadVersion(head[4]));
    }
    Ok(head[5])
}

/// A tiny byte cursor for parsing mapped-section headers in place (the
/// `Bytes` helpers would need the whole — possibly huge — file copied
/// into an owned buffer first).
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn get_u64_le(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn get_u32_le(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn get_f32_le(&mut self) -> Result<f32, PersistError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn check_header(&mut self, expected_kind: u8) -> Result<(), PersistError> {
        if self.take(4).map_err(|_| PersistError::BadMagic)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = self.get_u8().map_err(|_| PersistError::BadMagic)?;
        if version != VERSION {
            return Err(PersistError::BadVersion(version));
        }
        let kind = self.get_u8().map_err(|_| PersistError::BadMagic)?;
        if kind != expected_kind {
            return Err(PersistError::WrongKind { found: kind, expected: expected_kind });
        }
        Ok(())
    }
}

/// Streams a mapped-layout store file row by row — the writer behind
/// [`save_store_mapped`], exposed so dataset generators can emit tiers
/// larger than RAM without ever materializing the store on the heap.
pub struct MappedStoreWriter {
    out: io::BufWriter<fs::File>,
    dim: usize,
    stride: usize,
    len: usize,
    written: usize,
}

impl MappedStoreWriter {
    /// Creates `path` and writes the mapped-store header for `len` rows of
    /// dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn create(path: &Path, dim: usize, len: usize) -> Result<Self, PersistError> {
        assert!(dim > 0, "vector dimension must be positive");
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        let mut head = [0u8; MAP_DATA_ALIGN];
        head[..4].copy_from_slice(MAGIC);
        head[4] = VERSION;
        head[5] = KIND_MSTORE;
        head[6..14].copy_from_slice(&(dim as u64).to_le_bytes());
        head[14..22].copy_from_slice(&(len as u64).to_le_bytes());
        out.write_all(&head)?;
        Ok(Self { out, dim, stride: crate::store::aligned_stride(dim), len, written: 0 })
    }

    /// Appends one row (zero-padded to the aligned stride on disk).
    ///
    /// # Panics
    /// Panics on a row of the wrong dimension or past the declared length.
    pub fn push_row(&mut self, row: &[f32]) -> Result<(), PersistError> {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        assert!(self.written < self.len, "more rows than declared");
        for &x in row {
            self.out.write_all(&x.to_le_bytes())?;
        }
        for _ in self.dim..self.stride {
            self.out.write_all(&0f32.to_le_bytes())?;
        }
        self.written += 1;
        Ok(())
    }

    /// Flushes and closes the file.
    ///
    /// # Panics
    /// Panics if fewer rows than declared were pushed.
    pub fn finish(mut self) -> Result<(), PersistError> {
        assert_eq!(self.written, self.len, "fewer rows than declared");
        self.out.flush()?;
        Ok(())
    }
}

/// Writes a store to `path` in the mapped layout (padded rows in place).
pub fn save_store_mapped(store: &VectorStore, path: &Path) -> Result<(), PersistError> {
    let mut w = MappedStoreWriter::create(path, store.dim(), store.len())?;
    for (_, row) in store.iter() {
        w.push_row(row)?;
    }
    w.finish()
}

/// A mapped store's `dim`, `len`, row stride and row-area bytes, once the
/// file is known to hold that area.
fn mstore_header(bytes: &[u8]) -> Result<(usize, usize, usize, usize), PersistError> {
    let mut cur = Cursor::new(bytes);
    cur.check_header(KIND_MSTORE)?;
    let dim = cur.get_u64_le()? as usize;
    let len = cur.get_u64_le()? as usize;
    if dim == 0 {
        return Err(PersistError::Truncated);
    }
    // Rounding `dim` up to whole lines cannot overflow once `dim + 15`
    // does not.
    dim.checked_add(15).ok_or(PersistError::Truncated)?;
    let stride = crate::store::aligned_stride(dim);
    let want = stride.checked_mul(4).and_then(|row| row.checked_mul(len));
    let want = want.ok_or(PersistError::Truncated)?;
    let rows_area = bytes.len().checked_sub(MAP_DATA_ALIGN).ok_or(PersistError::Truncated)?;
    backed(want, 1, rows_area)?;
    Ok((dim, len, stride, want))
}

fn mapped_store_view(buf: Arc<MmapBuf>) -> Result<VectorStore, PersistError> {
    let (dim, len, _, want) = mstore_header(buf.as_bytes())?;
    let region = MmapRegion::new(buf, MAP_DATA_ALIGN, want);
    // Graph traversal touches rows in id order only by accident.
    region.advise(Advice::Random);
    Ok(VectorStore::from_mapped(dim, len, region))
}

/// Opens a mapped-layout store file: a live mapping when enabled and
/// supported, otherwise a file-backed parse into an aligned heap store
/// (same vectors, same ids — only residency differs).
pub fn open_store_mapped(path: &Path) -> Result<VectorStore, PersistError> {
    if crate::mmap::mmap_enabled() {
        if let Ok(buf) = MmapBuf::open_mapped(path) {
            return mapped_store_view(buf);
        }
    }
    let raw = fs::read(path)?;
    let (dim, len, stride, want) = mstore_header(&raw)?;
    let mut store = VectorStore::aligned_with_capacity(dim, len);
    // Grown by the first row, so a header whose `dim` no row backs (an
    // empty store) allocates nothing for it.
    let mut row = Vec::new();
    for line in raw[MAP_DATA_ALIGN..MAP_DATA_ALIGN + want].chunks_exact(stride * 4) {
        row.clear();
        row.extend(
            line[..dim * 4].chunks_exact(4).map(|b| f32::from_le_bytes(b.try_into().unwrap())),
        );
        store.push(&row);
    }
    Ok(store)
}

/// Opens a store file of either representation: packed ([`KIND_STORE`],
/// re-aligned in memory by callers as usual) or mapped.
pub fn open_store(path: &Path) -> Result<VectorStore, PersistError> {
    match peek_kind(path)? {
        KIND_MSTORE => open_store_mapped(path),
        _ => load_store(path),
    }
}

/// Writes a codec store to `path` in the mapped layout: the codec-section
/// parameters, zero pad to a 64-byte boundary, then the padded code rows
/// exactly as the kernels scan them.
pub fn save_codec_mapped(codec: &dyn CodecStore, path: &Path) -> Result<(), PersistError> {
    let any = codec.as_any();
    let mut head = header(KIND_MCODEC, 64);
    let (len, stride): (usize, usize) = if let Some(q) = any.downcast_ref::<QuantizedStore>() {
        put_affine_head(&mut head, CODEC_SQ8, q);
        (q.len(), q.stride())
    } else if let Some(q) = any.downcast_ref::<Sq4Store>() {
        put_affine_head(&mut head, CODEC_SQ4, q);
        (q.len(), q.stride())
    } else if let Some(q) = any.downcast_ref::<PqStore>() {
        head.put_u8(CODEC_PQ);
        head.put_u64_le(q.dim() as u64);
        head.put_u64_le(q.m() as u64);
        head.put_u64_le(q.ncent() as u64);
        head.put_u64_le(q.len() as u64);
        for &d in q.perm() {
            head.put_u32_le(d);
        }
        for c in q.centroids() {
            head.put_f32_le(c);
        }
        (q.len(), q.stride())
    } else {
        unreachable!("unknown CodecStore implementation {:?}", codec.spec())
    };
    while !head.len().is_multiple_of(MAP_DATA_ALIGN) {
        head.put_u8(0);
    }
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    out.write_all(head.as_ref())?;
    for id in 0..len as u32 {
        out.write_all(codec.code_row(id))?;
    }
    // PQ strides are 16-byte; pad the code area tail to whole lines.
    let tail = (len * stride).next_multiple_of(MAP_DATA_ALIGN) - len * stride;
    out.write_all(&vec![0u8; tail])?;
    out.flush()?;
    Ok(())
}

/// Parsed parameter block of a mapped codec section, plus the layout the
/// code area must have.
struct McodecHead {
    params: McodecParams,
    /// File offset of the code area (64-byte aligned).
    data_offset: usize,
    /// Code-area bytes (tail padding included).
    code_bytes: usize,
    /// Logical bytes per row (padding stripped) — the heap-fallback width.
    row_bytes: usize,
    /// Padded bytes per row.
    stride: usize,
    len: usize,
}

enum McodecParams {
    Affine { tag: u8, dim: usize, mins: Vec<f32>, deltas: Vec<f32> },
    Pq { dim: usize, m: usize, ncent: usize, perm: Vec<u32>, centroids: Vec<f32> },
}

fn mcodec_header(bytes: &[u8]) -> Result<McodecHead, PersistError> {
    let mut cur = Cursor::new(bytes);
    cur.check_header(KIND_MCODEC)?;
    let tag = cur.get_u8()?;
    let (params, len, row_bytes, stride) = match tag {
        CODEC_SQ8 | CODEC_SQ4 => {
            let dim = cur.get_u64_le()? as usize;
            let len = cur.get_u64_le()? as usize;
            if dim == 0 {
                return Err(PersistError::Truncated);
            }
            backed(dim, 8, cur.remaining())?;
            let mut mins = Vec::with_capacity(dim);
            for _ in 0..dim {
                mins.push(cur.get_f32_le()?);
            }
            let mut deltas = Vec::with_capacity(dim);
            for _ in 0..dim {
                deltas.push(cur.get_f32_le()?);
            }
            let (row_bytes, stride) = if tag == CODEC_SQ8 {
                (QuantizedStore::row_bytes(dim), QuantizedStore::stride_for(dim))
            } else {
                (Sq4Store::row_bytes(dim), Sq4Store::stride_for(dim))
            };
            (McodecParams::Affine { tag, dim, mins, deltas }, len, row_bytes, stride)
        }
        CODEC_PQ => {
            let dim = cur.get_u64_le()? as usize;
            let m = cur.get_u64_le()? as usize;
            let ncent = cur.get_u64_le()? as usize;
            let len = cur.get_u64_le()? as usize;
            if dim == 0
                || m == 0
                || m > dim
                || !dim.is_multiple_of(m)
                || !(1..=16).contains(&ncent)
            {
                return Err(PersistError::Truncated);
            }
            backed(dim, 4, cur.remaining())?;
            let mut perm = Vec::with_capacity(dim);
            let mut seen = vec![false; dim];
            for _ in 0..dim {
                let d = cur.get_u32_le()?;
                if d as usize >= dim || std::mem::replace(&mut seen[d as usize], true) {
                    return Err(PersistError::Truncated);
                }
                perm.push(d);
            }
            let cents = pq_codebook_len(dim, m)?;
            backed(cents, 4, cur.remaining())?;
            let mut centroids = Vec::with_capacity(cents);
            for _ in 0..cents {
                centroids.push(cur.get_f32_le()?);
            }
            (
                McodecParams::Pq { dim, m, ncent, perm, centroids },
                len,
                m.div_ceil(2),
                crate::quant::pq::pq_stride(m),
            )
        }
        tag => return Err(PersistError::UnknownCodec(tag)),
    };
    let data_offset = cur.pos.next_multiple_of(MAP_DATA_ALIGN);
    let code_bytes = len
        .checked_mul(stride)
        .and_then(|x| x.checked_next_multiple_of(MAP_DATA_ALIGN))
        .ok_or(PersistError::Truncated)?;
    if data_offset.checked_add(code_bytes).is_none_or(|end| end > bytes.len()) {
        return Err(PersistError::Truncated);
    }
    Ok(McodecHead { params, data_offset, code_bytes, row_bytes, stride, len })
}

fn mapped_codec_view(buf: Arc<MmapBuf>) -> Result<Box<dyn CodecStore>, PersistError> {
    let head = mcodec_header(buf.as_bytes())?;
    let region = MmapRegion::new(buf, head.data_offset, head.code_bytes);
    region.advise(Advice::Random);
    Ok(match head.params {
        McodecParams::Affine { tag: CODEC_SQ8, dim, mins, deltas } => {
            Box::new(QuantizedStore::from_parts_mapped(dim, mins, deltas, head.len, region))
        }
        McodecParams::Affine { dim, mins, deltas, .. } => {
            Box::new(Sq4Store::from_parts_mapped(dim, mins, deltas, head.len, region))
        }
        McodecParams::Pq { dim, m, ncent, perm, centroids } => Box::new(
            PqStore::from_parts_mapped(dim, m, ncent, perm, &centroids, head.len, region),
        ),
    })
}

/// Opens a mapped-layout codec file: a live mapping when enabled and
/// supported, otherwise a parse into the ordinary heap codec.
pub fn open_codec_mapped(path: &Path) -> Result<Box<dyn CodecStore>, PersistError> {
    if crate::mmap::mmap_enabled() {
        if let Ok(buf) = MmapBuf::open_mapped(path) {
            return mapped_codec_view(buf);
        }
    }
    let raw = fs::read(path)?;
    let head = mcodec_header(&raw)?;
    // Strip the row padding back to the packed representation and reuse
    // the validated heap constructors.
    let mut packed = Vec::with_capacity(head.len * head.row_bytes);
    for i in 0..head.len {
        let start = head.data_offset + i * head.stride;
        packed.extend_from_slice(&raw[start..start + head.row_bytes]);
    }
    Ok(match head.params {
        McodecParams::Affine { tag: CODEC_SQ8, dim, mins, deltas } => {
            Box::new(QuantizedStore::from_parts(dim, mins, deltas, packed))
        }
        McodecParams::Affine { dim, mins, deltas, .. } => {
            Box::new(Sq4Store::from_parts(dim, mins, deltas, packed))
        }
        McodecParams::Pq { dim, m, ncent, perm, centroids } => {
            Box::new(PqStore::from_parts(dim, m, ncent, perm, &centroids, packed))
        }
    })
}

/// Opens a codec file of either representation: tagged codec section or
/// mapped codec.
pub fn open_codec(path: &Path) -> Result<Box<dyn CodecStore>, PersistError> {
    match peek_kind(path)? {
        KIND_MCODEC => open_codec_mapped(path),
        _ => load_codec(path),
    }
}

// --- shard tables -------------------------------------------------------

/// The routing half of a sharded index: per-shard centroids plus the
/// global ids each shard holds (see [`crate::sharded`]).
#[derive(Clone, Debug)]
pub struct ShardTable {
    /// Shards searched per query (the persisted default).
    pub nprobe: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// `shards * dim` floats, shard `s`'s centroid at `[s*dim..][..dim]`.
    pub centroids: Vec<f32>,
    /// Per-shard global id lists (`shard_ids[s][local] = global`); the
    /// lists partition `0..total`.
    pub shard_ids: Vec<Vec<u32>>,
}

/// Encodes a shard table.
pub fn encode_shard_table(table: &ShardTable) -> Bytes {
    let total: usize = table.shard_ids.iter().map(Vec::len).sum();
    let mut buf = header(
        KIND_SHARDS,
        32 + table.centroids.len() * 4 + table.shard_ids.len() * 8 + total * 4,
    );
    buf.put_u64_le(table.nprobe as u64);
    buf.put_u64_le(table.dim as u64);
    buf.put_u64_le(table.shard_ids.len() as u64);
    buf.put_u64_le(total as u64);
    for &c in &table.centroids {
        buf.put_f32_le(c);
    }
    for ids in &table.shard_ids {
        buf.put_u64_le(ids.len() as u64);
        for &id in ids {
            buf.put_u32_le(id);
        }
    }
    buf.freeze()
}

/// Decodes a shard table, re-validating that the id lists partition the
/// id space.
pub fn decode_shard_table(mut buf: Bytes) -> Result<ShardTable, PersistError> {
    check_header(&mut buf, KIND_SHARDS)?;
    if buf.remaining() < 32 {
        return Err(PersistError::Truncated);
    }
    let nprobe = buf.get_u64_le() as usize;
    let dim = buf.get_u64_le() as usize;
    let shards = buf.get_u64_le() as usize;
    let total = buf.get_u64_le() as usize;
    if dim == 0 || shards == 0 || nprobe == 0 || nprobe > shards {
        return Err(PersistError::Truncated);
    }
    // Every count below sizes an allocation, so each is first bounded by
    // the bytes that are actually left to back it.
    let cents = shards.checked_mul(dim).filter(|&c| c <= buf.remaining() / 4);
    let cents = cents.ok_or(PersistError::Truncated)?;
    let mut centroids = Vec::with_capacity(cents);
    for _ in 0..cents {
        centroids.push(buf.get_f32_le());
    }
    // What follows is `shards` length words and `total` ids.
    let need = shards.checked_mul(8).and_then(|s| total.checked_mul(4)?.checked_add(s));
    if need.is_none_or(|need| need > buf.remaining()) {
        return Err(PersistError::Truncated);
    }
    let mut shard_ids = Vec::with_capacity(shards);
    let mut seen = vec![false; total];
    for _ in 0..shards {
        if buf.remaining() < 8 {
            return Err(PersistError::Truncated);
        }
        let len = buf.get_u64_le() as usize;
        if buf.remaining() < len.checked_mul(4).ok_or(PersistError::Truncated)? {
            return Err(PersistError::Truncated);
        }
        let mut ids = Vec::with_capacity(len);
        for _ in 0..len {
            let id = buf.get_u32_le();
            if id as usize >= total || std::mem::replace(&mut seen[id as usize], true) {
                return Err(PersistError::NotAPermutation(format!(
                    "shard id {id} repeats or exceeds the declared total {total}"
                )));
            }
            ids.push(id);
        }
        shard_ids.push(ids);
    }
    if seen.iter().any(|&s| !s) {
        return Err(PersistError::NotAPermutation(format!(
            "shard id lists do not cover 0..{total}"
        )));
    }
    Ok(ShardTable { nprobe, dim, centroids, shard_ids })
}

/// Writes a shard table to `path`.
pub fn save_shard_table(table: &ShardTable, path: &Path) -> Result<(), PersistError> {
    fs::write(path, encode_shard_table(table))?;
    Ok(())
}

/// Reads a shard table from `path`.
pub fn load_shard_table(path: &Path) -> Result<ShardTable, PersistError> {
    decode_shard_table(Bytes::from(fs::read(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{AdjacencyGraph, GraphView};

    fn sample_store() -> VectorStore {
        VectorStore::from_flat(3, vec![1.0, 2.0, 3.0, -4.5, 0.0, 9.25])
    }

    fn sample_graph() -> FlatGraph {
        let mut g = AdjacencyGraph::new(4);
        g.set_neighbors(0, vec![1, 2]);
        g.set_neighbors(1, vec![0]);
        g.set_neighbors(2, vec![3, 0, 1]);
        FlatGraph::from_adjacency(&g, Some(3))
    }

    #[test]
    fn store_roundtrip() {
        let store = sample_store();
        let decoded = decode_store(encode_store(&store)).unwrap();
        assert_eq!(decoded.dim(), 3);
        assert_eq!(decoded.as_flat(), store.as_flat());
    }

    #[test]
    fn graph_roundtrip() {
        let g = sample_graph();
        let decoded = decode_flat_graph(encode_flat_graph(&g)).unwrap();
        assert_eq!(decoded.num_nodes(), 4);
        for v in 0..4 {
            assert_eq!(decoded.neighbors(v), g.neighbors(v), "node {v}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("gass_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let store_path = dir.join("store.gass");
        let graph_path = dir.join("graph.gass");
        save_store(&sample_store(), &store_path).unwrap();
        save_flat_graph(&sample_graph(), &graph_path).unwrap();
        assert_eq!(load_store(&store_path).unwrap().len(), 2);
        assert_eq!(load_flat_graph(&graph_path).unwrap().num_edges(), 6);
    }

    #[test]
    fn codec_roundtrip_preserves_codes_for_every_codec() {
        let store = VectorStore::from_flat(
            6,
            (0..90).map(|i| ((i * 13) as f32 * 0.31).sin() * 5.0).collect(),
        );
        let query = [0.5f32, -1.0, 2.0, 0.0, 1.25, -0.75];
        let codecs: Vec<Box<dyn CodecStore>> = vec![
            Box::new(QuantizedStore::from_store(&store)),
            Box::new(Sq4Store::from_store(&store)),
            Box::new(PqStore::from_store(&store, Some(2))),
        ];
        for codec in codecs {
            let decoded = decode_codec(encode_codec(codec.as_ref())).unwrap();
            assert_eq!(decoded.spec(), codec.spec());
            assert_eq!(decoded.len(), codec.len());
            assert_eq!(decoded.dim(), codec.dim());
            let mut pq_a = crate::quant::PreparedQuery::default();
            let mut pq_b = crate::quant::PreparedQuery::default();
            codec.prepare_into(&query, &mut pq_a);
            decoded.prepare_into(&query, &mut pq_b);
            for id in 0..codec.len() as u32 {
                assert_eq!(
                    decoded.code_row(id),
                    codec.code_row(id),
                    "{} row {id}",
                    codec.spec()
                );
                assert_eq!(
                    decoded.dist_prepared(&pq_b, id).to_bits(),
                    codec.dist_prepared(&pq_a, id).to_bits(),
                    "{} distance {id}",
                    codec.spec()
                );
            }
        }
    }

    #[test]
    fn codec_file_roundtrip_truncation_and_unknown_tag() {
        let store = sample_store();
        let codec = Sq4Store::from_store(&store);
        let dir = std::env::temp_dir().join("gass_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("codec.gass");
        save_codec(&codec, &path).unwrap();
        let back = load_codec(&path).unwrap();
        assert_eq!(back.spec(), crate::quant::CodecSpec::Sq4);
        assert_eq!(back.len(), 2);
        let bytes = encode_codec(&codec);
        let cut = bytes.slice(0..bytes.len() - 1);
        assert!(matches!(decode_codec(cut).unwrap_err(), PersistError::Truncated));
        assert!(matches!(
            decode_codec(encode_store(&store)).unwrap_err(),
            PersistError::WrongKind { .. }
        ));
        let mut raw = bytes.to_vec();
        raw[6] = 99; // codec tag byte
        assert!(matches!(
            decode_codec(Bytes::from(raw)).unwrap_err(),
            PersistError::UnknownCodec(99)
        ));
    }

    /// Kind 3, the retired SQ8-only section, is refused with an error.
    #[test]
    fn retired_kind_3_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("gass_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kind3.gass");
        let mut raw = encode_codec(&QuantizedStore::from_store(&sample_store())).to_vec();
        raw[5] = 3; // kind byte
        std::fs::write(&path, raw).unwrap();
        assert!(matches!(
            open_codec(&path).unwrap_err(),
            PersistError::WrongKind { found: 3, expected: KIND_CODEC }
        ));
    }

    #[test]
    fn permutation_roundtrip_and_rejection() {
        let map = IdRemap::from_new_to_old(vec![3, 0, 2, 1]).unwrap();
        let decoded = decode_permutation(encode_permutation(&map)).unwrap();
        assert_eq!(decoded, map);
        for old in 0..4u32 {
            assert_eq!(decoded.to_old(decoded.to_new(old)), old);
        }
        // File round-trip.
        let dir = std::env::temp_dir().join("gass_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perm.gass");
        save_permutation(&map, &path).unwrap();
        assert_eq!(load_permutation(&path).unwrap(), map);
        // Truncation.
        let bytes = encode_permutation(&map);
        let cut = bytes.slice(0..bytes.len() - 1);
        assert!(matches!(decode_permutation(cut).unwrap_err(), PersistError::Truncated));
        // Kind mismatch both ways.
        assert!(matches!(
            decode_permutation(encode_store(&sample_store())).unwrap_err(),
            PersistError::WrongKind { .. }
        ));
        assert!(matches!(
            decode_store(encode_permutation(&map)).unwrap_err(),
            PersistError::WrongKind { .. }
        ));
        // A tampered payload that is no longer a bijection is rejected.
        let mut raw = encode_permutation(&map).to_vec();
        raw[18] = 3; // second entry 0 -> 3: id 3 now appears twice
        assert!(matches!(
            decode_permutation(Bytes::from(raw)).unwrap_err(),
            PersistError::NotAPermutation(_)
        ));
    }

    /// Serializes the tests that flip the process-wide mmap toggle.
    static MMAP_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn mapped_store_roundtrips_and_matches_heap() {
        let _guard = MMAP_FLAG.lock().unwrap();
        let store = VectorStore::from_flat(
            5,
            (0..85).map(|i| ((i * 11) as f32 * 0.37).sin() * 3.0).collect(),
        )
        .to_aligned();
        let dir = std::env::temp_dir().join("gass_persist_mapped");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mstore.gass");
        save_store_mapped(&store, &path).unwrap();
        // Kind sniffing dispatches to the mapped opener.
        assert_eq!(peek_kind(&path).unwrap(), KIND_MSTORE);
        for mapped_on in [true, false] {
            crate::mmap::set_mmap_enabled(mapped_on);
            let back = open_store(&path).unwrap();
            assert_eq!(back.len(), store.len());
            assert_eq!(back.dim(), store.dim());
            assert!(back.is_aligned());
            for id in 0..store.len() as u32 {
                assert_eq!(back.get(id), store.get(id), "row {id}, mapped={mapped_on}");
            }
            assert_eq!(back.is_mapped(), mapped_on && cfg!(unix));
        }
        crate::mmap::set_mmap_enabled(true);
        // Writing the loaded store back is byte-stable.
        let path2 = dir.join("mstore2.gass");
        save_store_mapped(&open_store(&path).unwrap(), &path2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&path2).unwrap());
        // open_store still reads the packed kind transparently.
        let packed = dir.join("packed.gass");
        save_store(&store, &packed).unwrap();
        assert_eq!(open_store(&packed).unwrap().as_flat(), store.to_packed().as_flat());
    }

    #[test]
    fn mapped_codec_roundtrips_bit_identically_for_every_codec() {
        let _guard = MMAP_FLAG.lock().unwrap();
        let store = VectorStore::from_flat(
            6,
            (0..120).map(|i| ((i * 7) as f32 * 0.29).cos() * 4.0).collect(),
        );
        let query = [0.25f32, -1.5, 2.0, 0.5, -0.75, 1.0];
        let codecs: Vec<Box<dyn CodecStore>> = vec![
            Box::new(QuantizedStore::from_store(&store)),
            Box::new(Sq4Store::from_store(&store)),
            Box::new(PqStore::from_store(&store, Some(3))),
        ];
        let dir = std::env::temp_dir().join("gass_persist_mapped");
        std::fs::create_dir_all(&dir).unwrap();
        for codec in codecs {
            let path = dir.join(format!("mcodec-{}.gass", codec.spec()));
            save_codec_mapped(codec.as_ref(), &path).unwrap();
            assert_eq!(peek_kind(&path).unwrap(), KIND_MCODEC);
            for mapped_on in [true, false] {
                crate::mmap::set_mmap_enabled(mapped_on);
                let back = open_codec(&path).unwrap();
                assert_eq!(back.spec(), codec.spec());
                assert_eq!(back.len(), codec.len());
                let mut pq_a = crate::quant::PreparedQuery::default();
                let mut pq_b = crate::quant::PreparedQuery::default();
                codec.prepare_into(&query, &mut pq_a);
                back.prepare_into(&query, &mut pq_b);
                for id in 0..codec.len() as u32 {
                    assert_eq!(
                        back.code_row(id),
                        codec.code_row(id),
                        "{} row {id}, mapped={mapped_on}",
                        codec.spec()
                    );
                    assert_eq!(
                        back.dist_prepared(&pq_b, id).to_bits(),
                        codec.dist_prepared(&pq_a, id).to_bits(),
                        "{} distance {id}, mapped={mapped_on}",
                        codec.spec()
                    );
                }
            }
            crate::mmap::set_mmap_enabled(true);
            // Tampered headers fail cleanly, not at the map boundary.
            let mut raw = std::fs::read(&path).unwrap();
            raw.truncate(raw.len() - 1);
            std::fs::write(dir.join("cut.gass"), raw).unwrap();
            assert!(matches!(
                open_codec(&dir.join("cut.gass")).unwrap_err(),
                PersistError::Truncated
            ));
        }
    }

    #[test]
    fn mapped_store_writer_streams_rows() {
        let dir = std::env::temp_dir().join("gass_persist_mapped");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("streamed.gass");
        let mut w = MappedStoreWriter::create(&path, 3, 4).unwrap();
        for i in 0..4 {
            w.push_row(&[i as f32, i as f32 + 0.5, -(i as f32)]).unwrap();
        }
        w.finish().unwrap();
        let back = open_store(&path).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back.get(2), &[2.0, 2.5, -2.0]);
        // Identical bytes to the one-shot writer over the same rows.
        let mut store = VectorStore::new(3);
        for i in 0..4 {
            store.push(&[i as f32, i as f32 + 0.5, -(i as f32)]);
        }
        let path2 = dir.join("oneshot.gass");
        save_store_mapped(&store, &path2).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&path2).unwrap());
    }

    #[test]
    fn shard_table_roundtrip_and_partition_validation() {
        let table = ShardTable {
            nprobe: 2,
            dim: 3,
            centroids: (0..9).map(|i| i as f32 * 0.5).collect(),
            shard_ids: vec![vec![0, 3, 4], vec![1, 5], vec![2, 6]],
        };
        let bytes = encode_shard_table(&table);
        let back = decode_shard_table(bytes.clone()).unwrap();
        assert_eq!(back.nprobe, 2);
        assert_eq!(back.dim, 3);
        assert_eq!(back.centroids, table.centroids);
        assert_eq!(back.shard_ids, table.shard_ids);
        // Byte-stable re-encode.
        assert_eq!(encode_shard_table(&back).as_ref(), bytes.as_ref());
        // Truncation and duplicate-id rejection.
        let cut = bytes.slice(0..bytes.len() - 1);
        assert!(matches!(decode_shard_table(cut).unwrap_err(), PersistError::Truncated));
        let mut dup = table.shard_ids.clone();
        dup[2][1] = 5; // id 5 now in two shards
        let bad = ShardTable {
            nprobe: table.nprobe,
            dim: table.dim,
            centroids: table.centroids.clone(),
            shard_ids: dup,
        };
        assert!(matches!(
            decode_shard_table(encode_shard_table(&bad)).unwrap_err(),
            PersistError::NotAPermutation(_)
        ));
        // File round-trip.
        let dir = std::env::temp_dir().join("gass_persist_mapped");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shards.gass");
        save_shard_table(&table, &path).unwrap();
        assert_eq!(load_shard_table(&path).unwrap().shard_ids, table.shard_ids);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = decode_store(Bytes::from_static(b"NOPE....")).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let bytes = encode_store(&sample_store());
        let err = decode_flat_graph(bytes).unwrap_err();
        assert!(matches!(err, PersistError::WrongKind { .. }));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_store(&sample_store());
        let cut = bytes.slice(0..bytes.len() - 3);
        let err = decode_store(cut).unwrap_err();
        assert!(matches!(err, PersistError::Truncated));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut raw = encode_store(&sample_store()).to_vec();
        raw[4] = 99; // version byte
        let err = decode_store(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, PersistError::BadVersion(99)));
    }
}
