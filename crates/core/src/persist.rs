//! Binary persistence for the core structures: vector stores, flat
//! graphs and shard tables.
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
//! A file holds the **pre-ladder** state only: the vectors, the graph
//! as built and, for a sharded index, its routing table. Codes,
//! reorder permutations, CSR and seed structures are not persisted: they
//! are deterministic functions of what is, so a loader re-applies them
//! (see [`crate::sharded::ShardedIndex::save`]).
//!
//! Payloads:
//! * store — `dim:u64 | len:u64 | f32 data`
//! * flat graph — `slots:u64 | nodes:u64 | counts:u32[] | edges:u32[]`
//! * mapped store — `dim:u64 | len:u64 | zero pad to offset 64 | rows`,
//!   each row `aligned_stride(dim)` zero-padded `f32`s: the store **in
//!   the serving layout**, so a loaded file can be memory-mapped and
//!   searched in place, cold rows faulting in on demand (the beyond-RAM
//!   tiers' on-disk format, see [`crate::mmap`]). [`open_store`] sniffs
//!   the kind byte and accepts either store kind; when mapping is
//!   disabled or unavailable a mapped file is parsed into an aligned heap
//!   store instead. Byte equality of the heap and mapped row layouts is
//!   what makes the mapped path observationally identical to the aligned
//!   heap path.
//! * shard table — `nprobe:u64 | dim:u64 | shards:u64 | total:u64 |
//!   centroids:f32[shards*dim] | per shard (len:u64 | ids:u32[len])` —
//!   the routing half of a sharded index ([`crate::sharded`]); the id
//!   lists are validated to partition `0..total` on load.
//!
//! Kinds 3, 4, 5 and 7 are retired (an SQ8-only codec section, the
//! reorder permutation, the tagged codec section and the mapped codec
//! section). They are never reused, so an old file fails with
//! [`PersistError::WrongKind`].

use crate::graph::FlatGraph;
use crate::mmap::{Advice, MmapBuf, MmapRegion};
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
// Section kinds 3, 4, 5 and 7 are retired (see the module docs).
/// Section kind: mapped vector store (page-aligned, stride-padded rows).
pub const KIND_MSTORE: u8 = 6;
/// Section kind: shard table (centroids + per-shard global id lists).
pub const KIND_SHARDS: u8 = 8;

/// File offset where a mapped section's row data begins (one cache line;
/// keeps every row 64-byte aligned when the mapping itself is
/// page-aligned).
const MAP_DATA_ALIGN: usize = 64;

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
    /// A shard table whose id lists do not partition the id space.
    NotAPermutation(String),
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

// --- mapped sections ----------------------------------------------------

/// Reads just the kind byte of a GASS file (validating magic and version)
/// without touching the payload — how [`open_store`] dispatches between
/// the heap and mapped representations.
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

    fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn get_u64_le(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
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

    /// Every retired kind is refused with an error by every loader.
    #[test]
    fn retired_kinds_are_errors_not_panics() {
        let dir = std::env::temp_dir().join("gass_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        for kind in [3u8, 4, 5, 7] {
            let path = dir.join(format!("kind{kind}.gass"));
            let mut raw = encode_store(&sample_store()).to_vec();
            raw[5] = kind; // kind byte
            std::fs::write(&path, raw).unwrap();
            let wrong = |err: PersistError, expected: u8| {
                assert!(
                    matches!(err, PersistError::WrongKind { found, expected: e }
                        if found == kind && e == expected),
                    "kind {kind}: {err}"
                );
            };
            wrong(load_store(&path).unwrap_err(), KIND_STORE);
            wrong(open_store(&path).unwrap_err(), KIND_STORE);
            wrong(load_flat_graph(&path).unwrap_err(), KIND_FLAT_GRAPH);
            wrong(load_shard_table(&path).unwrap_err(), KIND_SHARDS);
        }
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
