//! Hostile bytes against every section decoder behind `load_*` / `open_*`:
//! packed store, flat graph and mapped store (read both through a live
//! mapping and through the heap fallback). The shard table has its own
//! suite, `shard_table_hostile.rs`. Whatever a file holds, decoding
//! returns `Ok` or `Err` without a panic and without an allocation sized
//! by a header field the file cannot back.
//!
//! The allocation bound is on the largest single request, measured per
//! thread through a counting global allocator: `64 x file length`. The
//! defects this guards against asked for 2^40 floats on behalf of a 1 KiB
//! file, or wrapped `count * width` to a small number and then allocated
//! `count`.

use gass_core::graph::{AdjacencyGraph, FlatGraph};
use gass_core::mmap::set_mmap_enabled;
use gass_core::persist::{
    decode_flat_graph, decode_store, encode_flat_graph, encode_store, open_store,
    save_store_mapped,
};
use gass_core::VectorStore;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

thread_local! {
    /// The largest single allocation this thread asked for since the last
    /// reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// const-initialised thread-local without a destructor, so it neither
// allocates nor unwinds. (`realloc` and `alloc_zeroed` keep their default
// bodies, which allocate through `alloc` and so are counted too.)
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serialises the tests' flips of the process-wide mmap toggle.
static MMAP_MODE: Mutex<()> = Mutex::new(());

#[derive(Clone, Copy, Debug)]
enum Format {
    Store,
    FlatGraph,
    MappedStore,
}

const FORMATS: [Format; 3] = [Format::Store, Format::FlatGraph, Format::MappedStore];

/// File offsets of every format's two `u64` count fields, after the 6-byte
/// magic/version/kind header.
const COUNT_FIELDS: [usize; 2] = [6, 14];

/// A scratch directory removed on drop, unique per test.
struct TestDir(PathBuf);

impl TestDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("gass-hostile-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Self(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Format {
    fn mapped(self) -> bool {
        matches!(self, Format::MappedStore)
    }

    /// The section for `store` (and, for the graph, a ring over its rows).
    fn encode(self, store: &VectorStore, dir: &Path) -> Vec<u8> {
        let path = dir.join("valid.gass");
        match self {
            Format::Store => encode_store(store).to_vec(),
            Format::FlatGraph => {
                let n = store.len();
                let mut g = AdjacencyGraph::new(n);
                for u in 0..n {
                    g.set_neighbors(u as u32, vec![((u + 1) % n) as u32, ((u + 3) % n) as u32]);
                }
                encode_flat_graph(&FlatGraph::from_adjacency(&g, Some(3))).to_vec()
            }
            Format::MappedStore => {
                save_store_mapped(store, &path).expect("write a mapped store");
                std::fs::read(&path).expect("read it back")
            }
        }
    }

    /// Decodes `bytes` — a mapped section both through a live mapping and
    /// through the heap fallback, which must agree — and returns whether it
    /// decoded, plus the largest single allocation the decode made.
    fn decode(self, bytes: &[u8], dir: &Path) -> (bool, usize) {
        if !self.mapped() {
            let input = bytes::Bytes::from(bytes.to_vec());
            LARGEST.set(0);
            let ok = match self {
                Format::Store => decode_store(input).is_ok(),
                _ => decode_flat_graph(input).is_ok(),
            };
            return (ok, LARGEST.get());
        }
        let path = dir.join("hostile.gass");
        std::fs::write(&path, bytes).expect("write the hostile file");
        let _mode = MMAP_MODE.lock().unwrap_or_else(|e| e.into_inner());
        let runs = [true, false].map(|mapped| {
            set_mmap_enabled(mapped);
            LARGEST.set(0);
            let ok = open_store(&path).is_ok();
            (ok, LARGEST.get())
        });
        set_mmap_enabled(true);
        assert_eq!(runs[0].0, runs[1].0, "{self:?}: mapped and heap-parsed opens disagree");
        (runs[0].0, runs[0].1.max(runs[1].1))
    }

    /// Decodes `bytes`, asserts the allocation bound, returns whether it
    /// decoded.
    fn decode_bounded(self, bytes: &[u8], dir: &Path, what: &str) -> bool {
        let (ok, largest) = self.decode(bytes, dir);
        assert!(
            largest <= 64 * bytes.len(),
            "{self:?} {what}: decoding {} bytes allocated {largest} at once",
            bytes.len()
        );
        ok
    }
}

/// `rows` vectors of dimension `dim`, values from a seeded LCG.
fn sample_store(rows: usize, dim: usize, seed: u32) -> VectorStore {
    let mut state = seed | 1;
    let flat = (0..rows * dim)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 * 8.0 - 4.0
        })
        .collect();
    VectorStore::from_flat(dim, flat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every single-bit flip of the first 64 bytes (headers, every count
    /// field, the start of each payload) and every truncation point, for
    /// every format.
    #[test]
    fn every_bit_flip_and_truncation_is_an_ok_or_an_err(
        rows in 4usize..12,
        dim in 1usize..9,
        seed in 0u32..1_000,
    ) {
        let dir = TestDir::new(&format!("flips-{rows}-{dim}-{seed}"));
        let store = sample_store(rows, dim, seed);
        for format in FORMATS {
            let bytes = format.encode(&store, &dir.0);
            prop_assert!(format.decode_bounded(&bytes, &dir.0, "unmodified"), "{:?} decodes", format);
            for bit in 0..bytes.len().min(64) * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                format.decode_bounded(&flipped, &dir.0, &format!("bit {bit} flipped"));
            }
            for cut in 0..bytes.len() {
                let ok = format.decode_bounded(&bytes[..cut], &dir.0, &format!("cut at {cut}"));
                prop_assert!(!ok, "{:?} cut at {} of {} bytes decoded", format, cut, bytes.len());
            }
        }
    }
}

/// Each count field set to a value no file of this size can back must be an
/// `Err`, cheaply.
#[test]
fn every_hostile_count_is_an_err() {
    let dir = TestDir::new("counts");
    let store = sample_store(9, 6, 7);
    for format in FORMATS {
        let bytes = format.encode(&store, &dir.0);
        for at in COUNT_FIELDS {
            for hostile in [1u64 << 32, 1 << 60, 1 << 62, u64::MAX] {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                let what = format!("field at {at} = {hostile:#x}");
                assert!(
                    !format.decode_bounded(&bad, &dir.0, &what),
                    "{format:?} {what} decoded"
                );
            }
        }
    }
}

/// The reproductions against the remaining sections: headers whose counts were multiplied out with
/// wrapping arithmetic, or allocated for before any length check.
#[test]
fn the_reported_headers_are_errs() {
    let dir = TestDir::new("reported");
    let reported = |format: Format, store: VectorStore, fields: &[(usize, u64)]| {
        let mut bytes = format.encode(&store, &dir.0);
        for &(at, value) in fields {
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        let ok = format.decode_bounded(&bytes, &dir.0, "reported header");
        assert!(!ok, "{format:?} with {fields:x?} decoded");
    };
    // A one-dimensional store of 2^62 rows: `want * 4` wrapped to 0.
    reported(Format::Store, sample_store(4, 1, 5), &[(14, 1 << 62)]);
    // A graph of 2^62 nodes: `n * 4` wrapped to 0.
    reported(Format::FlatGraph, sample_store(6, 2, 5), &[(14, 1 << 62)]);
}
