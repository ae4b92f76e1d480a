//! Hostile bytes against `persist::decode_shard_table`, the first thing
//! `ShardedIndex::load` reads: whatever a `shards.gass` holds, decoding
//! returns (`Ok` or `Err`) without a panic and without an allocation sized
//! by a header field the file cannot back.
//!
//! The allocation bound is measured, per thread, through a counting global
//! allocator. It is `3 x file length`, not `1 x`: the decoded form is
//! itself larger than its encoding (a 24-byte `Vec` header per 8-byte
//! length word, one `seen` byte per 4-byte id), so 3 x is what a *valid*
//! table can need — while the defect this guards against asked for 2^60
//! bytes on behalf of a 54-byte file.

use gass_core::persist::{decode_shard_table, encode_shard_table, ShardTable};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated minus freed since the last reset,
    /// and the highest that balance has been.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only const-initialised
// thread-locals without destructors, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as isize);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (above).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Decodes `bytes` and returns whether it decoded, plus the peak number of
/// bytes the decode held beyond what was live when it started.
fn decode_measured(bytes: &[u8]) -> (bool, usize) {
    let input = bytes::Bytes::from(bytes.to_vec());
    LIVE.set(0);
    PEAK.set(0);
    let ok = decode_shard_table(input).is_ok();
    (ok, PEAK.get().max(0) as usize)
}

fn assert_bounded(bytes: &[u8], what: &str) -> bool {
    let (ok, peak) = decode_measured(bytes);
    assert!(
        peak <= 3 * bytes.len() + 256,
        "{what}: decoding {} bytes allocated {peak}",
        bytes.len()
    );
    ok
}

/// A valid table of `shards` shards over `total` ids dealt round-robin from
/// a seeded shuffle, `dim`-dimensional centroids.
fn table(shards: usize, dim: usize, total: usize, seed: u64) -> ShardTable {
    let mut order: Vec<u32> = (0..total as u32).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        order.swap(i, (state >> 33) as usize % (i + 1));
    }
    let mut shard_ids = vec![Vec::new(); shards];
    for (pos, id) in order.into_iter().enumerate() {
        shard_ids[pos % shards].push(id);
    }
    ShardTable {
        nprobe: 1 + seed as usize % shards,
        dim,
        centroids: (0..shards * dim).map(|i| i as f32 * 0.25 - 1.0).collect(),
        shard_ids,
    }
}

/// Offset of the four `u64` count fields (nprobe, dim, shards, total): they
/// follow the 6-byte magic/version/kind header.
const COUNTS_AT: usize = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every single-bit flip of the first 64 bytes (header, all four count
    /// fields, the first centroids) and every truncation point.
    #[test]
    fn shard_table_survives_every_bit_flip_and_truncation(
        shards in 1usize..6,
        dim in 1usize..5,
        extra in 0usize..40,
        seed in 0u64..1_000,
    ) {
        let bytes = encode_shard_table(&table(shards, dim, shards + extra, seed)).to_vec();
        prop_assert!(assert_bounded(&bytes, "unmodified"), "the unmodified table decodes");
        prop_assert!(decode_measured(&bytes).1 >= shards * dim * 4, "the allocator is counting");
        for bit in 0..bytes.len().min(64) * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_bounded(&flipped, &format!("bit {bit} flipped"));
        }
        for cut in 0..bytes.len() {
            let ok = assert_bounded(&bytes[..cut], &format!("cut at {cut}"));
            prop_assert!(!ok, "a table cut at {} of {} bytes decoded", cut, bytes.len());
        }
    }
}

/// The reproduction from the issue and its siblings: each count field set
/// to a value no file of this size can back must be an `Err`, cheaply.
#[test]
fn shard_table_rejects_hostile_counts() {
    // One shard, one dimension, one id: the 54-byte table.
    let small = encode_shard_table(&table(1, 1, 1, 0)).to_vec();
    assert_eq!(small.len(), 54);
    let large = encode_shard_table(&table(4, 3, 50, 7)).to_vec();
    for bytes in [&small, &large] {
        for field in 0..4 {
            for hostile in [u64::MAX, 1 << 60, 1 << 32] {
                let mut bad = bytes.clone();
                let at = COUNTS_AT + field * 8;
                bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                let ok = assert_bounded(&bad, &format!("field {field} = {hostile:#x}"));
                assert!(!ok, "field {field} = {hostile:#x} decoded");
            }
        }
    }
}
