//! Neighbor candidates and the priority-queue structures used by beam
//! search.
//!
//! The paper normalizes all evaluated methods to use a **single sorted
//! linear buffer** as the beam-search priority queue (it modified HNSW and
//! ELPIS, which originally used two max-heaps, to match). We implement both
//! variants: [`SortedBuffer`] is the default used everywhere;
//! [`BoundedMaxHeap`] exists for the implementation-impact ablation
//! (Figure 17) and for result collection.
//!
//! The buffer has two layouts behind one interface. Serving-width pools
//! (capacity ≤ 32) on the AVX2 tier keep their keys in a
//! fixed array padded with `u64::MAX` and insert with one branch-free
//! vector pass; every other pool keeps a `Vec`, into which the AVX2 tier
//! inserts by shifting the tail up from the back four keys at a time, and
//! the scalar tier with a binary search plus `memmove`. All give the same
//! answer to every call (DESIGN.md §8, *Candidate pool*).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A candidate neighbor: vector id plus (squared) distance to the query.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Vector identifier.
    pub id: u32,
    /// Squared Euclidean distance to the query point.
    pub dist: f32,
}

impl Neighbor {
    /// Constructs a neighbor.
    #[inline]
    pub fn new(id: u32, dist: f32) -> Self {
        Self { id, dist }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    /// Orders by distance, ties broken by id, treating NaN as greatest.
    /// Total order so neighbors can live in heaps and be sorted.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or_else(|| match (self.dist.is_nan(), other.dist.is_nan()) {
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                _ => Ordering::Equal,
            })
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Fixed-capacity sorted array of candidates, closest first, each with an
/// "expanded" flag — the classic NSG/Vamana search pool, and the one
/// priority queue under every traversal in this workspace.
///
/// An entry is one `u64`, `dist.to_bits() << 33 | id << 1 | expanded`:
/// non-negative floats, `+∞` and (canonicalized) NaN order like their bit
/// patterns, so integer order on entries is [`Neighbor`]'s `(dist, id)`
/// order. **Every slot before `cursor` is expanded and the one at `cursor`
/// is not**, so expansion resumes there and the next pop can be peeked in
/// `O(1)`.
///
/// Two layouts, chosen by `reset` (and `new`) from the capacity and the
/// kernel tier, never per insert:
/// - **Small** (capacity ≤ 32 on the AVX2 tier): the keys
///   sit in a fixed, 32-byte-aligned array of 8, 16, 24 or 32 lanes that
///   is padded with `u64::MAX`, and one branch-free AVX2 pass over those
///   lanes inserts (the `avx2` module's `insert`).
/// - **Wide** (every other pool): a `Vec` of the retained keys. On the
///   AVX2 tier an insert shifts the keys above the new one up a slot from
///   the back, four per vector, and stops at the first vector that holds a
///   key at or below it (the `avx2` module's `shift_insert`); elsewhere it
///   is an `O(log L)` binary search plus one `memmove`.
///
/// All return the same thing for every call (the unit tests drive them
/// side by side), and the rest of the type reads the retained keys as one
/// slice whichever layout holds them.
///
/// # Caller contract (DESIGN.md §8 "Candidate pool"; asserted in debug builds)
/// Distances are non-negative or NaN, and an id is offered at most once per
/// query: every traversal visited-filters first, and a node's distance is a
/// function of its id. So only an *exact* duplicate is detected — it can
/// only land on the slot the binary search returns.
#[derive(Clone, Debug)]
pub struct SortedBuffer {
    /// Wide layout: the retained keys, closest first.
    entries: Vec<u64>,
    /// Small layout: the retained keys in `lanes.0[..len]`. Every lane
    /// after them sorts after them too: `u64::MAX` until the pool first
    /// fills, then the keys it evicted.
    lanes: Lanes,
    /// Lanes the vector insert runs over; `0` selects the wide layout.
    width: usize,
    /// The wide layout inserts with `shift_insert` (set by `reset` on the
    /// AVX2 tier).
    shift: bool,
    /// Retained count of the small layout.
    len: usize,
    capacity: usize,
    cursor: usize,
}

/// Largest pool the small layout holds: every serving-width search pool
/// on the benchmark's workloads, but not construction at `ef` or a PQ
/// rerank pool (DESIGN.md §8 has the measurements behind the cut).
const SMALL_CAPACITY: usize = 32;

/// The small layout's keys, aligned so each group of four is one aligned
/// `ymm` load.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
struct Lanes([u64; SMALL_CAPACITY]);

const EXPANDED: u64 = 1;

/// `n` as an unexpanded entry; `+ 0.0` turns `-0.0` into `+0.0`.
#[inline]
fn pack(n: Neighbor) -> u64 {
    let dist = n.dist + 0.0;
    debug_assert!(dist >= 0.0 || dist.is_nan(), "negative distance {dist} for id {}", n.id);
    let bits = if dist.is_nan() { f32::NAN.to_bits() } else { dist.to_bits() };
    u64::from(bits) << 33 | u64::from(n.id) << 1
}

#[inline]
fn unpack(entry: u64) -> Neighbor {
    Neighbor { id: (entry >> 1) as u32, dist: f32::from_bits((entry >> 33) as u32) }
}

impl SortedBuffer {
    /// Creates an empty buffer that retains at most `capacity` candidates.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        let mut buffer = Self {
            entries: Vec::new(),
            lanes: Lanes([u64::MAX; SMALL_CAPACITY]),
            width: 0,
            shift: false,
            len: 0,
            capacity,
            cursor: 0,
        };
        buffer.reset(capacity);
        if buffer.width == 0 {
            buffer.entries.reserve_exact(capacity + 1);
        }
        buffer
    }

    /// Attempts to insert `n`; returns `true` if it was retained (i.e. it
    /// beat the current worst or the buffer had room). An exact duplicate is
    /// rejected; the type's caller contract rules out any other.
    #[inline]
    pub fn insert(&mut self, n: Neighbor) -> bool {
        let key = pack(n);
        #[cfg(target_arch = "x86_64")]
        let retained = if self.width != 0 {
            self.insert_small(key)
        } else if self.shift {
            self.insert_shift(key)
        } else {
            self.insert_wide(key)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let retained = self.insert_wide(key);
        debug_assert!(
            !retained || self.keys().iter().filter(|&&e| unpack(e).id == n.id).count() == 1,
            "re-scored {n:?}"
        );
        retained
    }

    /// The wide layout's insert: binary search, duplicate check, `memmove`.
    fn insert_wide(&mut self, key: u64) -> bool {
        // `>> 1` drops the flag: a retained twin is a duplicate expanded or not.
        if self.entries.get(self.capacity - 1).is_some_and(|&worst| key >> 1 >= worst >> 1) {
            return false;
        }
        let pos = self.entries.partition_point(|&e| e < key);
        if self.entries.get(pos).is_some_and(|&e| e >> 1 == key >> 1) {
            return false;
        }
        self.entries.insert(pos, key);
        self.entries.truncate(self.capacity);
        self.cursor = self.cursor.min(pos);
        true
    }

    /// The wide layout's insert on the AVX2 tier: the early reject of
    /// [`Self::insert_wide`], then one back-to-front shift that finds the
    /// slot, checks the key below it for an exact duplicate and writes.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn insert_shift(&mut self, key: u64) -> bool {
        if self.entries.get(self.capacity - 1).is_some_and(|&worst| key >> 1 >= worst >> 1) {
            return false;
        }
        self.entries.reserve(1);
        debug_assert!(crate::distance::native_tier() >= crate::distance::TIER_AVX2);
        // SAFETY: `shift` is set only when `reset` saw the AVX2 tier, which
        // is set only where CPUID reported AVX2; `reserve` gave the `Vec`
        // the spare slot the shift writes into.
        let Some(pos) = (unsafe { avx2::shift_insert(&mut self.entries, key) }) else {
            return false;
        };
        self.entries.truncate(self.capacity);
        self.cursor = self.cursor.min(pos);
        true
    }

    /// The small layout's insert: the early reject against the worst key,
    /// then one vector pass that finds the landing slot, checks it for an
    /// exact duplicate and shifts the tail.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn insert_small(&mut self, key: u64) -> bool {
        // The reject keeps the landing slot inside the retained lanes: an
        // accepted key sorts before the worst of a full pool, and before
        // the first `u64::MAX` lane of a pool with room.
        if self.len == self.capacity && key >> 1 >= self.lanes.0[self.capacity - 1] >> 1 {
            return false;
        }
        debug_assert!(crate::distance::native_tier() >= crate::distance::TIER_AVX2);
        // SAFETY: `width` is non-zero only when `reset` saw the AVX2 tier,
        // which is set only where CPUID reported AVX2. (The reject above is
        // the kernel's precondition on `key`, a matter of the answer only.)
        let landed = unsafe {
            match self.width {
                8 => avx2::insert::<2>(&mut self.lanes, key),
                16 => avx2::insert::<4>(&mut self.lanes, key),
                24 => avx2::insert::<6>(&mut self.lanes, key),
                _ => avx2::insert::<8>(&mut self.lanes, key),
            }
        };
        let Some(pos) = landed else { return false };
        self.len = self.capacity.min(self.len + 1);
        self.cursor = self.cursor.min(pos);
        true
    }

    /// The retained keys, closest first.
    #[inline]
    fn keys(&self) -> &[u64] {
        if self.width == 0 {
            &self.entries
        } else {
            &self.lanes.0[..self.len]
        }
    }

    /// Marks the closest not-yet-expanded candidate expanded and returns
    /// it, or `None` once every retained candidate has been expanded.
    pub fn next_unexpanded(&mut self) -> Option<Neighbor> {
        let keys =
            if self.width == 0 { &mut self.entries[..] } else { &mut self.lanes.0[..self.len] };
        let entry = keys.get_mut(self.cursor)?;
        *entry |= EXPANDED;
        let popped = unpack(*entry);
        let mut cursor = self.cursor + 1;
        while keys.get(cursor).is_some_and(|&e| e & EXPANDED != 0) {
            cursor += 1;
        }
        self.cursor = cursor;
        Some(popped)
    }

    /// The id [`Self::next_unexpanded`] would pop now, without popping it;
    /// `None` exactly when that pop would be `None`.
    #[inline]
    pub fn peek_unexpanded(&self) -> Option<u32> {
        self.keys().get(self.cursor).map(|&e| unpack(e).id)
    }

    /// Current number of retained candidates.
    pub fn len(&self) -> usize {
        self.keys().len()
    }

    /// `true` when no candidates are retained.
    pub fn is_empty(&self) -> bool {
        self.keys().is_empty()
    }

    /// The current worst retained distance, or `f32::INFINITY` while the
    /// buffer is not yet full. Used as the beam-search pruning bound.
    pub fn bound(&self) -> f32 {
        self.kth(self.capacity).map_or(f32::INFINITY, |worst| worst.dist)
    }

    /// The `k` closest candidates, closest first.
    pub fn top_k(&self, k: usize) -> Vec<Neighbor> {
        self.keys().iter().take(k).map(|&e| unpack(e)).collect()
    }

    /// The `k`-th closest retained candidate (1-indexed), or `None` when
    /// fewer than `k` are retained. `kth(k)` is the current worst of the
    /// would-be result set — the reference distance adaptive termination
    /// policies compare the frontier against.
    #[inline]
    pub fn kth(&self, k: usize) -> Option<Neighbor> {
        self.keys().get(k.checked_sub(1)?).map(|&e| unpack(e))
    }

    /// All retained candidates, closest first.
    pub fn as_neighbors(&self) -> Vec<Neighbor> {
        self.top_k(self.len())
    }

    /// Clears the buffer, keeping its allocation (workhorse reuse across
    /// queries).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.lanes.0 = [u64::MAX; SMALL_CAPACITY];
        self.len = 0;
        self.cursor = 0;
    }

    /// Resets the retained-candidate capacity (and clears). Picks the
    /// layout: small when `capacity` fits it and the kernel tier is AVX2.
    pub fn reset(&mut self, capacity: usize) {
        self.reset_layout(
            capacity,
            crate::distance::kernel_tier() >= crate::distance::TIER_AVX2,
        );
    }

    /// [`Self::reset`] with the tier test given: `vector` (on an x86
    /// target) selects the small layout when `capacity ≤ SMALL_CAPACITY`
    /// and the wide layout's shift insert otherwise. The caller must have
    /// seen AVX2 on this CPU to pass `true`.
    fn reset_layout(&mut self, capacity: usize, vector: bool) {
        assert!(capacity > 0, "beam width must be positive");
        self.capacity = capacity;
        let vector = cfg!(target_arch = "x86_64") && vector;
        self.width =
            if vector && capacity <= SMALL_CAPACITY { capacity.div_ceil(8) * 8 } else { 0 };
        self.shift = vector && self.width == 0;
        self.clear();
    }
}

/// The small layout's insert kernel.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Lanes;
    use std::arch::x86_64::*;

    /// Inserts `key` into the first `4 * V` lanes of `lanes` and returns
    /// its slot, or returns `None` without writing when the slot holds
    /// `key`'s exact duplicate (expanded or not).
    ///
    /// The lanes are sorted, so the lanes below `key` are a prefix: one
    /// bias-flipped signed compare per vector (unsigned order on `u64`),
    /// gathered as a 4-bit mask each, gives the landing slot as the mask's
    /// population count. The same compare masks then place the keys: a
    /// lane below the slot keeps its key, and a lane at or above it takes
    /// the larger of `key` and the key one lane down — `key` at the slot,
    /// the shifted key above it. The lane-down vector is each vector
    /// rotated one lane up (`permute4x64`) with its bottom lane blended in
    /// from the vector below; the top lane's key falls off the end. No
    /// branch depends on the keys, and the placement does not need the slot.
    ///
    /// `key` must sort before the key in lane `4 * V - 1` (after dropping
    /// both flag bits), so that its slot is a lane.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn insert<const V: usize>(lanes: &mut Lanes, key: u64) -> Option<usize> {
        const { assert!(4 * V <= super::SMALL_CAPACITY) };
        debug_assert!(key >> 1 < lanes.0[4 * V - 1] >> 1);
        let bias = _mm256_set1_epi64x(i64::MIN);
        let keys = _mm256_set1_epi64x(key as i64);
        let biased = _mm256_xor_si256(keys, bias);
        let mut old = [_mm256_setzero_si256(); V];
        let mut below = [_mm256_setzero_si256(); V];
        let mut mask = 0u32;
        // SAFETY (both loops): `Lanes` is 32-byte aligned and holds
        // `SMALL_CAPACITY ≥ 4 * V` keys (the const assert above), so vector
        // `i < V` is in bounds and every vector access is aligned.
        let loads = lanes.0.as_ptr().cast::<__m256i>();
        for i in 0..V {
            old[i] = _mm256_load_si256(loads.add(i));
            below[i] = _mm256_cmpgt_epi64(biased, _mm256_xor_si256(old[i], bias));
            mask |= (_mm256_movemask_pd(_mm256_castsi256_pd(below[i])) as u32) << (4 * i);
        }
        // The set bits are the mask's low run, so its population count is
        // the run's length (`trailing_ones`, which needs no POPCNT).
        let pos = mask.trailing_ones() as usize;
        debug_assert!(pos < 4 * V && mask == (1u32 << pos) - 1, "unsorted lanes");
        if lanes.0[pos] >> 1 == key >> 1 {
            return None;
        }
        // Vector 0's bottom lane has no lane below; a zero there sorts at
        // or before `key`, so that lane takes `key` when it is the slot.
        let mut carry = _mm256_setzero_si256();
        let stores = lanes.0.as_mut_ptr().cast::<__m256i>();
        for i in 0..V {
            let rotated = _mm256_permute4x64_epi64::<0b10_01_00_11>(old[i]);
            let shifted = _mm256_blend_epi32::<0b0000_0011>(rotated, carry);
            carry = rotated;
            let above = _mm256_cmpgt_epi64(_mm256_xor_si256(shifted, bias), biased);
            let moved = _mm256_blendv_epi8(keys, shifted, above);
            _mm256_store_si256(stores.add(i), _mm256_blendv_epi8(moved, old[i], below[i]));
        }
        Some(pos)
    }

    /// Inserts `key` into the sorted `entries` and returns its slot, or
    /// returns `None` with `entries` as it was when the key below the slot
    /// is `key`'s exact duplicate (expanded or not).
    ///
    /// From the back, four keys per vector: a key above `key | 1` (so
    /// above `key` whatever either flag) moves up one slot. While a whole
    /// vector is above, it is stored one slot up as it is; the first vector
    /// that is not holds the slot — its above lanes are a suffix, stored
    /// one slot up under their compare mask (`vpmaskmovq`), and the slot is
    /// where the suffix began. Fewer than four keys left at the front shift
    /// one at a time. A twin of `key` is not above `key | 1` and is the
    /// largest key that is not, so it sits just below the slot; the shift
    /// is then undone. The caller truncates to the capacity.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `entries` must have spare capacity
    /// for one more key.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn shift_insert(entries: &mut Vec<u64>, key: u64) -> Option<usize> {
        let len = entries.len();
        debug_assert!(entries.capacity() > len);
        let bias = _mm256_set1_epi64x(i64::MIN);
        let limit = _mm256_set1_epi64x((key | 1) as i64 ^ i64::MIN);
        // SAFETY (every pointer use below): reads are of slots `< len` and
        // writes of slots `≤ len`, inside the spare capacity the caller
        // guarantees; a vector is loaded before the store that moves it.
        let p = entries.as_mut_ptr();
        let mut i = len;
        let pos = loop {
            if i < 4 {
                while i > 0 && *p.add(i - 1) > key | 1 {
                    *p.add(i) = *p.add(i - 1);
                    i -= 1;
                }
                break i;
            }
            let v = _mm256_loadu_si256(p.add(i - 4).cast());
            let above = _mm256_cmpgt_epi64(_mm256_xor_si256(v, bias), limit);
            let mask = _mm256_movemask_pd(_mm256_castsi256_pd(above));
            if mask == 0b1111 {
                _mm256_storeu_si256(p.add(i - 3).cast(), v);
                i -= 4;
            } else {
                _mm256_maskstore_epi64(p.add(i - 3).cast(), above, v);
                break i - mask.count_ones() as usize;
            }
        };
        if pos > 0 && *p.add(pos - 1) >> 1 == key >> 1 {
            std::ptr::copy(p.add(pos + 1), p.add(pos), len - pos);
            return None;
        }
        *p.add(pos) = key;
        entries.set_len(len + 1);
        Some(pos)
    }
}

/// Bounded max-heap keeping the `k` smallest neighbors seen.
///
/// Root is the current worst retained candidate, so `peek_worst` gives the
/// pruning bound in `O(1)`. This is the queue HNSW's original
/// implementation used; the paper replaced it with the linear buffer for
/// fairness, and our Figure-17 ablation compares the two.
#[derive(Clone, Debug, Default)]
pub struct BoundedMaxHeap {
    heap: std::collections::BinaryHeap<Neighbor>,
    capacity: usize,
}

impl BoundedMaxHeap {
    /// Creates a heap retaining at most `capacity` smallest items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "heap capacity must be positive");
        Self { heap: std::collections::BinaryHeap::with_capacity(capacity + 1), capacity }
    }

    /// Offers a neighbor; keeps only the `capacity` smallest. Returns
    /// `true` if retained.
    pub fn push(&mut self, n: Neighbor) -> bool {
        if self.heap.len() < self.capacity {
            self.heap.push(n);
            true
        } else if let Some(worst) = self.heap.peek() {
            if n < *worst {
                self.heap.pop();
                self.heap.push(n);
                true
            } else {
                false
            }
        } else {
            false
        }
    }

    /// The current worst retained distance, or `f32::INFINITY` while not
    /// full.
    pub fn bound(&self) -> f32 {
        if self.heap.len() < self.capacity {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |n| n.dist)
        }
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Consumes the heap, returning neighbors sorted closest first.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32, d: f32) -> Neighbor {
        Neighbor::new(id, d)
    }

    #[test]
    fn neighbor_ordering_by_distance_then_id() {
        assert!(n(5, 1.0) < n(1, 2.0));
        assert!(n(1, 1.0) < n(2, 1.0));
        assert!(n(7, f32::NAN) > n(1, 1e30));
    }

    #[test]
    fn sorted_buffer_keeps_closest() {
        let mut b = SortedBuffer::new(3);
        assert!(b.insert(n(0, 5.0)));
        assert!(b.insert(n(1, 1.0)));
        assert!(b.insert(n(2, 3.0)));
        assert!(b.insert(n(3, 2.0))); // evicts id 0
        assert!(!b.insert(n(4, 9.0))); // too far
        let top = b.top_k(3);
        assert_eq!(top.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn sorted_buffer_rejects_duplicates() {
        let mut b = SortedBuffer::new(4);
        assert!(b.insert(n(1, 1.0)));
        assert!(!b.insert(n(1, 1.0)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn sorted_buffer_expansion_order() {
        let mut b = SortedBuffer::new(4);
        b.insert(n(0, 4.0));
        b.insert(n(1, 1.0));
        b.insert(n(2, 2.0));
        assert_eq!(b.next_unexpanded().unwrap().id, 1);
        assert_eq!(b.next_unexpanded().unwrap().id, 2);
        // A closer candidate arriving later is expanded before farther ones.
        b.insert(n(3, 0.5));
        assert_eq!(b.next_unexpanded().unwrap().id, 3);
        assert_eq!(b.next_unexpanded().unwrap().id, 0);
        assert!(b.next_unexpanded().is_none());
    }

    #[test]
    fn sorted_buffer_bound_tracks_worst() {
        let mut b = SortedBuffer::new(2);
        assert_eq!(b.bound(), f32::INFINITY);
        b.insert(n(0, 3.0));
        assert_eq!(b.bound(), f32::INFINITY);
        b.insert(n(1, 1.0));
        assert_eq!(b.bound(), 3.0);
        b.insert(n(2, 2.0));
        assert_eq!(b.bound(), 2.0);
    }

    /// The vector inserts (the small layout's and the wide layout's shift)
    /// and the scalar one, driven directly on the same random streams,
    /// answer every call identically: returns, `len`, the cursor, every
    /// `kth`, `top_k` and the bound, after every operation. Capacities run
    /// 1..=200 (every one that the shift insert takes, 33..=200, included)
    /// and resets cross 32 both ways; distances come from a palette heavy
    /// in ties, `±0.0`, `+∞` and both NaN signs, and ids are re-offered
    /// (with the sign of a zero or NaN flipped) as exact duplicates.
    #[test]
    fn vector_and_scalar_inserts_agree() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};

        let vector = crate::distance::native_tier() >= crate::distance::TIER_AVX2;
        if !vector {
            println!(
                "no AVX2 on this CPU: the vector half was skipped (both sides run scalar)"
            );
        }
        let palette = [0.0, -0.0, f32::INFINITY, f32::NAN, -f32::NAN, 1.0, 1.0, 2.5, 2.5, 7.0];
        for cap in 1..=200usize {
            for seed in 0..3u64 {
                let mut rng = SmallRng::seed_from_u64(cap as u64 * 8 + seed);
                let ids = 120.max(2 * cap) as u32;
                let dists: Vec<f32> =
                    (0..ids).map(|_| palette[rng.random_range(0..palette.len())]).collect();
                let (mut fast, mut slow) = (SortedBuffer::new(1), SortedBuffer::new(1));
                fast.reset_layout(cap, vector);
                slow.reset_layout(cap, false);
                let mut cap = cap;
                for _ in 0..300.max(4 * cap) {
                    match rng.random_range(0..40u32) {
                        0..=27 => {
                            let id = rng.random_range(0..ids);
                            let d = dists[id as usize];
                            let d = if rng.random_bool(0.5) && (d == 0.0 || d.is_nan()) {
                                -d
                            } else {
                                d
                            };
                            let n = Neighbor::new(id, d);
                            assert_eq!(
                                fast.insert(n),
                                slow.insert(n),
                                "cap {cap}: insert {n:?}"
                            );
                        }
                        28..=33 => assert_eq!(
                            fast.next_unexpanded().map(|n| n.id),
                            slow.next_unexpanded().map(|n| n.id)
                        ),
                        34 => assert_eq!(fast.peek_unexpanded(), slow.peek_unexpanded()),
                        35 => {
                            fast.clear();
                            slow.clear();
                        }
                        36 => {
                            while slow.next_unexpanded().is_some() {
                                assert!(fast.next_unexpanded().is_some());
                            }
                        }
                        _ => {
                            cap = rng.random_range(1..=200);
                            fast.reset_layout(cap, vector);
                            slow.reset_layout(cap, false);
                        }
                    }
                    assert_eq!(fast.width != 0, vector && cap <= SMALL_CAPACITY);
                    assert_eq!(fast.shift, vector && cap > SMALL_CAPACITY);
                    assert_eq!((slow.width, slow.shift), (0, false));
                    assert_eq!(fast.len(), slow.len());
                    assert_eq!(fast.cursor, slow.cursor);
                    assert_eq!(fast.bound().to_bits(), slow.bound().to_bits());
                    for k in 0..=cap + 1 {
                        let bits = |n: Neighbor| (n.id, n.dist.to_bits());
                        assert_eq!(fast.kth(k).map(bits), slow.kth(k).map(bits));
                    }
                    assert_eq!(fast.keys(), slow.keys(), "cap {cap}: keys, flags included");
                    let bits = |v: Vec<Neighbor>| -> Vec<(u32, u32)> {
                        v.into_iter().map(|n| (n.id, n.dist.to_bits())).collect()
                    };
                    assert_eq!(bits(fast.top_k(cap)), bits(slow.top_k(cap)));
                }
            }
        }
    }

    /// A reset to a huge width allocates nothing until inserts arrive, so a
    /// beam width read from the wire cannot reserve memory on its own.
    #[test]
    fn a_huge_reset_allocates_nothing() {
        let mut b = SortedBuffer::new(8);
        let before = b.entries.capacity();
        b.reset(usize::MAX / 2);
        assert_eq!(b.entries.capacity(), before);
        assert!(b.insert(n(1, 1.0)));
        assert!(b.entries.capacity() < 64);
        b.reset(16);
        assert!(b.insert(n(2, 1.0)));
        assert_eq!(b.top_k(4), vec![n(2, 1.0)]);
    }

    #[test]
    fn bounded_heap_keeps_k_smallest() {
        let mut h = BoundedMaxHeap::new(2);
        h.push(n(0, 5.0));
        h.push(n(1, 1.0));
        h.push(n(2, 3.0));
        h.push(n(3, 0.1));
        let sorted = h.into_sorted();
        assert_eq!(sorted.iter().map(|x| x.id).collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn heap_and_buffer_agree() {
        // Same stream of candidates -> same retained top-k set.
        let cands: Vec<Neighbor> = (0..50).map(|i| n(i, ((i * 37) % 50) as f32)).collect();
        let mut b = SortedBuffer::new(8);
        let mut h = BoundedMaxHeap::new(8);
        for &c in &cands {
            b.insert(c);
            h.push(c);
        }
        let mut from_b: Vec<u32> = b.top_k(8).iter().map(|x| x.id).collect();
        let mut from_h: Vec<u32> = h.into_sorted().iter().map(|x| x.id).collect();
        from_b.sort_unstable();
        from_h.sort_unstable();
        assert_eq!(from_b, from_h);
    }
}
