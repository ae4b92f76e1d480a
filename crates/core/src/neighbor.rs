//! Neighbor candidates and the priority-queue structures used by beam
//! search.
//!
//! The paper normalizes all evaluated methods to use a **single sorted
//! linear buffer** as the beam-search priority queue (it modified HNSW and
//! ELPIS, which originally used two max-heaps, to match). We implement both
//! variants: [`SortedBuffer`] is the default used everywhere;
//! [`BoundedMaxHeap`] exists for the implementation-impact ablation
//! (Figure 17) and for result collection.

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
/// `O(1)`. Insertion is an `O(log L)` search plus one `memmove`, the rest
/// `O(1)`: branch-predictable and cache-resident at beam-search widths.
///
/// # Caller contract (DESIGN.md §8 "Candidate pool"; asserted in debug builds)
/// Distances are non-negative or NaN, and an id is offered at most once per
/// query: every traversal visited-filters first, and a node's distance is a
/// function of its id. So only an *exact* duplicate is detected — it can
/// only land on the slot the binary search returns.
#[derive(Clone, Debug)]
pub struct SortedBuffer {
    entries: Vec<u64>,
    capacity: usize,
    cursor: usize,
}

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
        assert!(capacity > 0, "beam width must be positive");
        Self { entries: Vec::with_capacity(capacity + 1), capacity, cursor: 0 }
    }

    /// Attempts to insert `n`; returns `true` if it was retained (i.e. it
    /// beat the current worst or the buffer had room). An exact duplicate is
    /// rejected; the type's caller contract rules out any other.
    pub fn insert(&mut self, n: Neighbor) -> bool {
        // `>> 1` drops the flag: a retained twin is a duplicate expanded or not.
        let key = pack(n);
        if self.entries.get(self.capacity - 1).is_some_and(|&worst| key >> 1 >= worst >> 1) {
            return false;
        }
        let pos = self.entries.partition_point(|&e| e < key);
        if self.entries.get(pos).is_some_and(|&e| e >> 1 == key >> 1) {
            return false;
        }
        debug_assert!(self.entries.iter().all(|&e| unpack(e).id != n.id), "re-scored {n:?}");
        self.entries.insert(pos, key);
        self.entries.truncate(self.capacity);
        self.cursor = self.cursor.min(pos);
        true
    }

    /// Marks the closest not-yet-expanded candidate expanded and returns
    /// it, or `None` once every retained candidate has been expanded.
    pub fn next_unexpanded(&mut self) -> Option<Neighbor> {
        let entry = self.entries.get_mut(self.cursor)?;
        *entry |= EXPANDED;
        let popped = unpack(*entry);
        self.cursor += 1;
        while self.entries.get(self.cursor).is_some_and(|&e| e & EXPANDED != 0) {
            self.cursor += 1;
        }
        Some(popped)
    }

    /// The id [`Self::next_unexpanded`] would pop now, without popping it;
    /// `None` exactly when that pop would be `None`.
    #[inline]
    pub fn peek_unexpanded(&self) -> Option<u32> {
        self.entries.get(self.cursor).map(|&e| unpack(e).id)
    }

    /// Current number of retained candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no candidates are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current worst retained distance, or `f32::INFINITY` while the
    /// buffer is not yet full. Used as the beam-search pruning bound.
    pub fn bound(&self) -> f32 {
        self.kth(self.capacity).map_or(f32::INFINITY, |worst| worst.dist)
    }

    /// The `k` closest candidates, closest first.
    pub fn top_k(&self, k: usize) -> Vec<Neighbor> {
        self.entries.iter().take(k).map(|&e| unpack(e)).collect()
    }

    /// The `k`-th closest retained candidate (1-indexed), or `None` when
    /// fewer than `k` are retained. `kth(k)` is the current worst of the
    /// would-be result set — the reference distance adaptive termination
    /// policies compare the frontier against.
    #[inline]
    pub fn kth(&self, k: usize) -> Option<Neighbor> {
        self.entries.get(k.checked_sub(1)?).map(|&e| unpack(e))
    }

    /// All retained candidates, closest first.
    pub fn as_neighbors(&self) -> Vec<Neighbor> {
        self.top_k(self.entries.len())
    }

    /// Clears the buffer, keeping its allocation (workhorse reuse across
    /// queries).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.cursor = 0;
    }

    /// Resets the retained-candidate capacity (and clears).
    pub fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "beam width must be positive");
        self.capacity = capacity;
        self.clear();
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
