//! Epoch-versioned visited sets.
//!
//! Beam search must test "have I touched this node before?" once per edge
//! traversal. A `HashSet<u32>` pays hashing and allocation on the hot path;
//! the standard trick (used by hnswlib and ParlayANN alike) is a `Vec<u32>`
//! of version stamps: marking is a store, membership is a load, and clearing
//! all marks is a single epoch increment.
//!
//! The beam loop filters a whole neighbour list at once through
//! [`VisitedSet::filter_fresh`], which has no branch on the stamps: whether
//! a neighbour was seen before is about as predictable as a coin toss on a
//! search's frontier, and a mispredicted branch per neighbour cost more than
//! the filter's loads and stores (DESIGN.md §8, *Software prefetch*).

/// Ids [`VisitedSet::filter_fresh`] filters per chunk.
const FRESH_CHUNK: usize = 64;

/// Reusable visited set over node ids `0..n`.
#[derive(Clone, Debug)]
pub struct VisitedSet {
    stamps: Vec<u32>,
    epoch: u32,
    /// [`Self::filter_fresh`]'s output chunk, kept here so no call
    /// initializes one.
    fresh: [u32; FRESH_CHUNK],
}

impl VisitedSet {
    /// Creates a set for ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self { stamps: vec![0; n], epoch: 1, fresh: [0; FRESH_CHUNK] }
    }

    /// Clears all marks in `O(1)` (amortized; a full reset happens only on
    /// epoch wraparound, once every `u32::MAX` generations).
    pub fn clear(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Grows the id space to at least `n`, preserving current marks.
    pub fn resize(&mut self, n: usize) {
        if n > self.stamps.len() {
            self.stamps.resize(n, 0);
        }
    }

    /// Capacity in ids.
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }

    /// Marks `id` visited. Returns `true` if it was *newly* marked.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.stamps[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// `true` if `id` is marked in the current epoch.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.stamps[id as usize] == self.epoch
    }

    /// Marks every id of `ids` visited and hands `each` the ones that were
    /// not marked before — in `ids` order, an id repeated in `ids` once —
    /// one chunk of 64 ids of `ids` at a time (a chunk with no fresh id
    /// gives an empty slice). Exactly [`Self::insert`] on each id in turn,
    /// keeping those that return `true`, but branch-free: per id it stores
    /// the epoch, writes the id to the next output slot and advances that
    /// slot by whether the old stamp differed.
    #[inline]
    pub fn filter_fresh(&mut self, ids: &[u32], mut each: impl FnMut(&[u32])) {
        let Self { stamps, epoch, fresh } = self;
        let epoch = *epoch;
        for chunk in ids.chunks(FRESH_CHUNK) {
            let mut count = 0;
            for &id in chunk {
                let stamp = std::mem::replace(&mut stamps[id as usize], epoch);
                fresh[count] = id;
                count += usize::from(stamp != epoch);
            }
            each(&fresh[..count]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut v = VisitedSet::new(4);
        assert!(!v.contains(2));
        assert!(v.insert(2));
        assert!(v.contains(2));
        assert!(!v.insert(2));
    }

    #[test]
    fn clear_resets_in_constant_time() {
        let mut v = VisitedSet::new(3);
        v.insert(0);
        v.insert(1);
        v.clear();
        assert!(!v.contains(0));
        assert!(!v.contains(1));
        assert!(v.insert(0));
    }

    #[test]
    fn epoch_wraparound_is_safe() {
        let mut v = VisitedSet::new(2);
        v.insert(0);
        // Force many epochs; marks from old epochs must never leak.
        for _ in 0..1000 {
            v.clear();
            assert!(!v.contains(0));
            assert!(v.insert(0));
        }
    }

    /// `filter_fresh` keeps list order, passes an id repeated within one
    /// list once, drops ids already marked (by `insert` or an earlier
    /// list), chunks long lists, and behaves across epoch wraparound.
    #[test]
    fn filter_fresh_keeps_order_and_drops_marked_ids() {
        let collect = |v: &mut VisitedSet, ids: &[u32]| {
            let mut out = Vec::new();
            v.filter_fresh(ids, |fresh| out.extend_from_slice(fresh));
            out
        };
        let mut v = VisitedSet::new(200);
        v.insert(5);
        assert_eq!(collect(&mut v, &[9, 5, 3, 9, 7, 3, 0]), vec![9, 3, 7, 0]);
        assert!([9, 5, 3, 7, 0].iter().all(|&id| v.contains(id)));
        assert_eq!(collect(&mut v, &[3, 4, 9, 4]), vec![4]);

        // A list longer than one chunk: order across chunk boundaries, and
        // a repeat in a later chunk of an id fresh in an earlier one.
        let long: Vec<u32> = (0..150).map(|i| (i * 7) % 140 + 10).collect();
        let mut model = VisitedSet::new(200);
        let want: Vec<u32> = long.iter().copied().filter(|&id| model.insert(id)).collect();
        v.clear();
        let mut chunks = 0;
        let mut got = Vec::new();
        v.filter_fresh(&long, |fresh| {
            chunks += 1;
            got.extend_from_slice(fresh);
        });
        assert_eq!(chunks, long.len().div_ceil(FRESH_CHUNK));
        assert_eq!(got, want);

        // Across wraparound: stamps left by the last epoch before the
        // wrap must not read as marked after it.
        let mut w = VisitedSet::new(8);
        w.epoch = u32::MAX;
        assert_eq!(collect(&mut w, &[1, 2, 1]), vec![1, 2]);
        w.clear();
        assert_eq!(w.epoch, 1);
        assert_eq!(collect(&mut w, &[2, 1, 3, 2]), vec![2, 1, 3]);
        assert_eq!(collect(&mut w, &[3, 1, 4]), vec![4]);
    }

    #[test]
    fn resize_preserves_marks() {
        let mut v = VisitedSet::new(2);
        v.insert(1);
        v.resize(10);
        assert!(v.contains(1));
        assert!(!v.contains(9));
        assert!(v.insert(9));
    }
}
