//! Seed Selection (SS) strategies — Section 3.3 of the paper.
//!
//! Beam search warms its candidate buffer with *seed* nodes; which seeds are
//! chosen changes how quickly the traversal converges, and — for methods
//! that run a beam search per inserted node — also changes construction
//! cost (Table 2).
//!
//! This module defines the [`SeedProvider`] abstraction plus the strategies
//! that need no auxiliary structure:
//!
//! * **SF** — a single fixed (randomly chosen) entry node ([`FixedSeed`]).
//! * **MD** — the dataset medoid as fixed entry ([`MedoidSeed`]).
//! * **KS** — `k` nodes sampled uniformly at random per query
//!   ([`RandomSeeds`]), optionally anchored at the medoid like NSG/Vamana.
//!
//! Structure-backed strategies live next to their structures: **SN**
//! (stacked NSW) in `gass-graphs::hierarchy`, **KD** in
//! `gass-trees::kdtree`, **KM** in `gass-trees::bkt`, **LSH** in
//! `gass-hash`, VP-tree seeds in `gass-trees::vptree`, and HVS's Voronoi
//! pyramid in `gass-graphs::hvs`. All implement this same trait, so any
//! method can be queried under any strategy — the instrument behind
//! Figure 6.
//!
//! Seed selection is part of the search. [`SeedProvider::select`] takes
//! the query's remaining distance budget and returns what it spent; the
//! index ([`crate::PrebuiltIndex`]) hands the traversal the rest and adds
//! the spend to `stats.evaluated`, so a strategy's cost is counted — and
//! capped — exactly like the traversal's.

use crate::distance::Space;
use crate::reorder::IdRemap;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;

/// A source of beam-search seed nodes.
///
/// `count` is advisory: strategies with a natural seed count (SF, MD, SN)
/// may return fewer; KS returns exactly `count`.
pub trait SeedProvider: Send + Sync {
    /// Appends seed ids for `query` to `out` (cleared first by callers) and
    /// returns the distance evaluations the selection spent. Those go
    /// through `space` so they are counted (a descent over a hierarchy,
    /// tree or pyramid is real work the paper measures); the id-only
    /// strategies spend 0.
    ///
    /// `max_dists` is the query's remaining budget (`0` = unlimited).
    /// Under a budget a strategy stops spending once it has spent
    /// `max_dists` — a descent that scores a whole neighbour list per step
    /// checks before each step, so it may finish the step in progress —
    /// and still appends at least one seed: its best node so far, or its
    /// stored entry when it has scored none. Unbudgeted, the answer is the
    /// strategy's full selection.
    fn select(
        &self,
        space: Space<'_>,
        query: &[f32],
        count: usize,
        max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize;

    /// [`Self::select`] without a budget, discarding the spend. Kept only
    /// for the benchmark's decomposed query path, which calls it; it goes
    /// when that path is rebuilt (ROADMAP item 5).
    fn seeds(&self, space: Space<'_>, query: &[f32], count: usize, out: &mut Vec<u32>) {
        self.select(space, query, count, 0, out);
    }

    /// Short label used in experiment tables ("SN", "KS", ...).
    fn label(&self) -> &'static str;

    /// Relabels every stored node id through `map` after the serving state
    /// was permuted (see `gass_core::reorder`). Afterwards [`Self::select`]
    /// must emit ids in the *new* space, selecting the same vectors it
    /// would have selected before the permutation.
    ///
    /// Deliberately has no default implementation: a provider that holds
    /// ids and silently skipped relabeling would seed the beam search with
    /// the wrong vectors.
    fn reorder(&mut self, map: &IdRemap);

    /// Heap bytes of the seed structure (trees, hash tables, pyramids),
    /// counted as auxiliary index memory (Figures 8–9). No default, for
    /// the same reason as [`Self::reorder`]: a structure that forgot to
    /// report would vanish from the footprint. The id-only strategies
    /// here report 0.
    fn heap_bytes(&self) -> usize;
}

/// The `new → old` table a relabelled seed structure keeps (KD forest,
/// VP-tree, BKT). Candidates are ordered, deduplicated and truncated by
/// *original* id, so the seeds a query gets — and their order — are the
/// same before and after any reorder.
#[derive(Clone, Debug, Default)]
pub struct OriginalIds {
    new_to_old: Option<Vec<u32>>,
}

impl OriginalIds {
    /// Sorts the ids a provider appended from `start` on by original id,
    /// drops repeats among them and keeps the first `count`; `ids[..start]`
    /// is left as it was.
    pub fn select(&self, ids: &mut Vec<u32>, start: usize, count: usize) {
        let tail = &mut ids[start..];
        match &self.new_to_old {
            Some(orig) => tail.sort_unstable_by_key(|&id| orig[id as usize]),
            None => tail.sort_unstable(),
        }
        let mut kept = 0;
        for i in 0..tail.len() {
            if kept == 0 || tail[i] != tail[kept - 1] {
                tail[kept] = tail[i];
                kept += 1;
            }
        }
        ids.truncate(start + kept.min(count));
    }

    /// Composes the table with a fresh relabelling.
    pub fn reorder(&mut self, map: &IdRemap) {
        self.new_to_old = Some(match self.new_to_old.take() {
            Some(prev) => {
                (0..prev.len()).map(|id| prev[map.to_old(id as u32) as usize]).collect()
            }
            None => map.new_to_old().to_vec(),
        });
    }

    /// Heap bytes of the table (0 before any reorder).
    pub fn heap_bytes(&self) -> usize {
        self.new_to_old.as_ref().map_or(0, |t| t.capacity() * std::mem::size_of::<u32>())
    }
}

/// **SF** — Single Fixed random entry point: one node chosen once, used for
/// every query. The paper's baseline strategy (not used by any SotA
/// method, included to isolate the value of smarter selection).
#[derive(Clone, Debug)]
pub struct FixedSeed {
    entry: u32,
}

impl FixedSeed {
    /// Fixes `entry` as the seed for all queries.
    pub fn new(entry: u32) -> Self {
        Self { entry }
    }

    /// Picks the fixed entry uniformly at random from `n` nodes.
    pub fn random(n: usize, rng_seed: u64) -> Self {
        assert!(n > 0, "cannot pick an entry point from an empty dataset");
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        Self { entry: rng.random_range(0..n as u32) }
    }

    /// The fixed entry node.
    pub fn entry(&self) -> u32 {
        self.entry
    }
}

impl SeedProvider for FixedSeed {
    fn select(
        &self,
        _space: Space<'_>,
        _query: &[f32],
        _count: usize,
        _max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        out.push(self.entry);
        0
    }

    fn label(&self) -> &'static str {
        "SF"
    }

    fn reorder(&mut self, map: &IdRemap) {
        self.entry = map.to_new(self.entry);
    }

    fn heap_bytes(&self) -> usize {
        0
    }
}

/// **MD** — the dataset medoid (approximated, as in NSG/Vamana, by the
/// vector closest to the centroid) as fixed entry point.
#[derive(Clone, Debug)]
pub struct MedoidSeed {
    medoid: u32,
}

impl MedoidSeed {
    /// Computes the centroid-medoid of `space`'s store.
    pub fn compute(space: Space<'_>) -> Self {
        Self { medoid: space.store().centroid_medoid() }
    }

    /// Uses a precomputed medoid id.
    pub fn with_medoid(medoid: u32) -> Self {
        Self { medoid }
    }

    /// The medoid node id.
    pub fn medoid(&self) -> u32 {
        self.medoid
    }
}

impl SeedProvider for MedoidSeed {
    fn select(
        &self,
        _space: Space<'_>,
        _query: &[f32],
        _count: usize,
        _max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        out.push(self.medoid);
        0
    }

    fn label(&self) -> &'static str {
        "MD"
    }

    fn reorder(&mut self, map: &IdRemap) {
        self.medoid = map.to_new(self.medoid);
    }

    fn heap_bytes(&self) -> usize {
        0
    }
}

/// **KS** — K-Sampled random seeds: fresh uniform sample per query, used by
/// KGraph, DPG, NSW, SSG; NSG and Vamana additionally anchor the sample at
/// the medoid (`anchor`).
#[derive(Debug)]
pub struct RandomSeeds {
    n: u32,
    anchor: Option<u32>,
    /// After a reorder: `old → new` table applied to every draw, so the
    /// RNG stream keeps selecting the *same vectors* (draws are
    /// interpreted in the original id space) and traversal stays
    /// isomorphic to the unreordered index.
    translate: Option<Vec<u32>>,
    rng_seed: u64,
    /// Per-query mode: draws come from an RNG keyed by the query bytes
    /// instead of the shared advancing stream, so the same query always
    /// gets the same seeds regardless of serving history.
    per_query: bool,
    rng: Mutex<SmallRng>,
}

impl RandomSeeds {
    /// Samples from `0..n`, deterministic under `rng_seed`. Consecutive
    /// calls advance a shared stream: reproducible as a *sequence*, but
    /// an individual query's seeds depend on how many draws preceded it.
    pub fn new(n: usize, rng_seed: u64) -> Self {
        assert!(n > 0, "cannot sample seeds from an empty dataset");
        Self {
            n: n as u32,
            anchor: None,
            translate: None,
            rng_seed,
            per_query: false,
            rng: Mutex::new(SmallRng::seed_from_u64(rng_seed)),
        }
    }

    /// Per-query determinism: each call draws from an RNG seeded by
    /// `rng_seed` mixed with a hash of the query bytes, so identical
    /// queries always get identical seeds — no shared stream, no history
    /// dependence. This is the serving-path variant: answers stay
    /// bit-identical across restarts, server configurations, and request
    /// interleavings.
    pub fn per_query(n: usize, rng_seed: u64) -> Self {
        let mut s = Self::new(n, rng_seed);
        s.per_query = true;
        s
    }

    /// Additionally always includes `anchor` (NSG/Vamana style: medoid +
    /// random warm-up).
    pub fn with_anchor(n: usize, anchor: u32, rng_seed: u64) -> Self {
        let mut s = Self::new(n, rng_seed);
        s.anchor = Some(anchor);
        s
    }

    fn draw(&self, rng: &mut SmallRng, want: usize, out: &mut Vec<u32>) {
        // Sampling with replacement is fine: beam search deduplicates, and
        // for n >> count collisions are negligible.
        match &self.translate {
            Some(t) => {
                for _ in 0..want {
                    out.push(t[rng.random_range(0..self.n) as usize]);
                }
            }
            None => {
                for _ in 0..want {
                    out.push(rng.random_range(0..self.n));
                }
            }
        }
    }
}

impl SeedProvider for RandomSeeds {
    fn select(
        &self,
        _space: Space<'_>,
        query: &[f32],
        count: usize,
        _max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        if let Some(a) = self.anchor {
            out.push(a);
        }
        let want = count.max(1);
        if self.per_query {
            // FNV-1a over the query's bit patterns keys the draw.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in query {
                h = (h ^ v.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let mut rng = SmallRng::seed_from_u64(self.rng_seed ^ h);
            self.draw(&mut rng, want, out);
        } else {
            let mut rng = self.rng.lock().unwrap();
            self.draw(&mut rng, want, out);
        }
        0
    }

    fn label(&self) -> &'static str {
        "KS"
    }

    fn reorder(&mut self, map: &IdRemap) {
        if let Some(a) = &mut self.anchor {
            *a = map.to_new(*a);
        }
        match &mut self.translate {
            Some(t) => {
                for slot in t.iter_mut() {
                    *slot = map.to_new(*slot);
                }
            }
            None => self.translate = Some(map.old_to_new().to_vec()),
        }
    }

    /// The translate table a reorder installs (0 before any reorder).
    fn heap_bytes(&self) -> usize {
        self.translate.as_ref().map_or(0, |t| t.capacity() * std::mem::size_of::<u32>())
    }
}

/// A fixed explicit seed list (useful in tests and for composing methods).
#[derive(Clone, Debug)]
pub struct StaticSeeds {
    ids: Vec<u32>,
}

impl StaticSeeds {
    /// Always returns `ids` as seeds.
    pub fn new(ids: Vec<u32>) -> Self {
        Self { ids }
    }
}

impl SeedProvider for StaticSeeds {
    fn select(
        &self,
        _space: Space<'_>,
        _query: &[f32],
        _count: usize,
        _max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        out.extend_from_slice(&self.ids);
        0
    }

    fn label(&self) -> &'static str {
        "STATIC"
    }

    fn reorder(&mut self, map: &IdRemap) {
        for id in &mut self.ids {
            *id = map.to_new(*id);
        }
    }

    fn heap_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistCounter;
    use crate::store::VectorStore;

    fn tiny_space() -> (VectorStore, DistCounter) {
        let store = VectorStore::from_flat(1, (0..10).map(|i| i as f32).collect());
        (store, DistCounter::new())
    }

    #[test]
    fn fixed_seed_is_constant() {
        let (store, counter) = tiny_space();
        let space = Space::new(&store, &counter);
        let p = FixedSeed::random(10, 42);
        let mut a = Vec::new();
        let mut b = Vec::new();
        p.select(space, &[0.0], 5, 0, &mut a);
        p.select(space, &[9.0], 5, 0, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert!(a[0] < 10);
    }

    #[test]
    fn medoid_seed_points_to_center() {
        let (store, counter) = tiny_space();
        let space = Space::new(&store, &counter);
        let p = MedoidSeed::compute(space);
        // Centroid of 0..9 is 4.5; nearest points are 4/5 (tie -> first).
        assert!(p.medoid() == 4 || p.medoid() == 5);
        let mut out = Vec::new();
        p.select(space, &[0.0], 3, 0, &mut out);
        assert_eq!(out, vec![p.medoid()]);
    }

    #[test]
    fn random_seeds_returns_requested_count() {
        let (store, counter) = tiny_space();
        let space = Space::new(&store, &counter);
        let p = RandomSeeds::new(10, 1);
        let mut out = Vec::new();
        p.select(space, &[0.0], 7, 0, &mut out);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|&s| s < 10));
    }

    #[test]
    fn random_seeds_vary_across_queries() {
        let (store, counter) = tiny_space();
        let space = Space::new(&store, &counter);
        let p = RandomSeeds::new(10, 1);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..8 {
            p.select(space, &[0.0], 4, 0, &mut a);
            p.select(space, &[0.0], 4, 0, &mut b);
        }
        assert_ne!(a, b, "independent draws should differ somewhere");
    }

    #[test]
    fn per_query_seeds_are_history_independent() {
        let (store, counter) = tiny_space();
        let space = Space::new(&store, &counter);
        let p = RandomSeeds::per_query(10, 1);
        let q = RandomSeeds::per_query(10, 1);
        // Advance `p` with unrelated traffic; a repeated query must still
        // get the same seeds a fresh provider gives it.
        let mut scratch = Vec::new();
        for i in 0..16 {
            p.select(space, &[i as f32], 4, 0, &mut scratch);
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        p.select(space, &[3.5, -1.0], 4, 0, &mut a);
        q.select(space, &[3.5, -1.0], 4, 0, &mut b);
        assert_eq!(a, b, "same query must draw the same seeds");
        // Distinct queries should still draw differently somewhere.
        let mut c = Vec::new();
        q.select(space, &[3.5, -2.0], 4, 0, &mut c);
        assert_ne!(b, c);
    }

    #[test]
    fn anchored_random_seeds_include_anchor() {
        let (store, counter) = tiny_space();
        let space = Space::new(&store, &counter);
        let p = RandomSeeds::with_anchor(10, 4, 1);
        let mut out = Vec::new();
        p.select(space, &[0.0], 3, 0, &mut out);
        assert_eq!(out[0], 4);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn static_seeds_passthrough() {
        let (store, counter) = tiny_space();
        let space = Space::new(&store, &counter);
        let p = StaticSeeds::new(vec![1, 2, 3]);
        let mut out = Vec::new();
        p.select(space, &[0.0], 99, 0, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn reorder_translates_draws_not_the_stream() {
        // Two providers with the same RNG seed, one reordered: the
        // reordered one must emit the *relabeled* version of the exact
        // same draw sequence, so both select identical vectors.
        let (store, counter) = tiny_space();
        let space = Space::new(&store, &counter);
        let a = RandomSeeds::with_anchor(10, 4, 99);
        let mut b = RandomSeeds::with_anchor(10, 4, 99);
        let map = IdRemap::from_new_to_old((0..10u32).rev().collect()).unwrap();
        b.reorder(&map);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            a.select(space, &[0.0], 6, 0, &mut out_a);
            b.select(space, &[0.0], 6, 0, &mut out_b);
        }
        let translated: Vec<u32> = out_a.iter().map(|&id| map.to_new(id)).collect();
        assert_eq!(out_b, translated);
    }

    #[test]
    fn random_seeds_count_the_translate_table_a_reorder_installs() {
        let mut p = RandomSeeds::per_query(10, 3);
        assert_eq!(p.heap_bytes(), 0);
        let map = IdRemap::from_new_to_old((0..10u32).rev().collect()).unwrap();
        p.reorder(&map);
        assert_eq!(p.heap_bytes(), 10 * std::mem::size_of::<u32>());
        // A second reorder rewrites the table in place.
        p.reorder(&map);
        assert_eq!(p.heap_bytes(), 10 * std::mem::size_of::<u32>());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FixedSeed::new(0).label(), "SF");
        assert_eq!(MedoidSeed::with_medoid(0).label(), "MD");
        assert_eq!(RandomSeeds::new(1, 0).label(), "KS");
    }
}
