//! # gass-hash
//!
//! Locality-sensitive hashing substrate: Euclidean (p-stable) LSH with
//! multiple tables, used as
//!
//! * the **LSH** seed-selection strategy ([`LshSeeds`]; IEH, LSHAPG) from
//!   the paper's taxonomy, and
//! * LSHAPG's probabilistic routing ([`SketchGate`]): a projected-distance
//!   sketch that gates the beam search's exact evaluations.
//!
//! Each table concatenates `m` quantized random projections
//! `h(v) = ⌊(a·v + b)/w⌋` (Gaussian `a`, uniform `b ∈ [0, w)`) into a
//! bucket key. Queries retrieve the colliding buckets of every table;
//! multi-probe (visiting neighboring quantization cells) fills the budget
//! when exact collisions are sparse.

#![warn(missing_docs)]
#![warn(clippy::all)]

use gass_core::distance::Space;
use gass_core::reorder::IdRemap;
use gass_core::search::Gate;
use gass_core::seed::{OriginalIds, SeedProvider};
use gass_core::store::VectorStore;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Samples a standard normal via Box–Muller (the `rand` crate alone ships
/// no Gaussian distribution; `rand_distr` is outside the allowed
/// dependency set).
pub fn gaussian(rng: &mut SmallRng) -> f32 {
    // Avoid log(0).
    let u1: f32 = rng.random_range(f32::MIN_POSITIVE..1.0);
    let u2: f32 = rng.random_range(0.0..1.0f32);
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

/// One hash table: `m` projections and a bucket map.
#[derive(Clone, Debug)]
struct LshTable {
    /// `m` projection vectors, row-major.
    projections: Vec<Vec<f32>>,
    offsets: Vec<f32>,
    width: f32,
    buckets: HashMap<u64, Vec<u32>>,
}

/// The raw projections `a·v + b` of `v`, one per projection row.
fn raw_projections<'a>(
    projections: &'a [Vec<f32>],
    offsets: &'a [f32],
    v: &'a [f32],
) -> impl Iterator<Item = f32> + 'a {
    projections.iter().zip(offsets).map(|(p, b)| gass_core::distance::dot(p, v) + b)
}

fn mix_key(codes: &[i32]) -> u64 {
    // FNV-1a over the i32 codes.
    let mut h: u64 = 0xcbf29ce484222325;
    for &c in codes {
        for b in c.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

impl LshTable {
    fn new(dim: usize, m: usize, width: f32, rng: &mut SmallRng) -> Self {
        let projections = (0..m).map(|_| (0..dim).map(|_| gaussian(rng)).collect()).collect();
        let offsets = (0..m).map(|_| rng.random_range(0.0..width)).collect();
        Self { projections, offsets, width, buckets: HashMap::new() }
    }

    fn codes(&self, v: &[f32]) -> Vec<i32> {
        raw_projections(&self.projections, &self.offsets, v)
            .map(|x| (x / self.width).floor() as i32)
            .collect()
    }

    fn insert(&mut self, id: u32, v: &[f32]) {
        let key = mix_key(&self.codes(v));
        self.buckets.entry(key).or_default().push(id);
    }

    /// Exact-collision candidates plus (optionally) single-coordinate
    /// perturbations — a cheap multi-probe scheme.
    fn probe(&self, v: &[f32], multi_probe: bool, out: &mut Vec<u32>) {
        let codes = self.codes(v);
        if let Some(b) = self.buckets.get(&mix_key(&codes)) {
            out.extend_from_slice(b);
        }
        if multi_probe {
            let mut perturbed = codes.clone();
            for i in 0..codes.len() {
                for delta in [-1i32, 1] {
                    perturbed[i] = codes[i] + delta;
                    if let Some(b) = self.buckets.get(&mix_key(&perturbed)) {
                        out.extend_from_slice(b);
                    }
                }
                perturbed[i] = codes[i];
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        let proj: usize =
            self.projections.iter().map(|p| p.capacity() * std::mem::size_of::<f32>()).sum();
        let buckets: usize =
            self.buckets.values().map(|b| b.capacity() * std::mem::size_of::<u32>() + 16).sum();
        proj + buckets + self.offsets.capacity() * std::mem::size_of::<f32>()
    }
}

/// Multi-table Euclidean LSH index over a [`VectorStore`].
#[derive(Clone, Debug)]
pub struct LshIndex {
    tables: Vec<LshTable>,
    /// After a reorder: the original ids, the sort key that keeps the
    /// truncated candidate set identical before and after relabeling.
    orig: OriginalIds,
}

impl LshIndex {
    /// Builds the index.
    ///
    /// * `num_tables` — independent hash tables (paper's `L`);
    /// * `m` — projections concatenated per table;
    /// * `width` — quantization cell width `w` (scale to data spread).
    ///
    /// # Panics
    /// Panics if the store is empty or any parameter is zero/non-positive.
    pub fn build(
        store: &VectorStore,
        num_tables: usize,
        m: usize,
        width: f32,
        seed: u64,
    ) -> Self {
        assert!(!store.is_empty(), "LSH over empty store");
        assert!(num_tables > 0 && m > 0, "tables and projections must be positive");
        assert!(width > 0.0, "bucket width must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tables: Vec<LshTable> =
            (0..num_tables).map(|_| LshTable::new(store.dim(), m, width, &mut rng)).collect();
        for (id, v) in store.iter() {
            for t in &mut tables {
                t.insert(id, v);
            }
        }
        Self { tables, orig: OriginalIds::default() }
    }

    /// Like [`Self::build`], but the bucket width adapts to the data:
    /// `width = width_factor × std` of the raw projections, estimated on a
    /// sample. A factor around 0.5–1 puts near neighbors in the same or
    /// adjacent cells regardless of the dataset's scale.
    pub fn build_scaled(
        store: &VectorStore,
        num_tables: usize,
        m: usize,
        width_factor: f32,
        seed: u64,
    ) -> Self {
        assert!(!store.is_empty(), "LSH over empty store");
        assert!(width_factor > 0.0, "width factor must be positive");
        // Probe the projection spread with a throwaway single projection.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1ed);
        let probe: Vec<f32> = (0..store.dim()).map(|_| gaussian(&mut rng)).collect();
        let sample = store.len().min(256);
        let mut acc = 0.0f64;
        let mut acc2 = 0.0f64;
        let step = (store.len() / sample).max(1);
        let mut count = 0usize;
        for i in (0..store.len()).step_by(step) {
            let p = gass_core::distance::dot(&probe, store.get(i as u32)) as f64;
            acc += p;
            acc2 += p * p;
            count += 1;
        }
        let mean = acc / count as f64;
        let std = (acc2 / count as f64 - mean * mean).max(1e-12).sqrt() as f32;
        Self::build(store, num_tables, m, (width_factor * std).max(1e-6), seed)
    }

    /// Appends to `out` the ids colliding with `query` across all tables,
    /// deduplicated, in original-id order, at most `budget.max(1)` of
    /// them; multi-probes when an exact pass yields fewer than `budget`.
    /// `out`'s earlier contents are left as they were.
    pub fn candidates(&self, query: &[f32], budget: usize, out: &mut Vec<u32>) {
        let start = out.len();
        for t in &self.tables {
            t.probe(query, false, out);
        }
        if out.len() - start < budget {
            for t in &self.tables {
                t.probe(query, true, out);
            }
        }
        self.orig.select(out, start, budget.max(1));
    }

    /// Relabels bucket contents through `map` after the vector store was
    /// permuted. Hash keys depend only on the vector contents, so bucket
    /// membership is unchanged.
    pub fn reorder(&mut self, map: &IdRemap) {
        for t in &mut self.tables {
            for bucket in t.buckets.values_mut() {
                for id in bucket.iter_mut() {
                    *id = map.to_new(*id);
                }
            }
        }
        self.orig.reorder(map);
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Approximate heap bytes: the tables, and the `new → old` table a
    /// reorder installs.
    pub fn heap_bytes(&self) -> usize {
        self.tables.iter().map(LshTable::heap_bytes).sum::<usize>() + self.orig.heap_bytes()
    }
}

/// LSHAPG's probabilistic routing as a traversal [`Gate`]: a neighbour's
/// squared distance is estimated from its projection sketch (table 0's raw
/// projections `a·v + b` of an [`LshIndex`]) as
/// `‖sketch_q − sketch_id‖² / m`, unbiased for the tables' N(0, 1)
/// projection rows (each row's `(a·Δ)²` has mean `‖Δ‖²`), and the
/// neighbour is scored exactly unless the estimate exceeds `γ ·` the
/// buffer's bound. While the bound is `+∞` (the
/// buffer not yet full) every neighbour is admitted, and a NaN estimate is
/// admitted too: the rejection test is `est > γ · bound`.
#[derive(Clone, Debug)]
pub struct SketchGate {
    /// Table 0's `m` projection rows and offsets.
    projections: Vec<Vec<f32>>,
    offsets: Vec<f32>,
    /// Per-vector sketch rows (`n × m`), in the current id space.
    sketches: Vec<f32>,
    /// `1 / m`.
    scale: f32,
    /// Routing slack `γ`.
    gamma: f32,
}

impl SketchGate {
    /// Sketches every vector of `store` with `lsh`'s table 0; `gamma` is
    /// the routing slack (`f32::INFINITY` admits every neighbour).
    pub fn new(lsh: &LshIndex, store: &VectorStore, gamma: f32) -> Self {
        let t = &lsh.tables[0];
        let m = t.projections.len();
        let mut sketches = Vec::with_capacity(store.len() * m);
        for (_, v) in store.iter() {
            sketches.extend(raw_projections(&t.projections, &t.offsets, v));
        }
        Self {
            projections: t.projections.clone(),
            offsets: t.offsets.clone(),
            sketches,
            scale: 1.0 / m as f32,
            gamma,
        }
    }

    /// The estimated squared distance between a query sketch and vector `id`.
    fn estimate(&self, sketch: &[f32], id: u32) -> f32 {
        let m = self.offsets.len();
        let row = &self.sketches[id as usize * m..(id as usize + 1) * m];
        gass_core::distance::l2_sq(sketch, row) * self.scale
    }
}

impl Gate for SketchGate {
    /// Writes the query's sketch.
    fn prepare(&self, query: &[f32], state: &mut Vec<f32>) {
        state.clear();
        state.extend(raw_projections(&self.projections, &self.offsets, query));
    }

    #[inline]
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn admits(&self, sketch: &[f32], id: u32, bound: f32) -> bool {
        !bound.is_finite() || !(self.estimate(sketch, id) > self.gamma * bound)
    }

    /// Permutes the sketch rows through `map`.
    fn reorder(&mut self, map: &IdRemap) {
        let m = self.offsets.len();
        let mut permuted = Vec::with_capacity(self.sketches.len());
        for new in 0..(self.sketches.len() / m) as u32 {
            let old = map.to_old(new) as usize;
            permuted.extend_from_slice(&self.sketches[old * m..(old + 1) * m]);
        }
        self.sketches = permuted;
    }

    fn heap_bytes(&self) -> usize {
        let f32s = self.projections.iter().map(Vec::capacity).sum::<usize>()
            + self.offsets.capacity()
            + self.sketches.capacity();
        f32s * std::mem::size_of::<f32>()
    }
}

/// LSH seed provider (**LSH** strategy; IEH, LSHAPG).
#[derive(Clone, Debug)]
pub struct LshSeeds {
    index: LshIndex,
    fallback: u32,
    /// The fewest candidates a query retrieves, whatever `count` asks.
    min_count: usize,
}

impl LshSeeds {
    /// Wraps an [`LshIndex`]; `fallback` is returned when no bucket
    /// collides (e.g. far out-of-distribution queries). A query retrieves
    /// at least `min_count` candidates (and at least one) whatever count
    /// it asks for.
    pub fn new(index: LshIndex, fallback: u32, min_count: usize) -> Self {
        Self { index, fallback, min_count: min_count.max(1) }
    }

    /// The underlying index.
    pub fn index(&self) -> &LshIndex {
        &self.index
    }
}

impl SeedProvider for LshSeeds {
    /// Bucket lookups only: spends no distance evaluation.
    fn select(
        &self,
        _space: Space<'_>,
        query: &[f32],
        count: usize,
        _max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        let start = out.len();
        self.index.candidates(query, count.max(self.min_count), out);
        if out.len() == start {
            out.push(self.fallback);
        }
        0
    }

    fn label(&self) -> &'static str {
        "LSH"
    }

    fn reorder(&mut self, map: &IdRemap) {
        self.index.reorder(map);
        self.fallback = map.to_new(self.fallback);
    }

    fn heap_bytes(&self) -> usize {
        self.index.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::distance::{l2_sq, DistCounter};

    fn clustered_store(seed: u64, n_per: usize) -> VectorStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorStore::new(8);
        for c in 0..4 {
            let center = c as f32 * 10.0;
            for _ in 0..n_per {
                let v: Vec<f32> =
                    (0..8).map(|_| center + rng.random_range(-0.3..0.3f32)).collect();
                s.push(&v);
            }
        }
        s
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = SmallRng::seed_from_u64(5);
        let samples: Vec<f32> = (0..20000).map(|_| gaussian(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / samples.len() as f32;
        let var: f32 =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn same_cluster_collides() {
        let store = clustered_store(1, 25);
        let idx = LshIndex::build(&store, 4, 4, 8.0, 42);
        // Query at the center of cluster 2 (ids 50..75).
        let q = vec![20.0f32; 8];
        let mut cands = Vec::new();
        idx.candidates(&q, 30, &mut cands);
        assert!(!cands.is_empty());
        let hits = cands.iter().filter(|&&id| (50..75).contains(&id)).count();
        assert!(
            hits * 2 >= cands.len(),
            "most collisions should come from the home cluster: {hits}/{}",
            cands.len()
        );
    }

    /// The sketch estimate is unbiased for the tables' N(0, 1) rows: over
    /// pairs of Gaussian vectors its mean ratio to the true squared
    /// distance is 1 (within sampling error of one 16-row table in 32
    /// dimensions), and it still ranks a same-cluster point before a
    /// far-cluster one.
    #[test]
    fn projected_distance_correlates_with_true_distance() {
        let (dim, m) = (32, 16);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut store = VectorStore::new(dim);
        for _ in 0..200 {
            let v: Vec<f32> = (0..dim).map(|_| gaussian(&mut rng)).collect();
            store.push(&v);
        }
        let gate = SketchGate::new(&LshIndex::build(&store, 1, m, 4.0, 7), &store, 1.0);
        let mut sketch = Vec::new();
        let mut ratios = Vec::new();
        for q in 0..40 {
            let query: Vec<f32> = (0..dim).map(|_| gaussian(&mut rng)).collect();
            gate.prepare(&query, &mut sketch);
            for id in (q..200).step_by(40) {
                ratios.push(
                    gate.estimate(&sketch, id as u32) / l2_sq(&query, store.get(id as u32)),
                );
            }
        }
        let mean = ratios.iter().sum::<f32>() / ratios.len() as f32;
        assert!(
            (0.8..=1.25).contains(&mean),
            "mean est/true {mean} over {} pairs",
            ratios.len()
        );

        let store = clustered_store(3, 25);
        let gate = SketchGate::new(&LshIndex::build(&store, 2, 12, 4.0, 7), &store, 1.0);
        let q = vec![0.1f32; 8];
        gate.prepare(&q, &mut sketch);
        // Same-cluster point (cluster 0) must project closer than a
        // far-cluster point (cluster 3).
        assert!(l2_sq(&q, store.get(0)) < l2_sq(&q, store.get(99)), "sanity");
        assert!(gate.estimate(&sketch, 0) < gate.estimate(&sketch, 99));
    }

    #[test]
    fn seed_provider_falls_back_when_no_collision() {
        let store = clustered_store(5, 10);
        let idx = LshIndex::build(&store, 2, 6, 0.5, 9);
        let seeds = LshSeeds::new(idx, 3, 1);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        // Absurdly far query: no bucket can collide even multi-probed.
        let mut out = Vec::new();
        seeds.select(space, &[1e6f32; 8], 5, 0, &mut out);
        assert_eq!(out, vec![3]);
        assert_eq!(seeds.label(), "LSH");
    }

    #[test]
    fn reorder_preserves_the_truncated_candidate_set() {
        let store = clustered_store(8, 25);
        let idx = LshIndex::build(&store, 4, 4, 8.0, 42);
        let q = vec![20.0f32; 8];
        let mut before = Vec::new();
        idx.candidates(&q, 12, &mut before);
        let rev: Vec<u32> = (0..store.len() as u32).rev().collect();
        let map = IdRemap::from_new_to_old(rev).unwrap();
        let mut relabeled = idx.clone();
        relabeled.reorder(&map);
        let mut after = Vec::new();
        relabeled.candidates(&q, 12, &mut after);
        // The kept set must be the same *vectors*, reported under new ids.
        let translated: Vec<u32> = after.iter().map(|&id| map.to_old(id)).collect();
        assert_eq!(translated, before);
    }

    #[test]
    fn lsh_counts_the_table_a_reorder_installs() {
        let store = clustered_store(8, 25);
        let mut idx = LshIndex::build(&store, 4, 4, 8.0, 42);
        let tables = idx.heap_bytes();
        let map = IdRemap::from_new_to_old((0..100u32).rev().collect()).unwrap();
        for _ in 0..2 {
            idx.reorder(&map);
            assert_eq!(idx.heap_bytes(), tables + 100 * std::mem::size_of::<u32>());
        }
    }

    #[test]
    fn sketch_gate_follows_a_reorder_and_admits_until_the_bound_is_finite() {
        let store = clustered_store(3, 25);
        let idx = LshIndex::build(&store, 2, 6, 4.0, 7);
        let mut gate = SketchGate::new(&idx, &store, 1.0);
        assert_eq!(gate.heap_bytes(), (100 * 6 + 6 * 8 + 6) * std::mem::size_of::<f32>());
        let mut sketch = Vec::new();
        gate.prepare(&[0.1f32; 8], &mut sketch);
        let far = gate.estimate(&sketch, 99);
        assert!(gate.admits(&sketch, 99, f32::INFINITY), "an unfilled buffer admits all");
        assert!(!gate.admits(&sketch, 99, far / 2.0));
        assert!(gate.admits(&sketch, 99, far * 2.0));
        let map = IdRemap::from_new_to_old((0..100u32).rev().collect()).unwrap();
        gate.reorder(&map);
        assert_eq!(gate.estimate(&sketch, map.to_new(99)).to_bits(), far.to_bits());
    }

    #[test]
    fn seeds_retrieve_at_least_their_floor() {
        let store = clustered_store(8, 25);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let q = [20.0f32; 8];
        let select = |min_count: usize, count: usize| {
            let seeds = LshSeeds::new(LshIndex::build(&store, 4, 4, 8.0, 42), 0, min_count);
            let mut out = Vec::new();
            seeds.select(space, &q, count, 0, &mut out);
            out
        };
        assert_eq!(select(1, 1).len(), 1);
        assert_eq!(select(4, 1), select(1, 4));
        assert_eq!(select(4, 6), select(1, 6));
    }

    #[test]
    fn candidates_are_deduplicated_and_bounded() {
        let store = clustered_store(8, 25);
        let idx = LshIndex::build(&store, 6, 3, 20.0, 11);
        let mut cands = vec![7];
        idx.candidates(&[0.0f32; 8], 10, &mut cands);
        assert_eq!(cands[0], 7, "what `out` held is kept");
        let cands = cands.split_off(1);
        assert!(!cands.is_empty() && cands.len() <= 10);
        let mut sorted = cands.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), cands.len());
    }
}
