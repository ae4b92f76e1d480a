//! # gass-hash
//!
//! Locality-sensitive hashing substrate: Euclidean (p-stable) LSH with
//! multiple tables, used as
//!
//! * the **LSH** seed-selection strategy (IEH-style) from the paper's
//!   taxonomy, and
//! * LSHAPG's auxiliary structure: multi-table seed retrieval plus a
//!   projected-distance sketch for probabilistic routing.
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
use gass_core::seed::SeedProvider;
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

    fn raw_projections(&self, v: &[f32]) -> Vec<f32> {
        self.projections
            .iter()
            .zip(&self.offsets)
            .map(|(p, b)| gass_core::distance::dot(p, v) + b)
            .collect()
    }

    fn codes(&self, v: &[f32]) -> Vec<i32> {
        self.raw_projections(v).into_iter().map(|x| (x / self.width).floor() as i32).collect()
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
    /// Per-vector sketch: concatenated raw projections of table 0, used
    /// for projected-distance estimation (LSHAPG's routing).
    sketches: Vec<f32>,
    sketch_dim: usize,
    dim: usize,
    /// After a reorder: `new → old` table used as the sort key so the
    /// truncated candidate set is identical before and after relabeling.
    orig: Option<Vec<u32>>,
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
        let dim = store.dim();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut tables: Vec<LshTable> =
            (0..num_tables).map(|_| LshTable::new(dim, m, width, &mut rng)).collect();
        for (id, v) in store.iter() {
            for t in &mut tables {
                t.insert(id, v);
            }
        }
        let sketch_dim = m;
        let mut sketches = Vec::with_capacity(store.len() * sketch_dim);
        for (_, v) in store.iter() {
            sketches.extend(tables[0].raw_projections(v));
        }
        Self { tables, sketches, sketch_dim, dim, orig: None }
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

    /// Candidate ids colliding with `query` across all tables,
    /// deduplicated; multi-probes when an exact pass yields fewer than
    /// `budget`.
    pub fn candidates(&self, query: &[f32], budget: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for t in &self.tables {
            t.probe(query, false, &mut out);
        }
        if out.len() < budget {
            for t in &self.tables {
                t.probe(query, true, &mut out);
            }
        }
        match &self.orig {
            Some(orig) => out.sort_unstable_by_key(|&id| orig[id as usize]),
            None => out.sort_unstable(),
        }
        out.dedup();
        out.truncate(budget.max(1));
        out
    }

    /// Relabels bucket contents and permutes the sketch rows through `map`
    /// after the vector store was permuted. Hash keys depend only on the
    /// vector contents, so bucket membership is unchanged.
    pub fn reorder(&mut self, map: &IdRemap) {
        for t in &mut self.tables {
            for bucket in t.buckets.values_mut() {
                for id in bucket.iter_mut() {
                    *id = map.to_new(*id);
                }
            }
        }
        let n = self.sketches.len() / self.sketch_dim.max(1);
        let mut permuted = Vec::with_capacity(self.sketches.len());
        for new in 0..n {
            let old = map.to_old(new as u32) as usize;
            permuted.extend_from_slice(
                &self.sketches[old * self.sketch_dim..(old + 1) * self.sketch_dim],
            );
        }
        self.sketches = permuted;
        self.orig = Some(match self.orig.take() {
            Some(prev) => {
                (0..prev.len()).map(|id| prev[map.to_old(id as u32) as usize]).collect()
            }
            None => map.new_to_old().to_vec(),
        });
    }

    /// Projection sketch of an arbitrary query vector (table 0's raw
    /// projections).
    pub fn query_sketch(&self, query: &[f32]) -> Vec<f32> {
        self.tables[0].raw_projections(query)
    }

    /// Estimated squared distance between a query sketch and stored vector
    /// `id`: `(dim / m) · ‖sketch_q − sketch_id‖²`. Unbiased for Gaussian
    /// projections; LSHAPG uses this to rank neighbors before computing
    /// exact distances.
    pub fn projected_dist_sq(&self, query_sketch: &[f32], id: u32) -> f32 {
        let base = id as usize * self.sketch_dim;
        let s = &self.sketches[base..base + self.sketch_dim];
        let d = gass_core::distance::l2_sq(query_sketch, s);
        d * (self.dim as f32 / self.sketch_dim as f32)
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Approximate heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.tables.iter().map(LshTable::heap_bytes).sum::<usize>()
            + self.sketches.capacity() * std::mem::size_of::<f32>()
    }
}

/// LSH seed provider (**LSH** strategy; IEH, LSHAPG).
#[derive(Clone, Debug)]
pub struct LshSeeds {
    index: LshIndex,
    fallback: u32,
}

impl LshSeeds {
    /// Wraps an [`LshIndex`]; `fallback` is returned when no bucket
    /// collides (e.g. far out-of-distribution queries).
    pub fn new(index: LshIndex, fallback: u32) -> Self {
        Self { index, fallback }
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
        let cands = self.index.candidates(query, count.max(1));
        if cands.is_empty() {
            out.push(self.fallback);
        } else {
            out.extend(cands);
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
        let cands = idx.candidates(&q, 30);
        assert!(!cands.is_empty());
        let hits = cands.iter().filter(|&&id| (50..75).contains(&id)).count();
        assert!(
            hits * 2 >= cands.len(),
            "most collisions should come from the home cluster: {hits}/{}",
            cands.len()
        );
    }

    #[test]
    fn projected_distance_correlates_with_true_distance() {
        let store = clustered_store(3, 25);
        let idx = LshIndex::build(&store, 2, 12, 4.0, 7);
        let q = vec![0.1f32; 8];
        let sketch = idx.query_sketch(&q);
        // Same-cluster point must project closer than a far-cluster point.
        let near_est = idx.projected_dist_sq(&sketch, 0); // cluster 0
        let far_est = idx.projected_dist_sq(&sketch, 99); // cluster 3
        assert!(near_est < far_est);
        let near_true = l2_sq(&q, store.get(0));
        let far_true = l2_sq(&q, store.get(99));
        assert!(near_true < far_true, "sanity");
        // Estimate within a loose multiplicative band of the truth.
        assert!(far_est > 0.1 * far_true && far_est < 10.0 * far_true);
    }

    #[test]
    fn seed_provider_falls_back_when_no_collision() {
        let store = clustered_store(5, 10);
        let idx = LshIndex::build(&store, 2, 6, 0.5, 9);
        let seeds = LshSeeds::new(idx, 3);
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
        let before = idx.candidates(&q, 12);
        let rev: Vec<u32> = (0..store.len() as u32).rev().collect();
        let map = IdRemap::from_new_to_old(rev).unwrap();
        let mut relabeled = idx.clone();
        relabeled.reorder(&map);
        let after = relabeled.candidates(&q, 12);
        // The kept set must be the same *vectors*, reported under new ids.
        let translated: Vec<u32> = after.iter().map(|&id| map.to_old(id)).collect();
        assert_eq!(translated, before);
    }

    #[test]
    fn candidates_are_deduplicated_and_bounded() {
        let store = clustered_store(8, 25);
        let idx = LshIndex::build(&store, 6, 3, 20.0, 11);
        let cands = idx.candidates(&[0.0f32; 8], 10);
        assert!(cands.len() <= 10);
        let mut sorted = cands.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), cands.len());
    }
}
