//! **HVS** — Hierarchical Voronoi Structure (Lu et al., VLDB 2021): an
//! HNSW whose hierarchical layers are replaced by a pyramid of Voronoi
//! partitions at geometrically coarsening resolution.
//!
//! The paper *describes* HVS in its survey but could not run the official
//! implementation ("excluded due to difficulties running the official
//! implementation"). We provide a faithful-in-spirit implementation so
//! the taxonomy is complete and the structure can be measured:
//!
//! * Layers are k-means codebooks whose size grows by a fixed factor per
//!   level (coarse → fine), standing in for the paper's multi-level
//!   quantization. Nodes are assigned to layers by *local density* — the
//!   original's refinement over HNSW's uniformly random level draws — by
//!   ranking points by distance to their cluster centroid: central
//!   (dense-region) points populate upper layers.
//! * Query answering descends the codebook pyramid (nearest centroid per
//!   level, counted) and seeds HNSW-style beam search on the base layer,
//!   exactly as HVS searches "similar to that of HNSW".

use crate::common::BuildReport;
use gass_core::distance::{l2_sq, DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph};
use gass_core::index::PrebuiltIndex;
use gass_core::nd::NdStrategy;
use gass_core::search::{beam_search, SearchScratch};
use gass_core::seed::SeedProvider;
use gass_core::store::VectorStore;
use gass_trees::kmeans::kmeans;

/// HVS construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct HvsParams {
    /// Base-layer maximum out-degree.
    pub max_degree: usize,
    /// Construction beam width.
    pub ef_construction: usize,
    /// Codebook size of the coarsest (top) level.
    pub top_codebook: usize,
    /// Codebook growth factor per level going down (the original doubles
    /// dimensionality per level; we grow resolution instead).
    pub growth: usize,
    /// Number of pyramid levels.
    pub levels: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HvsParams {
    /// Small-scale defaults: 3 levels of 8 / 32 / 128 centroids.
    pub fn small() -> Self {
        Self {
            max_degree: 24,
            ef_construction: 96,
            top_codebook: 8,
            growth: 4,
            levels: 3,
            seed: 42,
        }
    }
}

/// One pyramid level: a codebook plus, per centroid, the id of the stored
/// vector closest to that centroid (the "representative" used as a seed
/// candidate).
struct Level {
    centroids: Vec<Vec<f32>>,
    representatives: Vec<u32>,
}

impl Level {
    fn heap_bytes(&self) -> usize {
        self.centroids.iter().map(|c| c.capacity() * std::mem::size_of::<f32>()).sum::<usize>()
            + self.representatives.capacity() * std::mem::size_of::<u32>()
    }
}

/// The Voronoi pyramid, usable as a standalone seed provider.
pub struct VoronoiPyramid {
    levels: Vec<Level>, // coarse -> fine
    /// The seed when the descent picks nothing (every centroid distance
    /// NaN or infinite): stored vector 0, in the current id space.
    entry: u32,
}

impl VoronoiPyramid {
    /// Builds the pyramid over the full store (clustering cost counted).
    pub fn build(space: Space<'_>, params: &HvsParams, seed: u64) -> Self {
        let n = space.len();
        let ids: Vec<u32> = (0..n as u32).collect();
        let mut levels = Vec::with_capacity(params.levels);
        let mut size = params.top_codebook.max(1);
        for l in 0..params.levels.max(1) {
            let size_l = size.min(n);
            let clustering = kmeans(space, &ids, size_l, 5, seed.wrapping_add(l as u64));
            // Representative per centroid: the member closest to it —
            // HVS's density-aware allocation of points to upper levels.
            let mut reps = vec![u32::MAX; clustering.centroids.len()];
            let mut best = vec![f32::INFINITY; clustering.centroids.len()];
            for (pos, &c) in clustering.assignment.iter().enumerate() {
                let id = ids[pos];
                space.counter().bump();
                let d = l2_sq(space.store().get(id), &clustering.centroids[c]);
                if d < best[c] {
                    best[c] = d;
                    reps[c] = id;
                }
            }
            let mut centroids = Vec::new();
            let mut representatives = Vec::new();
            for (c, rep) in reps.into_iter().enumerate() {
                if rep != u32::MAX {
                    centroids.push(clustering.centroids[c].clone());
                    representatives.push(rep);
                }
            }
            levels.push(Level { centroids, representatives });
            size = size.saturating_mul(params.growth.max(2));
        }
        Self { levels, entry: 0 }
    }

    /// Descends the pyramid: at each level, keep the centroid nearest to
    /// the query (counted), and return the finest level's representative
    /// with the distances spent. Under a `max_dists` budget (`0` =
    /// unlimited) no centroid past the budget is scored, and the
    /// representative of the nearest centroid so far is returned.
    pub fn descend(
        &self,
        space: Space<'_>,
        query: &[f32],
        max_dists: usize,
    ) -> (Option<u32>, usize) {
        let (mut rep, mut spent) = (None, 0);
        for level in &self.levels {
            let mut best = f32::INFINITY;
            for (c, centroid) in level.centroids.iter().enumerate() {
                if max_dists > 0 && spent >= max_dists {
                    return (rep, spent);
                }
                space.counter().bump();
                spent += 1;
                let d = l2_sq(query, centroid);
                if d < best {
                    best = d;
                    rep = Some(level.representatives[c]);
                }
            }
        }
        (rep, spent)
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }
}

impl SeedProvider for VoronoiPyramid {
    fn select(
        &self,
        space: Space<'_>,
        query: &[f32],
        _count: usize,
        max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        let (rep, spent) = self.descend(space, query, max_dists);
        out.push(rep.unwrap_or(self.entry));
        spent
    }

    fn label(&self) -> &'static str {
        "HVS"
    }

    /// Relabels the per-centroid representatives and the entry through
    /// `map` after the store was permuted. Centroids are raw vectors, so
    /// the counted descent itself is unchanged.
    fn reorder(&mut self, map: &gass_core::reorder::IdRemap) {
        for level in &mut self.levels {
            for rep in &mut level.representatives {
                *rep = map.to_new(*rep);
            }
        }
        self.entry = map.to_new(self.entry);
    }

    fn heap_bytes(&self) -> usize {
        self.levels.iter().map(Level::heap_bytes).sum()
    }
}

/// Builds an HVS index: an II+RND base graph (as in HNSW's base layer)
/// served with the Voronoi pyramid as seed provider.
pub fn build(store: VectorStore, params: HvsParams) -> PrebuiltIndex {
    assert!(store.len() >= 2, "need at least two vectors");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let n = store.len();
    let m0 = params.max_degree;
    let (base, pyramid) = {
        let space = Space::new(&store, &counter);
        let pyramid = VoronoiPyramid::build(space, &params, params.seed ^ 0xb5);
        // Base layer: incremental insertion with RND pruning, seeded by
        // pyramid descent (HVS builds on HNSW's base layer).
        let mut base = AdjacencyGraph::with_degree_hint(n, m0 + 1);
        let mut scratch = SearchScratch::new(n, params.ef_construction);
        for id in 1..n as u32 {
            let query = store.get(id);
            // Seed only among already-inserted nodes; fall back to the
            // first node when the pyramid's pick isn't inserted yet.
            let entry = pyramid.descend(space, query, 0).0.filter(|&e| e < id).unwrap_or(0);
            let res = beam_search(
                &base,
                space,
                query,
                &[entry],
                params.ef_construction,
                params.ef_construction,
                &mut scratch,
            );
            let cands = if res.neighbors.is_empty() {
                vec![gass_core::Neighbor::new(0, space.dist_to(query, 0))]
            } else {
                res.neighbors
            };
            let kept = NdStrategy::Rnd.diversify(space, id, &cands, m0);
            base.set_neighbors(id, kept.iter().map(|k| k.id).collect());
            crate::common::add_reverse_edges(space, &mut base, id, &kept, m0, NdStrategy::Rnd);
        }
        (FlatGraph::from_adjacency(&base, Some(m0)), pyramid)
    };
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    PrebuiltIndex::new(store, base, Box::new(pyramid), "HVS").with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn hvs_reasonable_recall() {
        let base = deep_like(600, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), HvsParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 80);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 150.0;
        assert!(recall > 0.85, "HVS recall too low: {recall}");
        assert_eq!(idx.name(), "HVS");
    }

    #[test]
    fn pyramid_levels_coarsen_upward() {
        let base = deep_like(500, 3);
        let counter = DistCounter::new();
        let space = Space::new(&base, &counter);
        let p = VoronoiPyramid::build(space, &HvsParams::small(), 9);
        assert_eq!(p.num_levels(), 3);
        assert!(p.heap_bytes() > 0);
        // Descent must return a valid id and count its evaluations.
        counter.reset();
        let rep = p.descend(space, base.get(7), 0).0.unwrap();
        assert!((rep as usize) < 500);
        assert!(counter.get() > 0);
    }

    #[test]
    fn pyramid_descent_lands_near_query() {
        let base = deep_like(800, 5);
        let counter = DistCounter::new();
        let space = Space::new(&base, &counter);
        let p = VoronoiPyramid::build(space, &HvsParams::small(), 11);
        let q = base.get(123).to_vec();
        let rep = p.descend(space, &q, 0).0.unwrap();
        let d_rep = gass_core::l2_sq(&q, base.get(rep));
        let mut dists: Vec<f32> =
            (0..800u32).map(|v| gass_core::l2_sq(&q, base.get(v))).collect();
        dists.sort_by(f32::total_cmp);
        // Representative should be well inside the closest quartile.
        assert!(d_rep <= dists[200], "descent landed badly: {d_rep} vs {}", dists[200]);
    }

    #[test]
    fn a_query_the_descent_cannot_place_seeds_at_the_relabelled_entry() {
        let base = deep_like(300, 4);
        let counter = DistCounter::new();
        let space = Space::new(&base, &counter);
        let mut p = VoronoiPyramid::build(space, &HvsParams::small(), 3);
        let nan = vec![f32::NAN; base.dim()];
        let mut out = Vec::new();
        p.select(space, &nan, 1, 0, &mut out);
        assert_eq!(out, [0]);
        let map =
            gass_core::reorder::IdRemap::from_new_to_old((0..300).rev().collect()).unwrap();
        p.reorder(&map);
        out.clear();
        p.select(space, &nan, 1, 0, &mut out);
        assert_eq!(out, [map.to_new(0)]);
    }

    #[test]
    fn select_stops_at_the_budget_and_still_seeds() {
        let base = deep_like(300, 4);
        let counter = DistCounter::new();
        let space = Space::new(&base, &counter);
        let p = VoronoiPyramid::build(space, &HvsParams::small(), 3);
        for budget in [1, 9] {
            counter.reset();
            let mut out = Vec::new();
            let spent = p.select(space, base.get(11), 1, budget, &mut out);
            assert_eq!((spent, counter.get()), (budget, budget as u64));
            assert_eq!(out.len(), 1);
            assert!((out[0] as usize) < 300);
        }
        // Not one centroid scored a number: the stored entry seeds.
        let nan = vec![f32::NAN; base.dim()];
        let mut out = Vec::new();
        assert_eq!(p.select(space, &nan, 1, 1, &mut out), 1);
        assert_eq!(out, [0]);
    }
}
