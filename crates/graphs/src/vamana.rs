//! **Vamana** (DiskANN's graph): starts from a *random* `R`-regular graph
//! (degree ≥ log n keeps it connected w.h.p.), then makes two refinement
//! passes. In each pass, every node runs a beam search from the medoid,
//! its visited list is pruned with **RRND** (relaxation α; pass 1 uses
//! α = 1, i.e. plain RND; pass 2 uses the relaxed α ≥ 1), bi-directional
//! edges are added, and overflowing reverse lists are re-pruned with RND.
//! Queries start at the medoid plus random warm-up seeds (MD+KS).

use crate::common::{add_reverse_edges, add_reverse_edges_concurrent, BuildReport};
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph, GraphView};
use gass_core::index::PrebuiltIndex;
use gass_core::nd::NdStrategy;
use gass_core::neighbor::Neighbor;
use gass_core::par::ConcurrentAdjacency;
use gass_core::search::{beam_search_with_sink, SearchScratch};
use gass_core::seed::RandomSeeds;
use gass_core::store::VectorStore;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Refinement chunk size of the parallel build: each chunk searches the
/// frozen graph concurrently, then applies its edges under striped locks.
const PARALLEL_CHUNK: usize = 256;

/// Vamana construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct VamanaParams {
    /// Maximum out-degree `R`.
    pub max_degree: usize,
    /// Construction beam width `L`.
    pub build_l: usize,
    /// RRND relaxation for the second pass (the paper tunes α = 1.3;
    /// DiskANN's default is 1.2).
    pub alpha: f32,
    /// RNG seed.
    pub seed: u64,
    /// Construction worker threads (0 = all available cores). At `1` the
    /// refinement passes run the exact sequential algorithm. Above 1 each
    /// pass processes chunks of [`PARALLEL_CHUNK`] nodes: chunk members
    /// search the graph concurrently (not seeing same-chunk re-prunes),
    /// then apply their edges under striped locks.
    pub threads: usize,
}

impl VamanaParams {
    /// Small-scale defaults: `R=24`, `L=64`, `α=1.3`, serial build.
    pub fn small() -> Self {
        Self { max_degree: 24, build_l: 64, alpha: 1.3, seed: 42, threads: 1 }
    }
}

/// Builds a Vamana index (random init + two refinement passes), served
/// from the medoid plus K-sampled random seeds (MD+KS); the medoid is its
/// reorder entry.
pub fn build(store: VectorStore, params: VamanaParams) -> PrebuiltIndex {
    assert!(store.len() > params.max_degree, "need more points than R");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let n = store.len();
    let (graph, medoid) = {
        let space = Space::new(&store, &counter);
        let medoid = store.centroid_medoid();
        let mut rng = SmallRng::seed_from_u64(params.seed);

        // Random init: degree ~ max(R/2, ceil(log2 n)) random
        // out-neighbors per node (Erdős–Rényi-style connectivity).
        let init_degree =
            ((n as f64).log2().ceil() as usize).max(params.max_degree / 2).min(n - 1);
        let mut g = AdjacencyGraph::with_degree_hint(n, params.max_degree + 1);
        for u in 0..n as u32 {
            while g.neighbors(u).len() < init_degree {
                let v = rng.random_range(0..n as u32);
                g.add_edge(u, v);
            }
        }

        let mut order: Vec<u32> = (0..n as u32).collect();
        let threads = gass_core::effective_threads(params.threads.max(1));
        if threads <= 1 {
            let mut scratch = SearchScratch::new(n, params.build_l);
            let mut sink: Vec<Neighbor> = Vec::new();
            for pass in 0..2 {
                let alpha = if pass == 0 { 1.0 } else { params.alpha };
                let nd = NdStrategy::Rrnd { alpha };
                order.shuffle(&mut rng);
                for &u in &order {
                    sink.clear();
                    beam_search_with_sink(
                        &g,
                        space,
                        store.get(u),
                        &[medoid],
                        params.build_l,
                        params.build_l,
                        &mut scratch,
                        Some(&mut sink),
                    );
                    for &v in g.neighbors(u) {
                        if !sink.iter().any(|s| s.id == v) {
                            sink.push(Neighbor::new(v, space.dist(u, v)));
                        }
                    }
                    let kept = nd.diversify(space, u, &sink, params.max_degree);
                    g.set_neighbors(u, kept.iter().map(|k| k.id).collect());
                    // Overflowing reverse lists re-prune with RND, per
                    // the original algorithm.
                    add_reverse_edges(
                        space,
                        &mut g,
                        u,
                        &kept,
                        params.max_degree,
                        NdStrategy::Rnd,
                    );
                }
            }
            (g, medoid)
        } else {
            let conc = ConcurrentAdjacency::from_adjacency(g);
            for pass in 0..2 {
                let alpha = if pass == 0 { 1.0 } else { params.alpha };
                let nd = NdStrategy::Rrnd { alpha };
                order.shuffle(&mut rng);
                for chunk in order.chunks(PARALLEL_CHUNK) {
                    // Phase A: read-only searches + pruning against the
                    // graph frozen at the chunk boundary.
                    let prepared: Vec<(u32, Vec<Neighbor>)> = gass_core::par_map_with(
                        threads,
                        chunk.len(),
                        || (SearchScratch::new(n, params.build_l), Vec::new()),
                        |state, i| {
                            let (scratch, sink) = state;
                            let u = chunk[i];
                            sink.clear();
                            beam_search_with_sink(
                                &conc,
                                space,
                                store.get(u),
                                &[medoid],
                                params.build_l,
                                params.build_l,
                                scratch,
                                Some(sink),
                            );
                            for v in conc.snapshot(u) {
                                if !sink.iter().any(|s| s.id == v) {
                                    sink.push(Neighbor::new(v, space.dist(u, v)));
                                }
                            }
                            (u, nd.diversify(space, u, sink, params.max_degree))
                        },
                    );
                    // Phase B: apply under the stripe locks.
                    gass_core::par_for(threads, prepared.len(), |range| {
                        for (u, kept) in &prepared[range] {
                            conc.set_neighbors(*u, kept.iter().map(|k| k.id).collect());
                            add_reverse_edges_concurrent(
                                space,
                                &conc,
                                *u,
                                kept,
                                params.max_degree,
                                NdStrategy::Rnd,
                            );
                        }
                    });
                }
            }
            (conc.freeze(), medoid)
        }
    };
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    let flat = FlatGraph::from_adjacency(&graph, Some(params.max_degree));
    let seeds = RandomSeeds::with_anchor(n, medoid, params.seed ^ 0x5eed);
    PrebuiltIndex::new(store, flat, Box::new(seeds), "Vamana")
        .with_build_report(build)
        .with_entries(vec![medoid])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::{deep_like, seismic_like};

    fn recall(idx: &PrebuiltIndex, base: &VectorStore, queries: &VectorStore, l: usize) -> f64 {
        let gt = ground_truth(base, queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, l).with_seed_count(8);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        hit as f64 / (10 * gt.len()) as f64
    }

    #[test]
    fn vamana_high_recall() {
        let base = deep_like(600, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), VamanaParams::small());
        let r = recall(&idx, &base, &queries, 64);
        assert!(r > 0.93, "Vamana recall too low: {r}");
    }

    #[test]
    fn degree_bound_holds() {
        let base = seismic_like(300, 3);
        let idx = build(base, VamanaParams::small());
        assert!(idx.stats().max_degree <= 24);
        assert_eq!(idx.name(), "Vamana");
    }

    #[test]
    fn second_pass_alpha_adds_edges() {
        // α > 1 prunes less aggressively, so the relaxed build should keep
        // at least as many edges as a pure-RND (α = 1) double pass.
        let base = deep_like(300, 5);
        let relaxed = build(base.clone(), VamanaParams::small());
        let strict = build(base, VamanaParams { alpha: 1.0, ..VamanaParams::small() });
        assert!(
            relaxed.stats().edges >= strict.stats().edges,
            "relaxed {} vs strict {}",
            relaxed.stats().edges,
            strict.stats().edges
        );
    }
}
