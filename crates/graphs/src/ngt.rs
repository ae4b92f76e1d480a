//! **NGT** — Neighborhood Graph and Tree (Yahoo Japan): the variant the
//! paper evaluates builds a *bi-directed k-NN graph* (k-NN lists plus all
//! reverse edges), prunes neighborhoods with RND, and selects query seeds
//! with a Vantage-Point tree.

use crate::common::BuildReport;
use crate::nndescent::KnnGraphState;
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, GraphView};
use gass_core::index::PrebuiltIndex;
use gass_core::nd::NdStrategy;
use gass_core::neighbor::Neighbor;
use gass_core::store::VectorStore;
use gass_trees::vptree::VpSeeds;

/// NGT construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct NgtParams {
    /// Base k-NN list length.
    pub base_k: usize,
    /// Final out-degree after RND pruning.
    pub max_degree: usize,
    /// NNDescent iterations approximating the k-NN graph.
    pub iters: usize,
    /// VP-tree leaf size (seed structure).
    pub vp_leaf: usize,
    /// RNG seed.
    pub seed: u64,
}

impl NgtParams {
    /// Small-scale defaults.
    pub fn small() -> Self {
        Self { base_k: 20, max_degree: 16, iters: 10, vp_leaf: 12, seed: 42 }
    }
}

/// Builds an NGT index: approximate k-NN graph → bi-direct → RND prune,
/// served with VP-tree seeds. The pruned graph stays an adjacency list.
pub fn build(store: VectorStore, params: NgtParams) -> PrebuiltIndex<AdjacencyGraph> {
    assert!(store.len() > params.base_k, "need more points than base_k");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let (graph, vp) = {
        let space = Space::new(&store, &counter);
        let mut state = KnnGraphState::random_init(space, params.base_k, params.seed);
        state.run(space, params.iters, params.base_k + 8, 0.002, params.seed ^ 0x17);
        // Bi-directed k-NN graph.
        let mut g = AdjacencyGraph::new(store.len());
        for (u, list) in state.lists().iter().enumerate() {
            for nb in list {
                g.add_undirected(u as u32, nb.id);
            }
        }
        // RND prune every (now enlarged) neighborhood.
        for u in 0..store.len() as u32 {
            let scored: Vec<Neighbor> =
                g.neighbors(u).iter().map(|&v| Neighbor::new(v, space.dist(u, v))).collect();
            let kept = NdStrategy::Rnd.diversify(space, u, &scored, params.max_degree);
            g.set_neighbors(u, kept.into_iter().map(|n| n.id).collect());
        }
        let vp = VpSeeds::build(space, params.vp_leaf, params.seed ^ 0x9d);
        (g, vp)
    };
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    PrebuiltIndex::new(store, graph, Box::new(vp), "NGT").with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn ngt_recall_with_vp_seeds() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), NgtParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 128).with_seed_count(16);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 150.0;
        assert!(recall > 0.8, "NGT recall too low: {recall}"); // paper rates NGT "medium" accuracy
    }

    #[test]
    fn degree_bounded_after_pruning() {
        let base = deep_like(300, 3);
        let idx = build(base, NgtParams::small());
        assert!(idx.stats().max_degree <= 16);
        assert!(idx.stats().aux_bytes > 0, "VP tree must be accounted");
        assert_eq!(idx.name(), "NGT");
    }
}
