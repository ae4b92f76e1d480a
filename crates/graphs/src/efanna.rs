//! **EFANNA** — NP-based graph with K-D-tree bootstrapping: randomized
//! truncated K-D trees supply each node's initial neighbor candidates,
//! NNDescent refines them, and the same trees provide query-time seeds
//! (the **KD** strategy).

use crate::common::BuildReport;
use crate::nndescent::KnnGraphState;
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph};
use gass_core::index::PrebuiltIndex;
use gass_core::store::VectorStore;
use gass_trees::kdtree::KdForest;

/// EFANNA construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct EfannaParams {
    /// Neighbors kept per node.
    pub k: usize,
    /// Number of randomized K-D trees.
    pub num_trees: usize,
    /// K-D-tree leaf size.
    pub leaf_size: usize,
    /// Candidates retrieved per node from the forest for initialization.
    pub init_candidates: usize,
    /// Maximum NNDescent iterations.
    pub iters: usize,
    /// Per-node join sample size.
    pub sample: usize,
    /// RNG seed.
    pub seed: u64,
    /// Construction worker threads (0 = all available cores). Forest
    /// candidate retrieval and the NNDescent join distances parallelize
    /// without changing the result: the built graph is bit-identical at
    /// any thread count.
    pub threads: usize,
}

impl EfannaParams {
    /// Small-scale defaults.
    pub fn small() -> Self {
        Self {
            k: 20,
            num_trees: 4,
            leaf_size: 16,
            init_candidates: 40,
            iters: 8,
            sample: 24,
            seed: 42,
            threads: 0,
        }
    }
}

/// Builds an EFANNA index: forest → initial candidates → NNDescent. The
/// K-D forest it was bootstrapped from is its seed provider (**KD**).
pub fn build(store: VectorStore, params: EfannaParams) -> PrebuiltIndex {
    let (graph, forest, build) = build_parts(&store, params);
    PrebuiltIndex::new(store, graph, Box::new(forest), "EFANNA").with_build_report(build)
}

/// The refined k-NN graph, the K-D forest it was bootstrapped from, and
/// what building both cost. NSG and SSG take "an EFANNA graph" as their
/// base and drop the forest.
pub(crate) fn build_parts(
    store: &VectorStore,
    params: EfannaParams,
) -> (FlatGraph, KdForest, BuildReport) {
    assert!(store.len() > params.k, "need more points than k");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let forest = KdForest::build(store, params.num_trees, params.leaf_size, params.seed);
    let graph = {
        let space = Space::new(store, &counter);
        let threads = gass_core::effective_threads(params.threads);
        // Per-node forest lookups are independent reads.
        let candidates: Vec<Vec<u32>> = gass_core::par_map(threads, store.len(), |u| {
            let mut ids = Vec::new();
            forest.candidates(store.get(u as u32), params.init_candidates, &mut ids);
            ids
        });
        let mut state = KnnGraphState::from_candidates(space, params.k, candidates);
        state.pad_random(space, params.seed ^ 0x9ad);
        state.run_with(space, params.iters, params.sample, 0.002, params.seed ^ 0xefa, threads);
        let mut g = AdjacencyGraph::new(store.len());
        for (u, list) in state.lists().iter().enumerate() {
            g.set_neighbors(u as u32, list.iter().map(|n| n.id).collect());
        }
        FlatGraph::from_adjacency(&g, Some(params.k))
    };
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    (graph, forest, build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn efanna_recall_with_kd_seeds() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), EfannaParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 80).with_seed_count(16);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 150.0;
        assert!(recall > 0.85, "EFANNA recall too low: {recall}");
    }

    #[test]
    fn kd_bootstrap_beats_random_initialization() {
        // EFANNA's pitch: tree-based initialization starts NNDescent from
        // a far better graph than a random start. Compare the *initial*
        // graph recall of the two bootstraps (before any refinement).
        use crate::nndescent::KnnGraphState;
        let base = deep_like(400, 3);
        let forest = gass_trees::kdtree::KdForest::build(&base, 4, 16, 42);
        let counter = DistCounter::new();
        let space = Space::new(&base, &counter);
        let candidates: Vec<Vec<u32>> = (0..400u32)
            .map(|u| {
                let mut ids = Vec::new();
                forest.candidates(base.get(u), 40, &mut ids);
                ids
            })
            .collect();
        let kd_init = KnnGraphState::from_candidates(space, 10, candidates);
        let rand_init = KnnGraphState::random_init(space, 10, 7);
        let kd_recall = kd_init.graph_recall(space);
        let rand_recall = rand_init.graph_recall(space);
        assert!(
            kd_recall > rand_recall + 0.3,
            "KD bootstrap ({kd_recall}) should far exceed random init ({rand_recall})"
        );
    }

    #[test]
    fn stats_include_forest_bytes() {
        let base = deep_like(150, 5);
        let idx = build(base, EfannaParams::small());
        assert!(idx.stats().aux_bytes > 0, "forest must be accounted");
        assert_eq!(idx.name(), "EFANNA");
    }
}
