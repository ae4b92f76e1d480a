//! **KGraph** — the original Neighborhood-Propagation method: an
//! approximate k-NN graph obtained by refining a random graph with
//! NNDescent. Queries run the shared beam search with K-sampled random
//! seeds (KS).

use crate::common::BuildReport;
use crate::nndescent::KnnGraphState;
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph};
use gass_core::index::PrebuiltIndex;
use gass_core::seed::RandomSeeds;
use gass_core::store::VectorStore;

/// KGraph construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct KGraphParams {
    /// Neighbors kept per node (the k of the k-NN graph).
    pub k: usize,
    /// Maximum NNDescent iterations.
    pub iters: usize,
    /// Per-node join sample size.
    pub sample: usize,
    /// Early-termination threshold (fraction of `n·k` updates).
    pub delta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Construction worker threads (0 = all available cores). NNDescent's
    /// join distances parallelize without changing the result: the built
    /// graph is bit-identical at any thread count.
    pub threads: usize,
}

impl KGraphParams {
    /// Small-scale defaults: `k=20`, 12 iterations, sample 24.
    pub fn small() -> Self {
        Self { k: 20, iters: 12, sample: 24, delta: 0.002, seed: 42, threads: 0 }
    }
}

/// Builds a KGraph index (random init + NNDescent), served with
/// K-sampled random seeds.
pub fn build(store: VectorStore, params: KGraphParams) -> PrebuiltIndex {
    assert!(store.len() > params.k, "need more points than k");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let graph = {
        let space = Space::new(&store, &counter);
        let threads = gass_core::effective_threads(params.threads);
        let mut state = KnnGraphState::random_init(space, params.k, params.seed);
        state.run_with(
            space,
            params.iters,
            params.sample,
            params.delta,
            params.seed ^ 0xd5,
            threads,
        );
        let mut g = AdjacencyGraph::new(store.len());
        for (u, list) in state.lists().iter().enumerate() {
            g.set_neighbors(u as u32, list.iter().map(|n| n.id).collect());
        }
        FlatGraph::from_adjacency(&g, Some(params.k))
    };
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    let seeds = RandomSeeds::new(store.len(), params.seed ^ 0x5eed);
    PrebuiltIndex::new(store, graph, Box::new(seeds), "KGraph").with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn kgraph_reaches_reasonable_recall() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), KGraphParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 80).with_seed_count(16);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 150.0;
        assert!(recall > 0.8, "KGraph recall too low: {recall}");
    }

    #[test]
    fn build_report_is_populated() {
        let base = deep_like(120, 3);
        let idx = build(base, KGraphParams::small());
        assert!(idx.build_report().dist_calcs > 0);
        assert!(idx.build_report().seconds >= 0.0);
        assert_eq!(idx.name(), "KGraph");
        let s = idx.stats();
        assert_eq!(s.nodes, 120);
        assert!(s.max_degree <= 20);
    }
}
