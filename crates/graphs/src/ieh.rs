//! **IEH** — Iterative Expanding Hashing (Jin et al.): the paper's
//! taxonomy places it as the hash-seeded member of the
//! Neighborhood-Propagation family. An LSH index proposes each node's
//! initial neighbor candidates, NNDescent refines them into an
//! approximate k-NN graph, and at query time the same LSH tables provide
//! the seeds.
//!
//! The paper *excluded* IEH from its evaluation "due to suboptimal
//! performance" (citing earlier studies). We implement it anyway — the
//! taxonomy is part of the contribution; it shares EFANNA's NP core, with
//! hash seeds instead of tree seeds.

use crate::common::BuildReport;
use crate::nndescent::KnnGraphState;
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph};
use gass_core::index::PrebuiltIndex;
use gass_core::store::VectorStore;
use gass_hash::{LshIndex, LshSeeds};

/// IEH construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct IehParams {
    /// Neighbors kept per node.
    pub k: usize,
    /// LSH tables.
    pub tables: usize,
    /// Projections per table.
    pub projections: usize,
    /// LSH bucket width *factor* (multiplies the data's projection std;
    /// see `LshIndex::build_scaled`).
    pub width: f32,
    /// Candidates retrieved per node from the LSH index for
    /// initialization.
    pub init_candidates: usize,
    /// Maximum NNDescent iterations.
    pub iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl IehParams {
    /// Small-scale defaults.
    pub fn small() -> Self {
        Self {
            k: 20,
            tables: 4,
            projections: 8,
            width: 0.7,
            init_candidates: 40,
            iters: 8,
            seed: 42,
        }
    }
}

/// Builds an IEH index: LSH candidates → NNDescent refinement, served
/// with the same LSH tables as seed provider.
pub fn build(store: VectorStore, params: IehParams) -> PrebuiltIndex {
    assert!(store.len() > params.k, "need more points than k");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let lsh = LshIndex::build_scaled(
        &store,
        params.tables,
        params.projections,
        params.width,
        params.seed ^ 0x1e4,
    );
    let graph = {
        let space = Space::new(&store, &counter);
        let candidates: Vec<Vec<u32>> = (0..store.len() as u32)
            .map(|u| {
                let mut ids = Vec::new();
                lsh.candidates(store.get(u), params.init_candidates, &mut ids);
                ids
            })
            .collect();
        let mut state = KnnGraphState::from_candidates(space, params.k, candidates);
        // Hash buckets can be empty (sparse collisions on smooth
        // data); pad with random neighbors so NNDescent can converge.
        state.pad_random(space, params.seed ^ 0x9ad);
        state.run(space, params.iters, params.k + 8, 0.002, params.seed ^ 0x1e5);
        let mut g = AdjacencyGraph::new(store.len());
        for (u, list) in state.lists().iter().enumerate() {
            g.set_neighbors(u as u32, list.iter().map(|n| n.id).collect());
        }
        FlatGraph::from_adjacency(&g, Some(params.k))
    };
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    let seeds = LshSeeds::new(lsh, 0, 1);
    PrebuiltIndex::new(store, graph, Box::new(seeds), "IEH").with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn ieh_builds_and_answers() {
        let base = deep_like(500, 1);
        let queries = deep_like(12, 2);
        let idx = build(base.clone(), IehParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 96).with_seed_count(16);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 120.0;
        assert!(recall > 0.7, "IEH recall too low even for IEH: {recall}");
        assert_eq!(idx.name(), "IEH");
        assert!(idx.stats().aux_bytes > 0);
    }

    #[test]
    fn hash_bootstrap_beats_random_initialization() {
        // Like EFANNA's trees, IEH's hash buckets should start NNDescent
        // from a better-than-random graph.
        use crate::nndescent::KnnGraphState;
        let base = deep_like(400, 3);
        let lsh = LshIndex::build_scaled(&base, 4, 8, 0.7, 9);
        let counter = DistCounter::new();
        let space = Space::new(&base, &counter);
        let candidates: Vec<Vec<u32>> = (0..400u32)
            .map(|u| {
                let mut ids = Vec::new();
                lsh.candidates(base.get(u), 40, &mut ids);
                ids
            })
            .collect();
        let hash_init = KnnGraphState::from_candidates(space, 10, candidates);
        let rand_init = KnnGraphState::random_init(space, 10, 7);
        assert!(
            hash_init.graph_recall(space) > rand_init.graph_recall(space),
            "hash bootstrap should beat random"
        );
    }
}
