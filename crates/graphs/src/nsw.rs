//! **NSW** — Navigable Small World graphs (Malkov et al. 2014), the first
//! Incremental-Insertion method: each new vertex is connected
//! bi-directionally to its `M` (beam-search-approximate) nearest
//! neighbors among the already-inserted vertices; no diversification.
//! Edges created early act as long-range links, giving the small-world
//! navigation property.

use crate::common::BuildReport;
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::AdjacencyGraph;
use gass_core::index::PrebuiltIndex;
use gass_core::search::{beam_search, SearchScratch};
use gass_core::seed::{RandomSeeds, SeedProvider};
use gass_core::store::VectorStore;

/// NSW construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct NswParams {
    /// Connections added per inserted vertex (VoroNet's `2d+1` heuristic
    /// is superseded by a tunable `M` in practice).
    pub m: usize,
    /// Construction beam width.
    pub ef_construction: usize,
    /// RNG seed.
    pub seed: u64,
}

impl NswParams {
    /// Small-scale defaults: `M=12`, `ef=64`.
    pub fn small() -> Self {
        Self { m: 12, ef_construction: 64, seed: 42 }
    }
}

/// Builds an NSW index by incremental insertion, served with K-sampled
/// random seeds. NSW keeps adjacency lists (degrees are unbounded —
/// reverse edges accumulate on hub nodes, which is part of why HNSW later
/// added pruning).
pub fn build(store: VectorStore, params: NswParams) -> PrebuiltIndex<AdjacencyGraph> {
    assert!(store.len() >= 2, "need at least two vectors");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let n = store.len();
    let mut graph = AdjacencyGraph::with_degree_hint(n, params.m * 2);
    {
        let space = Space::new(&store, &counter);
        let build_seeder = RandomSeeds::new(n, params.seed ^ 0x5eed);
        let mut scratch = SearchScratch::new(n, params.ef_construction);
        let mut seed_buf = Vec::new();
        for id in 1..n as u32 {
            seed_buf.clear();
            seed_buf.push(0);
            let mut raw = Vec::new();
            build_seeder.seeds(space, store.get(id), 4, &mut raw);
            seed_buf.extend(raw.into_iter().map(|s| s % id));
            seed_buf.dedup();
            let res = beam_search(
                &graph,
                space,
                store.get(id),
                &seed_buf,
                params.m,
                params.ef_construction,
                &mut scratch,
            );
            for nb in res.neighbors.iter().take(params.m) {
                graph.add_undirected(id, nb.id);
            }
        }
    }
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    let seeds = RandomSeeds::new(n, params.seed ^ 0xbeef);
    PrebuiltIndex::new(store, graph, Box::new(seeds), "NSW").with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::graph::GraphView;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn nsw_graph_is_navigable() {
        let base = deep_like(400, 1);
        let queries = deep_like(12, 2);
        let idx = build(base.clone(), NswParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 64).with_seed_count(8);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 120.0;
        assert!(recall > 0.85, "NSW recall too low: {recall}");
    }

    #[test]
    fn early_nodes_accumulate_degree() {
        // Without pruning, early-inserted vertices become hubs: their
        // degree exceeds M (the long-range link phenomenon).
        let base = deep_like(500, 3);
        let idx = build(base, NswParams::small());
        let early_deg = idx.graph().neighbors(0).len();
        assert!(early_deg > 12, "node 0 degree {early_deg} should exceed M");
        assert_eq!(idx.name(), "NSW");
    }

    #[test]
    fn graph_is_connected_from_first_node() {
        let base = deep_like(200, 5);
        let idx = build(base, NswParams::small());
        assert!(idx.graph().is_connected_from(0));
    }
}
