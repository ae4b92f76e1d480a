//! **NSG** — Navigating Spreading-out Graph: starts from an EFANNA
//! approximate k-NN graph; for every node, runs a beam search from the
//! dataset medoid over the base graph, collects the *visited* nodes as
//! candidates, prunes them with RND, and finally repairs connectivity via
//! a tree rooted at the medoid. Queries start at the medoid (with random
//! warm-up seeds — MD+KS).

use crate::common::{add_reverse_edges, repair_connectivity, BuildReport};
use crate::efanna::EfannaParams;
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph, GraphView};
use gass_core::index::PrebuiltIndex;
use gass_core::nd::NdStrategy;
use gass_core::neighbor::Neighbor;
use gass_core::search::{beam_search_with_sink, SearchScratch};
use gass_core::seed::RandomSeeds;
use gass_core::store::VectorStore;

/// NSG construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct NsgParams {
    /// Final maximum out-degree `R`.
    pub max_degree: usize,
    /// Construction beam width for the per-node searches.
    pub build_l: usize,
    /// Parameters of the EFANNA base graph.
    pub base: EfannaParams,
    /// RNG seed.
    pub seed: u64,
    /// Construction worker threads (0 = all available cores). Every
    /// candidate search reads only the immutable base graph, so the
    /// parallel phase feeds a serial in-order apply and the built graph is
    /// bit-identical at any thread count. (The EFANNA base has its own
    /// `threads` knob.)
    pub threads: usize,
}

impl NsgParams {
    /// Small-scale defaults.
    pub fn small() -> Self {
        Self { max_degree: 24, build_l: 64, base: EfannaParams::small(), seed: 42, threads: 0 }
    }
}

/// Builds NSG from scratch, including its EFANNA base (the paper's
/// indexing-time figures charge NSG for both phases).
pub fn build(store: VectorStore, params: NsgParams) -> PrebuiltIndex {
    let (base_graph, _, base_build) = crate::efanna::build_parts(&store, params.base);
    from_base(store, &base_graph, base_build, params)
}

/// Builds NSG on a pre-built base graph whose cost was `base_build`. The
/// index is served from the medoid plus K-sampled random seeds (MD+KS),
/// and the medoid is its reorder entry.
pub fn from_base(
    store: VectorStore,
    base_graph: &FlatGraph,
    base_build: BuildReport,
    params: NsgParams,
) -> PrebuiltIndex {
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let n = store.len();
    let (graph, medoid) = {
        let space = Space::new(&store, &counter);
        let medoid = store.centroid_medoid();
        let threads = gass_core::effective_threads(params.threads);
        // Phase A: candidate generation reads only the immutable base
        // graph, never the NSG under construction — so the per-node
        // searches parallelize freely.
        let prepared: Vec<Vec<Neighbor>> = gass_core::par_map_with(
            threads,
            n,
            || (SearchScratch::new(n, params.build_l), Vec::new()),
            |state, u| {
                let (scratch, sink) = state;
                let u = u as u32;
                sink.clear();
                beam_search_with_sink(
                    base_graph,
                    space,
                    store.get(u),
                    &[medoid],
                    params.build_l,
                    params.build_l,
                    scratch,
                    Some(sink),
                );
                // Candidate pool: everything visited plus the node's
                // base neighbors.
                for &v in base_graph.neighbors(u) {
                    if !sink.iter().any(|s| s.id == v) {
                        sink.push(Neighbor::new(v, space.dist(u, v)));
                    }
                }
                NdStrategy::Rnd.diversify(space, u, sink, params.max_degree)
            },
        );
        // Phase B: serial apply in node order — identical to the
        // sequential build.
        let mut g = AdjacencyGraph::with_degree_hint(n, params.max_degree + 1);
        for (u, kept) in prepared.iter().enumerate() {
            let u = u as u32;
            g.set_neighbors(u, kept.iter().map(|k| k.id).collect());
            add_reverse_edges(space, &mut g, u, kept, params.max_degree, NdStrategy::Rnd);
        }
        repair_connectivity(space, &mut g, medoid);
        (g, medoid)
    };
    let build = BuildReport {
        seconds: start.elapsed().as_secs_f64() + base_build.seconds,
        dist_calcs: counter.get() + base_build.dist_calcs,
    };
    let flat = FlatGraph::from_adjacency(&graph, None);
    let seeds = RandomSeeds::with_anchor(n, medoid, params.seed ^ 0x5eed);
    PrebuiltIndex::new(store, flat, Box::new(seeds), "NSG")
        .with_build_report(build)
        .with_entries(vec![medoid])
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn nsg_high_recall() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), NsgParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 64).with_seed_count(8);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 150.0;
        assert!(recall > 0.9, "NSG recall too low: {recall}");
    }

    #[test]
    fn graph_is_connected_from_medoid() {
        let base = deep_like(300, 3);
        let idx = build(base, NsgParams::small());
        // FlatGraph has the same adjacency; rebuild adjacency reachability
        // through the flat view.
        let g = idx.graph();
        let mut seen = vec![false; g.num_nodes()];
        let medoid = idx.entries()[0];
        let mut queue = std::collections::VecDeque::from([medoid]);
        seen[medoid as usize] = true;
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "NSG must be connected from its medoid");
    }

    #[test]
    fn build_charges_base_graph_too() {
        let base = deep_like(200, 5);
        let (_, _, base_build) = crate::efanna::build_parts(&base, NsgParams::small().base);
        let idx = build(base, NsgParams::small());
        assert!(idx.build_report().dist_calcs > base_build.dist_calcs);
        assert_eq!(idx.name(), "NSG");
    }
}
