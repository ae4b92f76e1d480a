//! **SSG** — Satellite System Graph: like NSG it refines an EFANNA base,
//! but (i) gathers each node's candidates by *local BFS expansion*
//! (neighbors and neighbors-of-neighbors) instead of a per-node beam
//! search, (ii) prunes with **MOND** (angle threshold θ), and (iii)
//! repairs connectivity with multiple trees from random roots rather than
//! NSG's single medoid-rooted tree. Queries use K-sampled random seeds.

use crate::common::{add_reverse_edges, repair_connectivity, BuildReport};
use crate::efanna::EfannaParams;
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph, GraphView};
use gass_core::index::PrebuiltIndex;
use gass_core::nd::NdStrategy;
use gass_core::neighbor::Neighbor;
use gass_core::seed::RandomSeeds;
use gass_core::store::VectorStore;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// SSG construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SsgParams {
    /// Final maximum out-degree `R`.
    pub max_degree: usize,
    /// Candidate pool per node gathered by BFS expansion.
    pub pool_size: usize,
    /// MOND angle threshold in degrees (paper default 60°).
    pub theta_deg: f32,
    /// Number of random DFS-tree connectivity passes.
    pub num_trees: usize,
    /// Parameters of the EFANNA base graph.
    pub base: EfannaParams,
    /// RNG seed.
    pub seed: u64,
    /// Construction worker threads (0 = all available cores). The two-hop
    /// expansion and MOND pruning read only the immutable base graph, so
    /// the parallel phase feeds a serial in-order apply and the built
    /// graph is bit-identical at any thread count. (The EFANNA base has
    /// its own `threads` knob.)
    pub threads: usize,
}

impl SsgParams {
    /// Small-scale defaults.
    pub fn small() -> Self {
        Self {
            max_degree: 24,
            pool_size: 80,
            theta_deg: 60.0,
            num_trees: 3,
            base: EfannaParams::small(),
            seed: 42,
            threads: 0,
        }
    }
}

/// Builds SSG from scratch, including its EFANNA base.
pub fn build(store: VectorStore, params: SsgParams) -> PrebuiltIndex {
    let (base_graph, _, base_build) = crate::efanna::build_parts(&store, params.base);
    from_base(store, &base_graph, base_build, params)
}

/// Builds SSG on a pre-built base graph whose cost was `base_build`,
/// served with K-sampled random seeds.
pub fn from_base(
    store: VectorStore,
    base_graph: &FlatGraph,
    base_build: BuildReport,
    params: SsgParams,
) -> PrebuiltIndex {
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let n = store.len();
    let mond = NdStrategy::Mond { theta_deg: params.theta_deg };
    let graph = {
        let space = Space::new(&store, &counter);
        let threads = gass_core::effective_threads(params.threads);
        // Phase A: two-hop expansion + MOND pruning read only the
        // immutable base graph, so the per-node work parallelizes
        // freely.
        let prepared: Vec<Vec<Neighbor>> =
            gass_core::par_map_with(threads, n, Vec::new, |pool: &mut Vec<u32>, u| {
                let u = u as u32;
                // Two-hop local expansion on the base graph.
                pool.clear();
                pool.extend_from_slice(base_graph.neighbors(u));
                'outer: for &v in base_graph.neighbors(u) {
                    for &w in base_graph.neighbors(v) {
                        if w != u {
                            pool.push(w);
                            if pool.len() >= params.pool_size {
                                break 'outer;
                            }
                        }
                    }
                }
                pool.sort_unstable();
                pool.dedup();
                let scored: Vec<Neighbor> = pool
                    .iter()
                    .filter(|&&v| v != u)
                    .map(|&v| Neighbor::new(v, space.dist(u, v)))
                    .collect();
                mond.diversify(space, u, &scored, params.max_degree)
            });
        // Phase B: serial apply in node order — identical to the
        // sequential build.
        let mut g = AdjacencyGraph::with_degree_hint(n, params.max_degree + 1);
        for (u, kept) in prepared.iter().enumerate() {
            let u = u as u32;
            g.set_neighbors(u, kept.iter().map(|k| k.id).collect());
            add_reverse_edges(space, &mut g, u, kept, params.max_degree, mond);
        }

        // Multiple random-rooted connectivity repairs.
        let mut rng = SmallRng::seed_from_u64(params.seed ^ 0x55);
        for _ in 0..params.num_trees.max(1) {
            let root = rng.random_range(0..n as u32);
            repair_connectivity(space, &mut g, root);
        }
        g
    };
    let build = BuildReport {
        seconds: start.elapsed().as_secs_f64() + base_build.seconds,
        dist_calcs: counter.get() + base_build.dist_calcs,
    };
    let flat = FlatGraph::from_adjacency(&graph, None);
    let seeds = RandomSeeds::new(n, params.seed ^ 0x5eed);
    PrebuiltIndex::new(store, flat, Box::new(seeds), "SSG").with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn ssg_high_recall() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), SsgParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 96).with_seed_count(16);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 150.0;
        assert!(recall > 0.9, "SSG recall too low: {recall}");
    }

    #[test]
    fn local_expansion_avoids_per_node_beam_search() {
        // SSG's construction should cost fewer distance calls than NSG's
        // per-node beam searches on the same data/base parameters.
        use crate::nsg::NsgParams;
        let base = deep_like(300, 3);
        let ssg = build(base.clone(), SsgParams::small());
        let nsg = crate::nsg::build(base, NsgParams::small());
        assert!(
            ssg.build_report().dist_calcs < nsg.build_report().dist_calcs,
            "SSG {} should undercut NSG {}",
            ssg.build_report().dist_calcs,
            nsg.build_report().dist_calcs
        );
    }
}
