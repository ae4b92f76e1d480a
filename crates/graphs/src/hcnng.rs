//! **HCNNG** — Hierarchical Clustering-based Nearest Neighbor Graph: the
//! dataset is divided by *random hierarchical clustering* (recursively:
//! pick two random pivots, split by nearer pivot) several times; a
//! degree-capped Minimum Spanning Tree is built inside every leaf; all MST
//! edges are merged into one undirected graph. K-D trees provide query
//! seeds.

use crate::common::BuildReport;
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::AdjacencyGraph;
use gass_core::index::PrebuiltIndex;
use gass_core::store::VectorStore;
use gass_trees::kdtree::KdForest;
use gass_trees::mst::prim_mst;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// HCNNG construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct HcnngParams {
    /// Number of independent random hierarchical clusterings.
    pub num_clusterings: usize,
    /// Maximum leaf (cluster) size.
    pub leaf_size: usize,
    /// Degree cap inside each MST (the reference uses 3).
    pub mst_degree: usize,
    /// K-D trees for seed selection.
    pub num_seed_trees: usize,
    /// RNG seed.
    pub seed: u64,
    /// Construction worker threads (0 = all available cores). HCNNG is
    /// deterministic at any thread count: every clustering has its own
    /// derived seed and the MST edge sets are merged in clustering order.
    pub threads: usize,
}

impl HcnngParams {
    /// Small-scale defaults: 8 clusterings, leaves of ≤ 64, MST degree 3.
    pub fn small() -> Self {
        // The reference HCNNG merges MSTs from dozens of clusterings,
        // which is what makes its construction footprint and time balloon
        // in the paper; 16 clusterings keep that character at our tiers.
        Self {
            num_clusterings: 16,
            leaf_size: 96,
            mst_degree: 3,
            num_seed_trees: 4,
            seed: 42,
            threads: 0,
        }
    }
}

/// Recursive two-pivot random division (HCNNG's clustering).
fn random_divide(
    space: Space<'_>,
    ids: &[u32],
    leaf_size: usize,
    rng: &mut SmallRng,
    leaves: &mut Vec<Vec<u32>>,
) {
    if ids.len() <= leaf_size {
        leaves.push(ids.to_vec());
        return;
    }
    let a = ids[rng.random_range(0..ids.len())];
    let mut b = a;
    while b == a {
        b = ids[rng.random_range(0..ids.len())];
    }
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &u in ids {
        if space.dist(u, a) <= space.dist(u, b) {
            left.push(u);
        } else {
            right.push(u);
        }
    }
    // Degenerate split (identical pivots / duplicated points): halve
    // arbitrarily to guarantee progress.
    if left.is_empty() || right.is_empty() {
        let mid = ids.len() / 2;
        left = ids[..mid].to_vec();
        right = ids[mid..].to_vec();
    }
    random_divide(space, &left, leaf_size, rng, leaves);
    random_divide(space, &right, leaf_size, rng, leaves);
}

/// Builds an HCNNG index: repeated clusterings → per-leaf MSTs → merge,
/// served with K-D-tree seeds. Clusterings run in parallel (deterministic
/// per-clustering seeds, merged in order); the merged graph stays an
/// adjacency list.
pub fn build(store: VectorStore, params: HcnngParams) -> PrebuiltIndex<AdjacencyGraph> {
    assert!(store.len() > 2, "need at least three vectors");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let n = store.len();
    let all_ids: Vec<u32> = (0..n as u32).collect();
    let threads = gass_core::effective_threads(params.threads);
    let graph = {
        let space = Space::new(&store, &counter);
        let edge_sets: Vec<Vec<(u32, u32)>> =
            gass_core::par_map(threads, params.num_clusterings.max(1), |c| {
                let mut rng = SmallRng::seed_from_u64(params.seed.wrapping_add(c as u64));
                let mut leaves = Vec::new();
                random_divide(space, &all_ids, params.leaf_size, &mut rng, &mut leaves);
                let mut edges = Vec::new();
                for leaf in &leaves {
                    for e in prim_mst(space, leaf, params.mst_degree) {
                        edges.push((e.a, e.b));
                    }
                }
                edges
            });
        let mut g = AdjacencyGraph::with_degree_hint(n, params.mst_degree * 2);
        for edges in edge_sets {
            for (a, b) in edges {
                g.add_undirected(a, b);
            }
        }
        g
    };
    let forest = KdForest::build(&store, params.num_seed_trees, 16, params.seed ^ 0x4d);
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    PrebuiltIndex::new(store, graph, Box::new(forest), "HCNNG").with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::graph::GraphView;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    #[test]
    fn hcnng_recall() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), HcnngParams::small());
        let gt = ground_truth(&base, &queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 80).with_seed_count(16);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        let recall = hit as f64 / 150.0;
        assert!(recall > 0.85, "HCNNG recall too low: {recall}");
    }

    #[test]
    fn merged_graph_is_undirected() {
        let base = deep_like(250, 3);
        let idx = build(base, HcnngParams::small());
        let g = idx.graph();
        for u in 0..g.num_nodes() as u32 {
            for &v in g.neighbors(u) {
                assert!(g.neighbors(v).contains(&u));
            }
        }
    }

    #[test]
    fn more_clusterings_add_edges() {
        let base = deep_like(300, 5);
        let few =
            build(base.clone(), HcnngParams { num_clusterings: 2, ..HcnngParams::small() });
        let many = build(base, HcnngParams { num_clusterings: 10, ..HcnngParams::small() });
        assert!(many.stats().edges > few.stats().edges);
    }

    #[test]
    fn build_is_deterministic() {
        let base = deep_like(200, 7);
        let a = build(base.clone(), HcnngParams::small());
        let b = build(base, HcnngParams::small());
        assert_eq!(a.stats().edges, b.stats().edges);
        for u in 0..a.graph().num_nodes() as u32 {
            let mut na = a.graph().neighbors(u).to_vec();
            let mut nb = b.graph().neighbors(u).to_vec();
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb, "node {u} differs between identical builds");
        }
    }
}
