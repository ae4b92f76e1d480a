//! **SPTAG** (Microsoft): a Divide-and-Conquer method. The dataset is
//! hierarchically divided several times with random Trinary-Projection
//! trees; an *exact* k-NN graph is computed inside every leaf; the
//! per-division graphs are merged and the merged neighborhoods are RND
//! diversified. Seeds come from auxiliary trees built on the data:
//! K-D trees (**SPTAG-KDT**) or Balanced K-means trees (**SPTAG-BKT**).

use crate::common::{exact_knn_subset, BuildReport};
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph, GraphView};
use gass_core::index::PrebuiltIndex;
use gass_core::nd::NdStrategy;
use gass_core::neighbor::Neighbor;
use gass_core::seed::SeedProvider;
use gass_core::store::VectorStore;
use gass_trees::bkt::BktSeeds;
use gass_trees::kdtree::KdForest;
use gass_trees::tptree::TpPartition;

/// Which auxiliary seed structure a SPTAG build uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SptagVariant {
    /// K-D-tree seeds (SPTAG-KDT).
    Kdt,
    /// Balanced-k-means-tree seeds (SPTAG-BKT).
    Bkt,
}

/// SPTAG construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct SptagParams {
    /// Number of independent TP-tree divisions (overlap comes from
    /// repetition).
    pub divisions: usize,
    /// TP-tree leaf size (per-leaf exact k-NN graphs are `O(leaf²)`).
    pub leaf_size: usize,
    /// Per-leaf k-NN list length.
    pub knn_k: usize,
    /// Final out-degree after RND refinement of the merged graph.
    pub max_degree: usize,
    /// Seed structure variant.
    pub variant: SptagVariant,
    /// RNG seed.
    pub seed: u64,
}

impl SptagParams {
    /// Small-scale defaults for the given variant.
    pub fn small(variant: SptagVariant) -> Self {
        // The reference SPTAG builds dozens of TP trees with sizeable
        // leaves and refines each partition graph — by far the most
        // expensive builder in the paper (Fig. 7). Eight divisions with
        // ~200-point leaves reproduce that cost profile at our tiers.
        Self { divisions: 8, leaf_size: 200, knn_k: 12, max_degree: 24, variant, seed: 42 }
    }
}

/// Builds a SPTAG index: repeated TP divisions → per-leaf exact k-NN →
/// merge → RND refine, served with the variant's seed trees.
pub fn build(store: VectorStore, params: SptagParams) -> PrebuiltIndex {
    assert!(store.len() > params.leaf_size, "dataset smaller than one leaf");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let n = store.len();
    let all_ids: Vec<u32> = (0..n as u32).collect();
    let (graph, seeder) = {
        let space = Space::new(&store, &counter);
        let mut merged = AdjacencyGraph::with_degree_hint(n, params.knn_k * 2);
        for div in 0..params.divisions.max(1) {
            let part = TpPartition::build(
                &store,
                &all_ids,
                params.leaf_size,
                params.seed.wrapping_add(div as u64),
            );
            for leaf in part.leaves() {
                let lists = exact_knn_subset(space, leaf, params.knn_k);
                for (pos, list) in lists.iter().enumerate() {
                    let u = leaf[pos];
                    for nb in list {
                        merged.add_edge(u, nb.id);
                    }
                }
            }
        }
        // RND refinement of merged neighborhoods.
        for u in 0..n as u32 {
            let scored: Vec<Neighbor> = merged
                .neighbors(u)
                .iter()
                .map(|&v| Neighbor::new(v, space.dist(u, v)))
                .collect();
            let kept = NdStrategy::Rnd.diversify(space, u, &scored, params.max_degree);
            merged.set_neighbors(u, kept.into_iter().map(|k| k.id).collect());
        }
        let seeder: Box<dyn SeedProvider> = match params.variant {
            SptagVariant::Kdt => Box::new(KdForest::build(&store, 4, 16, params.seed ^ 0x4d)),
            SptagVariant::Bkt => Box::new(BktSeeds::build(space, 8, 24, params.seed ^ 0xb4)),
        };
        (merged, seeder)
    };
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    let flat = FlatGraph::from_adjacency(&graph, Some(params.max_degree));
    let label = match params.variant {
        SptagVariant::Kdt => "SPTAG-KDT",
        SptagVariant::Bkt => "SPTAG-BKT",
    };
    PrebuiltIndex::new(store, flat, seeder, label).with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    fn recall(idx: &PrebuiltIndex, base: &VectorStore, queries: &VectorStore) -> f64 {
        let gt = ground_truth(base, queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, 80).with_seed_count(16);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        hit as f64 / (10 * gt.len()) as f64
    }

    #[test]
    fn sptag_kdt_recall() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = build(base.clone(), SptagParams::small(SptagVariant::Kdt));
        let r = recall(&idx, &base, &queries);
        assert!(r > 0.85, "SPTAG-KDT recall too low: {r}");
        assert_eq!(idx.name(), "SPTAG-KDT");
    }

    #[test]
    fn sptag_bkt_recall() {
        let base = deep_like(500, 3);
        let queries = deep_like(15, 4);
        let idx = build(base.clone(), SptagParams::small(SptagVariant::Bkt));
        let r = recall(&idx, &base, &queries);
        assert!(r > 0.85, "SPTAG-BKT recall too low: {r}");
        assert_eq!(idx.name(), "SPTAG-BKT");
    }

    #[test]
    fn more_divisions_cost_more_but_connect_more() {
        let base = deep_like(400, 5);
        let one = build(
            base.clone(),
            SptagParams { divisions: 1, ..SptagParams::small(SptagVariant::Kdt) },
        );
        let four =
            build(base, SptagParams { divisions: 4, ..SptagParams::small(SptagVariant::Kdt) });
        assert!(four.build_report().dist_calcs > one.build_report().dist_calcs);
        assert!(four.stats().edges >= one.stats().edges);
    }
}
