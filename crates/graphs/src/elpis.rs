//! **ELPIS** — Divide-and-Conquer with II+ND inside each partition: a
//! Hercules (EAPCA) tree splits the dataset into leaves; an HNSW graph is
//! built *in parallel* on every leaf; at query time the leaves are ranked
//! by EAPCA lower-bounding distance, the best leaf is searched first, and
//! only leaves whose lower bound can still improve the running k-th best
//! answer are searched afterwards (up to `nprobe` leaves).
//!
//! ELPIS is a [`Router`] over its leaves: the index is the same
//! [`Partitioned`] type sharded serving uses, so it shares the one probe
//! loop — the bound pruning, the budget carried from leaf to leaf, adaptive
//! routing and the resident fan-out pool ([`gass_core::fanout`]) that
//! answers one query with several threads (its 1B-scale advantage in
//! Fig. 16).

use crate::common::BuildReport;
use crate::hierarchy::Hierarchy;
use crate::hnsw::{self, HnswParams};
use gass_core::distance::DistCounter;
use gass_core::graph::FlatGraph;
use gass_core::index::PrebuiltIndex;
use gass_core::partition::{Partitioned, Router};
use gass_core::store::VectorStore;
use gass_trees::eapca::HerculesTree;

/// ELPIS construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct ElpisParams {
    /// EAPCA segments for the Hercules tree.
    pub segments: usize,
    /// Maximum Hercules leaf size (vectors per partition graph).
    pub leaf_size: usize,
    /// HNSW parameters for each leaf graph. ELPIS gets away with a smaller
    /// `M`/`ef` than a monolithic HNSW — that is its indexing-footprint
    /// advantage (paper Fig. 8).
    pub hnsw: HnswParams,
    /// Maximum number of leaves searched per query (`nprobe`).
    pub nprobe: usize,
    /// Construction worker threads (0 = all available cores). Leaf graphs
    /// are independent with derived per-leaf seeds, so any thread count
    /// builds the identical index.
    pub threads: usize,
}

impl ElpisParams {
    /// Small-scale defaults: 8 segments, 256-vector leaves, nprobe 4.
    pub fn small() -> Self {
        Self {
            segments: 8,
            leaf_size: 256,
            hnsw: HnswParams { m: 8, ef_construction: 48, seed: 42, threads: 1 },
            nprobe: 4,
            threads: 0,
        }
    }
}

/// Ranks leaves by the EAPCA lower bound of the query's distance to any
/// vector in the leaf. The bounds cost no vector distance, so none is
/// counted; and since they bound, a leaf whose bound is `>=` the merged
/// k-th distance is pruned.
pub struct EapcaRouter {
    tree: HerculesTree,
}

impl Router for EapcaRouter {
    fn rank(&self, query: &[f32], _counter: &DistCounter) -> Vec<(f32, usize)> {
        let summary = self.tree.summarize_query(query);
        self.tree.leaf_order(&summary).into_iter().map(|(leaf, lb)| (lb, leaf)).collect()
    }

    fn rank_cost(&self) -> usize {
        0
    }

    fn prunes(&self) -> bool {
        true
    }

    fn name(&self) -> String {
        "ELPIS".to_string()
    }

    fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes()
    }
}

/// A built ELPIS index: HNSW leaves ([`hnsw::build`]'s index) behind the
/// EAPCA router.
pub type ElpisIndex = Partitioned<PrebuiltIndex<FlatGraph, Hierarchy>, EapcaRouter>;

/// Builds the index: Hercules partition, then one HNSW per leaf, built in
/// parallel.
///
/// # Panics
/// Panics if `store` holds fewer than four vectors.
pub fn build(store: VectorStore, params: ElpisParams) -> ElpisIndex {
    assert!(store.len() >= 4, "need at least four vectors");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let segments = params.segments.min(store.dim());
    let mut tree = HerculesTree::build(&store, segments, params.leaf_size);
    let leaf_ids = tree.take_leaf_ids();

    // Build leaf graphs in parallel; each leaf gets a deterministic seed
    // derived from its position.
    let threads = gass_core::effective_threads(params.threads);
    let leaves = gass_core::par_map(threads, leaf_ids.len(), |li| {
        let ids = &leaf_ids[li];
        let mut sub = store.subset(ids);
        let hnsw = if sub.len() >= 2 {
            HnswParams { seed: params.hnsw.seed.wrapping_add(li as u64), ..params.hnsw }
        } else {
            // A singleton leaf still needs a searchable index: pad it with
            // a copy of its vector, whose local id falls past the leaf's id
            // table and is dropped when the probe merges.
            sub.push(store.get(ids[0]));
            params.hnsw
        };
        let index = hnsw::build(sub, hnsw);
        counter.add(index.build_report().dist_calcs);
        index
    });

    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    let parts = leaves.into_iter().zip(leaf_ids).collect();
    Partitioned::new(parts, EapcaRouter { tree }, params.nprobe, params.threads)
        .with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    fn recall(idx: &ElpisIndex, base: &VectorStore, queries: &VectorStore, l: usize) -> f64 {
        let gt = ground_truth(base, queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, l);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        hit as f64 / (10 * gt.len()) as f64
    }

    #[test]
    fn elpis_high_recall() {
        let base = deep_like(800, 1);
        let queries = deep_like(20, 2);
        let idx = build(base.clone(), ElpisParams::small());
        assert!(idx.num_shards() >= 2, "partitioning must occur");
        let r = recall(&idx, &base, &queries, 48);
        assert!(r > 0.9, "ELPIS recall too low: {r}");
    }

    #[test]
    fn singleton_leaves_answer_without_duplicate_ids() {
        let base = deep_like(24, 8);
        let idx = build(
            base.clone(),
            ElpisParams { leaf_size: 1, nprobe: 24, ..ElpisParams::small() },
        );
        assert_eq!(idx.num_shards(), 24, "every leaf holds one vector");
        let counter = DistCounter::new();
        for q in 0..base.len() as u32 {
            let res = idx.search(base.get(q), &QueryParams::new(10, 16), &counter);
            let mut ids: Vec<u32> = res.neighbors.iter().map(|n| n.id).collect();
            assert_eq!(res.neighbors[0].id, q);
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), res.neighbors.len(), "query {q} answered an id twice");
        }
    }

    #[test]
    fn nprobe_one_searches_single_leaf() {
        let base = deep_like(600, 5);
        let idx = build(base.clone(), ElpisParams { nprobe: 1, ..ElpisParams::small() });
        let counter = DistCounter::new();
        let res = idx.search(base.get(9), &QueryParams::new(5, 32), &counter);
        // The exact vector lives in its home leaf, which ranks first.
        assert_eq!(res.neighbors[0].id, 9);
    }

    #[test]
    fn higher_nprobe_never_hurts() {
        let base = deep_like(700, 6);
        let queries = deep_like(12, 7);
        let one = build(base.clone(), ElpisParams { nprobe: 1, ..ElpisParams::small() });
        let four = build(base.clone(), ElpisParams { nprobe: 4, ..ElpisParams::small() });
        let r1 = recall(&one, &base, &queries, 48);
        let r4 = recall(&four, &base, &queries, 48);
        assert!(r4 + 1e-9 >= r1, "nprobe=4 recall {r4} below nprobe=1 {r1}");
    }
}
