//! Property-based tests (proptest) over the adaptive-termination
//! invariants: `Fixed` (and every never-triggering adaptive
//! configuration) is bit-identical to the pre-policy search across the
//! whole quant/reorder serving ladder; recall and spent work are
//! monotone in each knob (`patience`, `eps`, `max_dists`) because a
//! terminated run's expansion sequence is a prefix of the unterminated
//! run's; a budget overshoots by at most one expansion's neighbor list;
//! and adaptive sharded probing never probes past the `nprobe` cap.

use gass_core::quant::CodecSpec;
use gass_core::sharded::{build_knn_sharded, ShardedParams};
use gass_core::{
    AdjacencyGraph, AnnIndex, BoundedMaxHeap, DistCounter, FlatGraph, Neighbor, PrebuiltIndex,
    QueryParams, ReorderStrategy, StaticSeeds, TerminationPolicy, VectorStore,
};
use proptest::prelude::*;

const DIM: usize = 6;

/// A patience/eps/budget so large the policy can never fire on these
/// graph sizes — the search must take the exact `Fixed` path.
const NEVER: usize = usize::MAX >> 1;

fn arb_store_and_graph() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<Vec<u32>>)> {
    (4usize..40).prop_flat_map(|n| {
        let points =
            prop::collection::vec(prop::collection::vec(-10.0f32..10.0, DIM..=DIM), n..=n);
        let edges = prop::collection::vec(prop::collection::vec(0..n as u32, 0..6), n..=n);
        (points, edges)
    })
}

fn assemble(points: &[Vec<f32>], edges: &[Vec<u32>]) -> (VectorStore, FlatGraph) {
    let mut store = VectorStore::new(DIM);
    for p in points {
        store.push(p);
    }
    let mut adj = AdjacencyGraph::new(points.len());
    for (u, list) in edges.iter().enumerate() {
        for &v in list {
            adj.add_edge(u as u32, v);
        }
    }
    (store, FlatGraph::from_adjacency(&adj, None))
}

/// Serves the graph with deterministic static seeds so any two runs over
/// the same data expand candidates in lockstep.
fn serve(store: &VectorStore, graph: &FlatGraph) -> PrebuiltIndex {
    let seeds: Vec<u32> = (0..store.len().min(3) as u32).collect();
    let mut index = PrebuiltIndex::new(
        store.clone(),
        graph.clone(),
        Box::new(StaticSeeds::new(seeds)),
        "prop",
    );
    index.align_store();
    index
}

fn key(ns: &[Neighbor]) -> Vec<(u32, u32)> {
    ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// One full query sweep: per-query neighbor keys plus the split distance
/// counters (the u8/f32 split catches a policy leaking into the wrong
/// lane of the quantized two-phase serving path).
fn sweep(
    index: &PrebuiltIndex,
    queries: &[Vec<f32>],
    params: &QueryParams,
) -> (Vec<Vec<(u32, u32)>>, u64, u64) {
    let counter = DistCounter::new();
    let out =
        queries.iter().map(|q| key(&index.search(q, params, &counter).neighbors)).collect();
    (out, counter.get_f32(), counter.get_u8())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Fixed` is bit-identical by construction, and so is every adaptive
    /// configuration whose trigger can never fire: same neighbor ids,
    /// same distance bits, same DistCounter totals (full-precision and
    /// quantized lanes separately), on every rung of the quant ladder and
    /// under every reordering strategy.
    #[test]
    fn never_triggering_policies_are_bit_identical_to_fixed(
        sg in arb_store_and_graph(),
        queries in prop::collection::vec(
            prop::collection::vec(-10.0f32..10.0, DIM..=DIM), 1..6),
    ) {
        let (points, edges) = sg;
        let (store, graph) = assemble(&points, &edges);
        let base = QueryParams::new(3, 8)
            .with_rerank_factor(2)
            .with_term(TerminationPolicy::Fixed)
            .with_max_dists(0);
        let ladder: Vec<QueryParams> = vec![
            base.with_term(TerminationPolicy::Saturation { patience: NEVER }),
            base.with_term(TerminationPolicy::DistRatio { eps: f32::INFINITY }),
            base.with_max_dists(NEVER),
        ];
        let mut specs: Vec<Option<CodecSpec>> = vec![None];
        specs.extend(CodecSpec::ALL.into_iter().map(Some));
        for spec in specs {
            for strategy in
                std::iter::once(None).chain(ReorderStrategy::ALL.into_iter().map(Some))
            {
                let mut index = serve(&store, &graph);
                index.freeze();
                if let Some(spec) = spec {
                    index.quantize(spec);
                }
                if let Some(strategy) = strategy {
                    index.reorder(strategy);
                }
                let expected = sweep(&index, &queries, &base);
                for params in &ladder {
                    let got = sweep(&index, &queries, params);
                    prop_assert_eq!(
                        &got, &expected,
                        "quant={:?} reorder={:?} term={} max_dists={}",
                        spec, strategy, params.term, params.max_dists
                    );
                }
            }
        }
    }

    /// Relaxing any knob only lengthens the (deterministic) expansion
    /// prefix, so along each ladder both the spent work and the number of
    /// true neighbors found are non-decreasing.
    #[test]
    fn recall_and_work_are_monotone_in_every_knob(
        sg in arb_store_and_graph(),
        query in prop::collection::vec(-10.0f32..10.0, DIM..=DIM),
    ) {
        let (points, edges) = sg;
        let (store, graph) = assemble(&points, &edges);
        let mut index = serve(&store, &graph);
        index.freeze();
        let k = 4;
        // Exact top-k bound: a returned neighbor is "true" when it is at
        // least as close as the exact k-th distance (ties included).
        let mut exact = BoundedMaxHeap::new(k);
        for (id, p) in points.iter().enumerate() {
            let d: f32 =
                p.iter().zip(&query).map(|(a, b)| (a - b) * (a - b)).sum();
            exact.push(Neighbor::new(id as u32, d));
        }
        let true_kth = exact.into_sorted().last().map_or(f32::INFINITY, |n| n.dist);
        let base = QueryParams::new(k, 12)
            .with_term(TerminationPolicy::Fixed)
            .with_max_dists(0);
        let run = |params: &QueryParams| {
            let counter = DistCounter::new();
            let res = index.search(&query, params, &counter);
            let good = res.neighbors.iter().filter(|n| n.dist <= true_kth).count();
            (good, counter.get())
        };
        let ladders: [Vec<QueryParams>; 3] = [
            [1usize, 2, 4, 8, NEVER]
                .iter()
                .map(|&p| base.with_term(TerminationPolicy::Saturation { patience: p }))
                .collect(),
            [0.0f32, 0.1, 0.5, 2.0, f32::INFINITY]
                .iter()
                .map(|&e| base.with_term(TerminationPolicy::DistRatio { eps: e }))
                .collect(),
            [4usize, 16, 64, 256, NEVER]
                .iter()
                .map(|&d| base.with_max_dists(d))
                .collect(),
        ];
        for ladder in &ladders {
            let mut prev = (0usize, 0u64);
            for params in ladder {
                let got = run(params);
                prop_assert!(
                    got.0 >= prev.0 && got.1 >= prev.1,
                    "non-monotone at term={} max_dists={}: {:?} after {:?}",
                    params.term, params.max_dists, got, prev
                );
                prev = got;
            }
            // The fully-relaxed end of each ladder is exactly Fixed.
            prop_assert_eq!(run(ladder.last().unwrap()), run(&base));
        }
    }

    /// The budget is emission-time: the traversal stops at the first
    /// expansion that finds the budget spent, so it overshoots by at most
    /// the seed evaluations plus one neighbor list (degree is capped at 6
    /// by construction here).
    #[test]
    fn budget_overshoots_by_at_most_one_expansion(
        sg in arb_store_and_graph(),
        query in prop::collection::vec(-10.0f32..10.0, DIM..=DIM),
        max_dists in 1usize..120,
    ) {
        let (points, edges) = sg;
        let (store, graph) = assemble(&points, &edges);
        let mut index = serve(&store, &graph);
        index.freeze();
        let params = QueryParams::new(3, 16)
            .with_term(TerminationPolicy::Fixed)
            .with_max_dists(max_dists);
        let counter = DistCounter::new();
        let res = index.search(&query, &params, &counter);
        prop_assert!(!res.neighbors.is_empty());
        let seeds = store.len().min(3);
        prop_assert!(
            counter.get() as usize <= max_dists.max(seeds) + 6,
            "budget {} overshot: {} evaluations", max_dists, counter.get()
        );
    }

    /// Adaptive sharded probing: `nprobe` becomes a cap — a
    /// never-triggering policy probes exactly `nprobe` shards and answers
    /// bit-identically to the fixed plan; an aggressive policy never
    /// probes past the cap and never beats the full probe's k-th
    /// distance.
    #[test]
    fn adaptive_sharded_probing_respects_the_nprobe_cap(
        points in prop::collection::vec(
            prop::collection::vec(-8.0f32..8.0, 5..=5), 24..=80),
        shards in 2usize..5,
        query in prop::collection::vec(-8.0f32..8.0, 5..=5),
    ) {
        let mut store = VectorStore::new(5);
        for p in &points {
            store.push(p);
        }
        let counter = DistCounter::new();
        let idx = build_knn_sharded(&store, &ShardedParams::new(shards), 8, &counter);
        idx.set_nprobe(idx.num_shards());
        let base = QueryParams::new(5, 20)
            .with_term(TerminationPolicy::Fixed)
            .with_max_dists(0);

        let c_fixed = DistCounter::new();
        let (fixed, fixed_probes) = idx.search_with_probes(&query, &base, &c_fixed);
        prop_assert_eq!(fixed_probes, idx.num_shards());

        let never = base.with_term(TerminationPolicy::Saturation { patience: NEVER });
        let c_never = DistCounter::new();
        let (got, probes) = idx.search_with_probes(&query, &never, &c_never);
        prop_assert_eq!(probes, idx.num_shards());
        prop_assert_eq!(key(&got.neighbors), key(&fixed.neighbors));
        prop_assert_eq!(
            (c_never.get_f32(), c_never.get_u8()),
            (c_fixed.get_f32(), c_fixed.get_u8())
        );

        for aggressive in [
            base.with_term(TerminationPolicy::Saturation { patience: 1 }),
            base.with_term(TerminationPolicy::DistRatio { eps: 0.0 }),
            base.with_max_dists(8),
        ] {
            let (res, probes) = idx.search_with_probes(&query, &aggressive, &counter);
            prop_assert!(probes >= 1 && probes <= idx.num_shards());
            let full_kth =
                fixed.neighbors.last().map_or(f32::INFINITY, |n| n.dist);
            if let Some(last) = res.neighbors.last() {
                prop_assert!(last.dist >= full_kth || res.neighbors.len() < 5);
            }
        }
    }
}
