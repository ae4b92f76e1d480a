//! Integration tests for the paper's paradigm-level claims at test scale:
//! the ND pruning-ratio ordering of Table 1, the SS interchangeability of
//! Section 4.3, and the beam-width accuracy/efficiency trade-off every
//! search-performance figure rests on.

use gass::prelude::*;
use gass_core::seed::{FixedSeed, MedoidSeed, RandomSeeds};
use gass_core::CodecSpec;
use gass_core::Space;
use gass_eval::recall_at_k;
use gass_graphs::Hierarchy;
use gass_trees::kdtree::KdForest;

/// Table 1's ordering: RND prunes most, then MOND, then RRND — measured
/// on real candidate lists from beam searches, not synthetic clouds.
#[test]
fn table1_pruning_ratio_ordering() {
    let base = gass::data::synth::deep_like(800, 3);
    let counter = DistCounter::new();
    let space = Space::new(&base, &counter);
    let truth = gass::data::ground_truth(&base, &base.subset(&[5, 99, 300, 650]), 60);

    let mut ratios = [0.0f64; 3]; // rnd, mond, rrnd
    for (qi, list) in truth.iter().enumerate() {
        let query_id = [5u32, 99, 300, 650][qi];
        let cands: Vec<Neighbor> = list.clone();
        ratios[0] += NdStrategy::Rnd.pruning_ratio(space, query_id, &cands);
        ratios[1] += NdStrategy::mond_default().pruning_ratio(space, query_id, &cands);
        ratios[2] += NdStrategy::rrnd_default().pruning_ratio(space, query_id, &cands);
    }
    assert!(
        ratios[0] >= ratios[1] && ratios[1] >= ratios[2],
        "expected RND >= MOND >= RRND, got {ratios:?}"
    );
    assert!(ratios[0] > 0.0, "RND must prune something");
}

/// Section 4.3: the same II+RND graph answers correctly under every seed
/// strategy; smarter strategies don't change correctness, only cost.
#[test]
fn all_seed_strategies_work_on_one_graph() {
    let n = 900;
    let base = gass::data::synth::deep_like(n, 9);
    let queries = gass::data::synth::deep_like(8, 10);
    let truth = gass::data::ground_truth(&base, &queries, 10);
    let g = baseline::build(base.clone(), IiParams::small(NdStrategy::Rnd));

    let counter = DistCounter::new();
    let space = Space::new(g.store(), &counter);
    let sn = Hierarchy::build_over_store(space, 8, 32, 1);
    let kd = KdForest::build(g.store(), 3, 16, 2);
    let md = MedoidSeed::compute(space);
    let sf = FixedSeed::random(n, 3);
    let ks = RandomSeeds::new(n, 4);
    let providers: Vec<(&str, &dyn SeedProvider)> =
        vec![("SN", &sn), ("KD", &kd), ("MD", &md), ("SF", &sf), ("KS", &ks)];

    for (label, provider) in providers {
        let qc = DistCounter::new();
        let params = QueryParams::new(10, 80).with_seed_count(16);
        let mut recall = 0.0;
        for (qi, t) in truth.iter().enumerate() {
            let res = g.search_with(provider, queries.get(qi as u32), &params, &qc);
            recall += recall_at_k(t, &res.neighbors, 10);
        }
        recall /= truth.len() as f64;
        assert!(recall > 0.85, "{label} recall collapsed to {recall:.3}");
        assert!(qc.get() > 0, "{label} did no counted work");
    }
}

/// The universal trade-off: recall is non-decreasing and distance calls
/// non-trivially increasing in the beam width, for a representative
/// method on a hard dataset.
#[test]
fn beam_width_tradeoff_is_monotone() {
    let base = gass::data::synth::seismic_like(700, 5);
    let queries = gass::data::synth::seismic_like(8, 6);
    let truth = gass::data::ground_truth(&base, &queries, 10);
    let mut built = build_method(MethodKind::Hnsw, base, 7);

    // Under a codec the rerank pool must deepen with the code coarseness
    // for the final floor to be about the graph, not the codec (PQ keeps
    // well under a bit per dimension).
    let codecs = [
        (None, 4),
        (Some(CodecSpec::Sq8), 8),
        (Some(CodecSpec::Sq4), 8),
        (Some(CodecSpec::Pq { m: None }), 32),
    ];
    for (codec, rerank) in codecs {
        if let Some(spec) = codec {
            built.index.quantize(spec);
        }
        let name = codec.map_or("none", |c| c.name());
        let mut last_recall = -1.0f64;
        let mut last_cost = 0u64;
        for l in [10usize, 40, 160] {
            let params = QueryParams::new(10, l).with_seed_count(8).with_rerank_factor(rerank);
            let p = gass_eval::evaluate_params(built.index.as_ref(), &queries, &truth, &params);
            assert!(
                p.recall + 0.05 >= last_recall,
                "{name}: recall dropped sharply with wider beam: {last_recall} -> {}",
                p.recall
            );
            // A codec floors the candidate pool at `rerank_factor * k`, so
            // small beams cost the same; strict growth only holds on the
            // exact path.
            if codec.is_some() {
                assert!(p.dist_calcs >= last_cost, "{name}: wider beam must not do less work");
            } else {
                assert!(p.dist_calcs > last_cost, "wider beam must do more work");
            }
            last_recall = p.recall;
            last_cost = p.dist_calcs;
        }
        assert!(
            last_recall > 0.6,
            "{name}: L=160 recall too low on seismic analog: {last_recall}"
        );
    }
}

/// Divide-and-conquer sanity: ELPIS's leaf pruning never returns results
/// worse than its own nprobe=1 configuration, and both are subsets of the
/// dataset ids.
#[test]
fn elpis_leaf_pruning_is_consistent() {
    let base = gass::data::synth::imagenet_like(800, 13);
    let queries = gass::data::synth::imagenet_like(6, 14);
    let truth = gass::data::ground_truth(&base, &queries, 10);
    let wide = gass::graphs::elpis::build(
        base.clone(),
        ElpisParams { nprobe: 6, ..ElpisParams::small() },
    );
    let narrow =
        gass::graphs::elpis::build(base, ElpisParams { nprobe: 1, ..ElpisParams::small() });
    let counter = DistCounter::new();
    let params = QueryParams::new(10, 64);
    let mut r_wide = 0.0;
    let mut r_narrow = 0.0;
    for (qi, t) in truth.iter().enumerate() {
        let rw = wide.search(queries.get(qi as u32), &params, &counter);
        let rn = narrow.search(queries.get(qi as u32), &params, &counter);
        r_wide += recall_at_k(t, &rw.neighbors, 10);
        r_narrow += recall_at_k(t, &rn.neighbors, 10);
    }
    assert!(r_wide + 1e-9 >= r_narrow, "nprobe=6 ({r_wide}) lost to nprobe=1 ({r_narrow})");
}
