//! Cross-crate integration: every method builds on several dataset
//! analogs and reaches a floor recall at a generous beam width — the
//! minimum bar for calling an implementation "working" before the figure
//! harnesses compare them quantitatively.

use gass::core::CodecSpec;
use gass::prelude::*;
use gass_eval::{evaluate_at, evaluate_params};

/// Every floor holds at full precision and under each codec. Quantized
/// serving reaches these floors through approximate code-space traversal;
/// the exact rerank restores recall as long as the pool contains the true
/// neighbors, so the coarser the codec the deeper the pool must be (PQ
/// keeps ~0.67 bits/dim vs SQ4's 4 and SQ8's 8).
const CODEC_RERANK: [(Option<CodecSpec>, usize); 4] = [
    (None, 4),
    (Some(CodecSpec::Sq8), 8),
    (Some(CodecSpec::Sq4), 8),
    (Some(CodecSpec::Pq { m: None }), 32),
];

fn run_roster(kinds: &[MethodKind], dataset: DatasetKind, n: usize, floor: f64) {
    let (base, queries) = dataset.generate(n, 10, 404);
    let k = 10;
    let truth = gass::data::ground_truth(&base, &queries, k);
    for &kind in kinds {
        let mut built = build_method(kind, base.clone(), 17);
        for (codec, rerank) in CODEC_RERANK {
            if let Some(spec) = codec {
                built.index.quantize(spec);
            }
            let params = QueryParams::new(k, 96).with_seed_count(16).with_rerank_factor(rerank);
            let p = evaluate_params(built.index.as_ref(), &queries, &truth, &params);
            // The paper singles LSHAPG out as needing more computation for
            // high accuracy (its probabilistic routing prunes promising
            // neighbors); hold it to a proportionally lower floor.
            let floor = if kind == MethodKind::Lshapg { floor - 0.10 } else { floor };
            let codec = codec.map_or("none", |c| c.name());
            assert!(
                p.recall >= floor,
                "{} {codec} on {}: recall {:.3} below floor {floor}",
                kind.name(),
                dataset.name(),
                p.recall
            );
            assert!(p.dist_calcs > 0, "{} {codec} reported no work", kind.name());
        }
    }
}

#[test]
fn all_methods_work_on_easy_data() {
    run_roster(&MethodKind::all_sota(), DatasetKind::Deep, 600, 0.80);
}

#[test]
fn scalable_methods_work_on_sift_like() {
    run_roster(&MethodKind::scalable(), DatasetKind::Sift, 600, 0.80);
}

#[test]
fn scalable_methods_survive_hard_data() {
    // Seismic-like is the paper's hardest dataset: the bar is lower
    // (the paper itself reports no method above 0.8 recall at 25GB).
    run_roster(&MethodKind::scalable(), DatasetKind::Seismic, 500, 0.45);
}

#[test]
fn methods_handle_power_law_distributions() {
    run_roster(
        &[MethodKind::Hnsw, MethodKind::Elpis, MethodKind::Vamana],
        DatasetKind::RandPow(50),
        500,
        0.60,
    );
}

#[test]
fn out_of_distribution_queries_are_answerable() {
    // Text-to-Image analog: queries come from a shifted distribution.
    let (base, queries) = DatasetKind::TextToImage.generate(600, 10, 5);
    let truth = gass::data::ground_truth(&base, &queries, 10);
    let built = build_method(MethodKind::Hnsw, base, 3);
    let p = evaluate_at(built.index.as_ref(), &queries, &truth, 10, 128, 16);
    assert!(p.recall > 0.5, "OOD recall collapsed: {:.3}", p.recall);
}
