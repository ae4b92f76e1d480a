//! Integration contract of compressed serving on a 10K dataset, walked
//! down the whole codec ladder (SQ8 → SQ4 → PQ on one built graph, as
//! built and RCM-reordered): with a rerank factor >= 2, recall@10 stays
//! within one point of the full-precision path, while the `DistCounter`
//! split shows the code evaluations doing the bulk of the work and the
//! `f32` evaluations reduced to the exact rerank (plus the HNSW hierarchy
//! descent, which stays at full precision).

use gass_core::index::{AnnIndex, QueryParams};
use gass_core::store::VectorStore;
use gass_core::Neighbor;
use gass_core::{DistCounter, ReorderStrategy};
use gass_data::ground_truth::ground_truth;
use gass_data::synth::deep_like;
use gass_graphs::{HnswIndex, HnswParams};

const N: usize = 10_000;
const K: usize = 10;

fn recall_at_10(
    index: &HnswIndex,
    queries: &VectorStore,
    truth: &[Vec<Neighbor>],
    params: &QueryParams,
    counter: &DistCounter,
) -> f64 {
    let mut hit = 0;
    for (qi, row) in truth.iter().enumerate() {
        let res = index.search(queries.get(qi as u32), params, counter);
        hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
    }
    hit as f64 / (K * truth.len()) as f64
}

#[test]
fn quantized_recall_within_one_point_on_10k() {
    let base = deep_like(N, 71);
    let queries = deep_like(50, 72);
    let truth = ground_truth(&base, &queries, K);
    let mut index =
        HnswIndex::build(base, HnswParams { m: 12, ef_construction: 96, seed: 7, threads: 0 });
    index.freeze();
    let params = QueryParams::new(K, 128).with_seed_count(8);

    // Full-precision baseline on the exact same graph.
    let full_counter = DistCounter::new();
    let full = recall_at_10(&index, &queries, &truth, &params, &full_counter);
    assert_eq!(full_counter.get_u8(), 0, "unquantized serving must not touch u8 codes");
    assert!(full > 0.9, "full-precision recall implausibly low: {full}");

    // Walk the ladder on the same built graph: `quantize` re-encodes when
    // the requested codec (family or PQ geometry) changes. The rerank
    // pool scales with the code rate — the affine codecs (8 and 4
    // bits/dim) recover with a 4x pool, while PQ at 2 bits/dim (m = dim/2,
    // 16 centroids per 2-dim subquantizer) needs a 16x pool to pull the
    // true top 10 back from the coarser code ranking.
    let dim = queries.dim();
    let ladder = [
        (gass_core::CodecSpec::Sq8, 4usize),
        (gass_core::CodecSpec::Sq4, 4),
        (gass_core::CodecSpec::Pq { m: Some(dim / 2) }, 16),
    ];
    // The ladder runs twice: on the index as built, then relabeled by RCM
    // (the PQ codes left by the first pass are permuted with it, and every
    // rung re-encodes the relabeled store). Results report original ids,
    // so every assertion is strategy-invariant.
    for strategy in [ReorderStrategy::None, ReorderStrategy::Rcm] {
        index.reorder(strategy);
        for (spec, rerank) in ladder {
            index.quantize(spec);
            assert!(index.is_quantized());
            let params = params.with_rerank_factor(rerank);
            let quant_counter = DistCounter::new();
            let quant = recall_at_10(&index, &queries, &truth, &params, &quant_counter);

            assert!(
                quant >= full - 0.01,
                "{strategy} {spec} recall {quant} more than 1pt below full-precision {full}"
            );
            // Traversal ran on the codes; f32 work shrank to the rerank
            // pool and the hierarchy descent.
            assert!(
                quant_counter.get_u8() > quant_counter.get_f32(),
                "{strategy} {spec}: code evaluations should dominate: u8={} f32={}",
                quant_counter.get_u8(),
                quant_counter.get_f32()
            );
            assert!(quant_counter.get_u8() > 0 && quant_counter.get_f32() > 0);
        }
    }
}
