//! Counter conservation: a search publishes to its `DistCounter` exactly
//! the evaluations it reports in `stats.evaluated`, on every exit, and at
//! the right precision — `u8` for code-space traversal, `f32` for
//! full-precision traversal, the exact rerank pool and the greedy
//! descent's exact re-score — whether the probes of a sharded search run
//! on the calling thread or on fan-out workers.

use gass::core::fanout::{set_fanout_enabled, set_fanout_workers};
use gass::core::{
    beam_search_terminated, greedy_search_budgeted, CodecSpec, CodecStore, PqStore, QuantView,
    QuantizedStore, RandomSeeds, SearchScratch, ShardedIndex, ShardedParams, Space, Sq4Store,
    Termination, TerminationPolicy, VisitedSet,
};
use gass::prelude::*;

const K: usize = 10;
const RERANK: usize = 2;

/// The `(u8, f32)` split of a search that evaluated `traversal` code-space
/// distances and re-scored its rerank pool exactly: the pool is the top
/// `RERANK * K` of a buffer holding every traversal evaluation up to a
/// width of at least that.
fn quantized_split(traversal: u64) -> (u64, u64) {
    (traversal, traversal.min((RERANK * K) as u64))
}

/// Asserts that `counter`, fresh before the search, now holds exactly
/// `evaluated` and splits as `expected`.
fn assert_conserved(
    label: &str,
    counter: &DistCounter,
    evaluated: usize,
    expected: (u64, u64),
) {
    assert_eq!(counter.get(), evaluated as u64, "{label}: counter delta != stats.evaluated");
    assert_eq!((counter.get_u8(), counter.get_f32()), expected, "{label}: (u8, f32) split");
}

#[test]
fn every_search_publishes_exactly_what_it_evaluated() {
    let base = gass::data::synth::deep_like(600, 11);
    let queries = gass::data::synth::deep_like(6, 12);
    let hnsw = HnswIndex::build(
        base.clone(),
        HnswParams { m: 12, ef_construction: 64, seed: 3, threads: 1 },
    );
    let graph = hnsw.base_graph();
    // Duplicates and an out-of-range id: the warm-up scores five seeds,
    // one batch of four and a tail of one.
    let seeds = [0u32, 7, 7, 300, 599, 1000, 42, 300];
    let codecs: Vec<(&str, Option<Box<dyn CodecStore>>)> = vec![
        ("f32", None),
        ("sq8", Some(Box::new(QuantizedStore::from_store(&base)))),
        ("sq4", Some(Box::new(Sq4Store::from_store(&base)))),
        ("pq", Some(Box::new(PqStore::from_store(&base, None)))),
    ];
    let beams = [
        ("beam", Termination::FIXED),
        ("beam budget 3", Termination { policy: TerminationPolicy::Fixed, max_dists: 3 }),
        (
            "beam dist-ratio",
            Termination { policy: TerminationPolicy::DistRatio { eps: 0.05 }, max_dists: 0 },
        ),
    ];
    let mut scratch = SearchScratch::new(base.len(), 32);
    let mut visited = VisitedSet::new(base.len());
    for (codec_name, codec) in &codecs {
        let quant = codec.as_deref().map(|c| QuantView::new(c, RERANK));
        for q in 0..queries.len() as u32 {
            let query = queries.get(q);
            for (mode, term) in beams {
                let counter = DistCounter::new();
                let space = Space::new(&base, &counter).with_quant(quant);
                let res = beam_search_terminated(
                    graph,
                    space,
                    query,
                    &seeds,
                    K,
                    32,
                    &mut scratch,
                    term,
                );
                let e = res.stats.evaluated as u64;
                let expected = match quant {
                    None => (0, e),
                    Some(_) => quantized_split(counter.get_u8()),
                };
                let label = format!("{codec_name} {mode} query {q}");
                assert_conserved(&label, &counter, res.stats.evaluated, expected);
            }
            for (mode, budget) in [("greedy", 0), ("greedy budget 3", 3)] {
                let counter = DistCounter::new();
                let space = Space::new(&base, &counter).with_quant(quant);
                let (_, stats) =
                    greedy_search_budgeted(graph, space, query, 0, &mut visited, budget);
                let e = stats.evaluated as u64;
                // The quantized descent re-scores its final best exactly.
                let expected = if quant.is_some() { (e - 1, 1) } else { (0, e) };
                let label = format!("{codec_name} {mode} query {q}");
                assert_conserved(&label, &counter, stats.evaluated, expected);
            }
        }
    }
}

/// LSHAPG's routed search publishes what it reports too: the sketch gate
/// rejects neighbours without scoring them, so the counter holds the
/// traversal's evaluations plus, on codes, the exact rerank pool.
#[test]
fn lshapg_search_publishes_exactly_what_it_evaluated() {
    use gass::graphs::{LshapgIndex, LshapgParams};

    let base = gass::data::synth::deep_like(600, 13);
    let queries = gass::data::synth::deep_like(6, 14);
    let mut index = LshapgIndex::build(base, LshapgParams::small());
    index.freeze();
    let fixed = QueryParams::new(K, 32).with_seed_count(12).with_rerank_factor(RERANK);
    let grid = [
        ("fixed", fixed),
        ("budget 3", fixed.with_max_dists(3)),
        ("dist-ratio", fixed.with_term(TerminationPolicy::DistRatio { eps: 0.05 })),
    ];
    for leg in ["f32", "sq8"] {
        if leg == "sq8" {
            index.quantize(CodecSpec::Sq8);
        }
        for q in 0..queries.len() as u32 {
            for (mode, params) in &grid {
                let counter = DistCounter::new();
                let res = index.search(queries.get(q), params, &counter);
                let e = res.stats.evaluated as u64;
                let expected =
                    if leg == "f32" { (0, e) } else { quantized_split(counter.get_u8()) };
                let label = format!("lshapg {leg} {mode} query {q}");
                assert_conserved(&label, &counter, res.stats.evaluated, expected);
            }
        }
    }
}

/// A sharded search publishes each probe's counts from whichever thread ran
/// the probe: at fan-out width 1 and 2 the counter holds the centroid
/// ranking plus exactly what every probed shard's own search publishes.
#[test]
fn sharded_search_publishes_every_probe_at_every_fanout_width() {
    let base = gass::data::synth::deep_like(1200, 21);
    let queries = gass::data::synth::deep_like(6, 22);
    let mut index = ShardedIndex::build_with(
        &base,
        &ShardedParams::new(4).with_nprobe(4),
        &DistCounter::new(),
        |_, sub| {
            let hnsw = HnswIndex::build(
                sub.clone(),
                HnswParams { m: 12, ef_construction: 64, seed: 5, threads: 1 },
            );
            let seeds: Box<dyn SeedProvider> = Box::new(RandomSeeds::per_query(sub.len(), 9));
            (hnsw.base_graph().clone(), seeds)
        },
    );
    let params = QueryParams::new(K, 16).with_seed_count(16).with_rerank_factor(RERANK);
    let shards = index.num_shards() as u64;
    for leg in ["f32", "sq8"] {
        if leg == "sq8" {
            index.freeze();
            index.quantize(CodecSpec::Sq8);
        }
        for q in 0..queries.len() as u32 {
            let query = queries.get(q);
            // Every shard is probed (nprobe = shards): the expected split is
            // the centroid ranking plus each shard searched on its own.
            let mut expected = (0, shards);
            for s in 0..index.num_shards() {
                let counter = DistCounter::new();
                let res = index.shard(s).search(query, &params, &counter);
                let e = res.stats.evaluated as u64;
                let own = if leg == "f32" { (0, e) } else { quantized_split(counter.get_u8()) };
                assert_conserved(
                    &format!("{leg} shard {s} query {q}"),
                    &counter,
                    res.stats.evaluated,
                    own,
                );
                expected = (expected.0 + own.0, expected.1 + own.1);
            }
            for width in [1, 2] {
                set_fanout_enabled(true);
                set_fanout_workers(width);
                let counter = DistCounter::new();
                let res = index.search(query, &params, &counter);
                let label = format!("{leg} sharded fan-out {width} query {q}");
                assert_conserved(&label, &counter, res.stats.evaluated, expected);
            }
        }
    }
    set_fanout_workers(1);
}
