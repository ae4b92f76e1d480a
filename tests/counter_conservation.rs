//! Counter conservation: a search publishes to its `DistCounter` exactly
//! the evaluations it reports in `stats.evaluated`, on every exit, and at
//! the right precision — `u8` for code-space traversal, `f32` for
//! full-precision traversal, the exact rerank pool and the greedy descent
//! (full precision whatever the codec) — whether the probes of a sharded
//! search run on the calling thread or on fan-out workers.

use gass::core::fanout::{set_fanout_enabled, set_fanout_workers};
use gass::core::{
    beam_search_terminated, greedy_search, CodecSpec, CodecStore, PqStore, QuantView,
    QuantizedStore, RandomSeeds, SearchScratch, ShardedIndex, ShardedParams, Space, Sq4Store,
    Termination, TerminationPolicy, VisitedSet,
};
use gass::prelude::*;
use std::sync::Mutex;

const K: usize = 10;

/// Held by every test that sets the process-wide fan-out width, so one
/// test's width never leaks into another's run.
static FANOUT_WIDTH: Mutex<()> = Mutex::new(());
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
                let (_, stats) = greedy_search(graph, space, query, 0, &mut visited, budget);
                let e = stats.evaluated as u64;
                // The descent runs at full precision whatever the codec.
                let expected = (0, e);
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
    use gass::graphs::{lshapg, LshapgParams};

    let base = gass::data::synth::deep_like(600, 13);
    let queries = gass::data::synth::deep_like(6, 14);
    let mut index = lshapg::build(base, LshapgParams::small());
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
    let _width = FANOUT_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
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

/// ELPIS through `AnnIndex::search`. Unbudgeted, at fan-out width 1, the
/// counter holds exactly what the probed leaves' own searches publish and
/// `evaluated` is the sum of theirs: the EAPCA ranking evaluates no vector
/// distance, and the probes are a prefix of its order. (Each leaf is an
/// HNSW, whose `evaluated` includes its hierarchy descent.) Under a
/// `max_dists` budget the counter equals `evaluated` and stays within the
/// budget plus the seeds plus one expansion (plus, on codes, the exact
/// rerank pool), the whole query over.
#[test]
fn elpis_search_publishes_its_probes_and_keeps_the_budget() {
    use gass::core::Router;

    let _width = FANOUT_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    set_fanout_workers(1);
    let base = gass::data::synth::deep_like(1200, 23);
    let queries = gass::data::synth::deep_like(6, 24);
    let mut index =
        gass::graphs::elpis::build(base, ElpisParams { nprobe: 8, ..ElpisParams::small() });
    let fixed = QueryParams::new(K, 32).with_rerank_factor(RERANK);
    let budget = fixed.with_max_dists(40);
    let dist_ratio = fixed.with_term(TerminationPolicy::DistRatio { eps: 0.05 });
    for leg in ["f32", "sq8"] {
        if leg == "sq8" {
            index.freeze();
            index.quantize(CodecSpec::Sq8);
        }
        let expansion = index.stats().max_degree;
        for q in 0..queries.len() as u32 {
            let query = queries.get(q);
            let counter = DistCounter::new();
            let res = index.search(query, &budget, &counter);
            let label = format!("elpis {leg} budget 40 query {q}");
            assert_eq!(
                counter.get(),
                res.stats.evaluated as u64,
                "{label}: counter != evaluated"
            );
            // On codes the exact re-score of the final pool follows the
            // traversal the budget stopped.
            let rerank = if leg == "sq8" { RERANK * K } else { 0 };
            let cap = budget.max_dists + budget.seed_count + expansion + rerank;
            assert!(counter.get() as usize <= cap, "{label}: {} > {cap}", counter.get());

            for (mode, params) in [("fixed", fixed), ("dist-ratio", dist_ratio)] {
                let counter = DistCounter::new();
                let (res, probes) = index.search_with_probes(query, &params, &counter);
                let (leaves, evaluated) = (DistCounter::new(), DistCounter::new());
                let ranked = index.router().rank(query, &DistCounter::new());
                for &(_, leaf) in ranked.iter().take(probes) {
                    let own = index.shard(leaf).search(query, &fixed, &leaves);
                    evaluated.add(own.stats.evaluated as u64);
                }
                let label = format!("elpis {leg} {mode} query {q}");
                assert_eq!(
                    (counter.get_u8(), counter.get_f32()),
                    (leaves.get_u8(), leaves.get_f32()),
                    "{label}: counter != the probed leaves' own"
                );
                assert_eq!(res.stats.evaluated as u64, evaluated.get(), "{label}: evaluated");
            }
        }
    }
}

/// ELPIS fan-out only changes which thread runs a leaf probe: neighbours
/// and distance bits are identical at widths 1, 2 and 8. A wider pool may
/// run a speculative probe the bound then discards, and its distances stay
/// counted, so a wider width never counts less than width 1.
#[test]
fn elpis_fanout_is_bit_identical_at_every_width() {
    let _width = FANOUT_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    // SALD-like series give EAPCA bounds that prune mid-plan.
    let base = gass::data::synth::sald_like(1500, 3);
    let queries = gass::data::synth::sald_like(12, 4);
    let index =
        gass::graphs::elpis::build(base, ElpisParams { nprobe: 8, ..ElpisParams::small() });
    let params = QueryParams::new(K, 32);
    let run = |workers: usize| {
        set_fanout_workers(workers);
        let counter = DistCounter::new();
        let answers: Vec<Vec<(u32, u32)>> = (0..queries.len() as u32)
            .map(|q| {
                let res = index.search(queries.get(q), &params, &counter);
                res.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect()
            })
            .collect();
        (answers, counter.get())
    };
    let (want, sequential) = run(1);
    let mut discarded = false;
    for workers in [2, 8] {
        let (got, total) = run(workers);
        assert_eq!(got, want, "answers at width {workers}");
        assert!(total >= sequential, "width {workers} counted {total} < {sequential}");
        discarded |= total > sequential;
    }
    assert!(discarded, "no speculative probe was discarded: the merge re-check went untested");
    assert_eq!(run(1), (want, sequential), "width 1 again");
    set_fanout_workers(1);
}

/// Seed selection is part of the search: through `AnnIndex::search`, every
/// method's counter delta equals its `stats.evaluated` — the distances its
/// seed provider spends (the SN descent, the VP-tree and BKT descents, the
/// Voronoi pyramid) included, budgeted or not. Under `max_dists = 40` the
/// whole query, seed selection and traversal, stays within the budget plus
/// the seeds plus one expansion (plus, on codes, the exact rerank pool).
#[test]
fn every_method_charges_its_seed_selection() {
    use gass::graphs::{hvs, HvsParams};

    let _width = FANOUT_WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    set_fanout_workers(1);
    let base = gass::data::synth::deep_like(1000, 31);
    let queries = gass::data::synth::deep_like(6, 32);
    let mut methods: Vec<Box<dyn AnnIndex>> = MethodKind::all_sota()
        .into_iter()
        .chain([MethodKind::Nsw, MethodKind::Baseline(NdStrategy::Rnd)])
        .map(|kind| build_method(kind, base.clone(), 7).index)
        .collect();
    methods.push(Box::new(hvs::build(base, HvsParams::small())));
    assert_eq!(methods.len(), 16);
    let fixed = QueryParams::new(K, 64).with_seed_count(16).with_rerank_factor(RERANK);
    let budget = fixed.with_max_dists(40);
    let grid = [
        ("fixed", fixed),
        ("budget 40", budget),
        ("dist-ratio", fixed.with_term(TerminationPolicy::DistRatio { eps: 0.05 })),
    ];
    for mut index in methods {
        for leg in ["f32", "sq8"] {
            if leg == "sq8" {
                index.freeze();
                index.quantize(CodecSpec::Sq8);
            }
            let rerank = if leg == "sq8" { RERANK * K } else { 0 };
            let cap = budget.max_dists + budget.seed_count + index.stats().max_degree + rerank;
            for q in 0..queries.len() as u32 {
                for (mode, params) in &grid {
                    let counter = DistCounter::new();
                    let res = index.search(queries.get(q), params, &counter);
                    let label = format!("{} {leg} {mode} query {q}", index.name());
                    assert_eq!(
                        counter.get(),
                        res.stats.evaluated as u64,
                        "{label}: counter delta != stats.evaluated"
                    );
                    if params.max_dists > 0 {
                        let spent = counter.get() as usize;
                        assert!(spent <= cap, "{label}: {spent} > {cap}");
                    }
                }
            }
        }
    }
    set_fanout_workers(1);
}
