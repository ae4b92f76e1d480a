//! Determinism: identical seeds produce identical indexes and identical
//! answers — the property that makes every figure harness reproducible.

use gass::prelude::*;

fn results_of(index: &dyn AnnIndex, queries: &VectorStore) -> Vec<Vec<(u32, u32)>> {
    let counter = DistCounter::new();
    // Fixed-seed KS providers make per-query seeds deterministic per
    // construction, so two identically-built indexes answer identically.
    let params = QueryParams::new(5, 48).with_seed_count(8);
    (0..queries.len() as u32)
        .map(|qi| {
            index
                .search(queries.get(qi), &params, &counter)
                .neighbors
                .iter()
                .map(|n| (n.id, n.dist.to_bits()))
                .collect()
        })
        .collect()
}

#[test]
fn hnsw_builds_are_reproducible() {
    let base = gass::data::synth::deep_like(500, 77);
    let queries = gass::data::synth::deep_like(10, 78);
    let a = HnswIndex::build(base.clone(), HnswParams::small());
    let b = HnswIndex::build(base, HnswParams::small());
    assert_eq!(a.stats().edges, b.stats().edges);
    assert_eq!(results_of(&a, &queries), results_of(&b, &queries));
}

#[test]
fn vamana_builds_are_reproducible() {
    let base = gass::data::synth::sift_like(400, 79);
    let queries = gass::data::synth::sift_like(8, 80);
    let a = VamanaIndex::build(base.clone(), VamanaParams::small());
    let b = VamanaIndex::build(base, VamanaParams::small());
    assert_eq!(a.stats().edges, b.stats().edges);
    assert_eq!(results_of(&a, &queries), results_of(&b, &queries));
}

#[test]
fn elpis_parallel_build_is_reproducible() {
    // ELPIS builds leaves on worker threads; per-leaf seeds are
    // deterministic, so the resulting structure must be too.
    let base = gass::data::synth::imagenet_like(600, 81);
    let queries = gass::data::synth::imagenet_like(8, 82);
    let a = ElpisIndex::build(base.clone(), ElpisParams::small());
    let b = ElpisIndex::build(base, ElpisParams::small());
    assert_eq!(a.num_leaves(), b.num_leaves());
    assert_eq!(a.stats().edges, b.stats().edges);
    assert_eq!(results_of(&a, &queries), results_of(&b, &queries));
}

#[test]
fn different_seeds_differ() {
    let base = gass::data::synth::deep_like(400, 90);
    let a = HnswIndex::build(base.clone(), HnswParams { seed: 1, ..HnswParams::small() });
    let b = HnswIndex::build(base, HnswParams { seed: 2, ..HnswParams::small() });
    // Level draws differ, so the hierarchies (and almost surely the
    // graphs) differ.
    assert!(
        a.stats().edges != b.stats().edges
            || a.hierarchy().layer_len(0) != b.hierarchy().layer_len(0),
        "independent seeds produced identical structures"
    );
}

/// 64-bit FNV-1a over little-endian `u32` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hash of every answer's `(id, dist.to_bits())` list and traversal stats.
fn answers_hash(results: &[gass::core::SearchResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        h.word(r.neighbors.len() as u32);
        for n in &r.neighbors {
            h.word(n.id);
            h.word(n.dist.to_bits());
        }
        h.word(r.stats.hops as u32);
        h.word(r.stats.evaluated as u32);
    }
    h.0
}

/// Golden pin, recorded on the commit *before* the candidate pool was
/// rewritten (PR 13): the serial HNSW build's edge lists and the answers of
/// 20 fixed queries on every serving path must stay bit-for-bit what they
/// were. Any traversal refactor has to reproduce these constants; only the
/// build's distance count may move, and only down.
#[test]
fn golden_hnsw_graph_and_answers() {
    use gass::core::{CodecSpec, GraphView, PrebuiltIndex, RandomSeeds, TerminationPolicy};

    const GRAPH: u64 = 0x628c_f64c_82ad_30d7;
    const BUILD_DISTS_AT_PIN: u64 = 2_038_119;
    const ANSWERS: [(&str, u64); 7] = [
        ("f32 L=16", 0xf8dd_3235_ea30_5331),
        ("f32 L=140", 0x71a1_a6f9_47a2_8572),
        ("sq8 rerank 2 L=16", 0xd4a6_ab20_a0bb_55aa),
        ("sq8 rerank 2 L=140", 0x99cc_3643_0c70_f848),
        // rerank 14 makes the pool 140 entries at either beam width.
        ("pq rerank 14 L=16", 0x3715_aa13_c9f6_6fe6),
        ("coalesced sq8 batch of 8 L=16", 0x1892_0a64_8ba2_7976),
        ("coalesced sq8 batch of 8 L=140", 0x17ce_be9a_17e0_f6ea),
    ];

    let base = gass::data::synth::deep_like(3000, 1);
    let queries = gass::data::synth::deep_like(20, 2);
    let mut index = HnswIndex::build(
        base.clone(),
        HnswParams { m: 16, ef_construction: 128, seed: 7, threads: 1 },
    );

    let graph = index.base_graph();
    let mut h = Fnv::new();
    for u in 0..graph.num_nodes() as u32 {
        h.word(graph.neighbors(u).len() as u32);
        graph.neighbors(u).iter().for_each(|&v| h.word(v));
    }
    assert_eq!(h.0, GRAPH, "the built graph's edge lists changed");
    let build_dists = index.build_report().dist_calcs;
    assert!(build_dists <= BUILD_DISTS_AT_PIN, "construction got dearer: {build_dists}");

    let counter = DistCounter::new();
    let params = |l: usize, rerank: usize| {
        QueryParams::new(10, l).with_rerank_factor(rerank).with_term(TerminationPolicy::Fixed)
    };
    let run = |index: &dyn AnnIndex, p: QueryParams| {
        let res: Vec<_> = (0..queries.len() as u32)
            .map(|q| index.search(queries.get(q), &p, &counter))
            .collect();
        answers_hash(&res)
    };
    let mut got = Vec::new();
    got.extend([16, 140].map(|l| run(&index, params(l, 4))));
    index.quantize(CodecSpec::Sq8);
    got.extend([16, 140].map(|l| run(&index, params(l, 2))));
    index.quantize(CodecSpec::Pq { m: None });
    got.push(run(&index, params(16, 14)));

    // The lockstep multi-lane engine, as `gass serve` runs it.
    let mut served = PrebuiltIndex::new(
        base.clone(),
        index.base_graph().clone(),
        Box::new(RandomSeeds::per_query(base.len(), 99)),
        "HNSW",
    );
    served.freeze();
    served.quantize(CodecSpec::Sq8);
    let batch: Vec<&[f32]> = (0..8).map(|q| queries.get(q)).collect();
    got.extend(
        [16, 140]
            .map(|l| answers_hash(&served.search_coalesced(&batch, &params(l, 2), &counter))),
    );

    let got: Vec<(&str, u64)> = ANSWERS.iter().map(|(name, _)| *name).zip(got).collect();
    assert_eq!(got, ANSWERS, "an answer or its traversal stats changed");
}

/// Golden pin, recorded on the commit *before* PQ query preparation and
/// codebook training moved onto the 16-centroid kernel (PR 18): for a given
/// store, the trained dimension map, codebooks (in persisted `[j][c][i]`
/// order), packed codes, one prepared query's table with its scale and bias,
/// and both persisted files must stay bit-for-bit what they were.
#[test]
fn golden_pq_codebooks_codes_tables_and_files() {
    use gass::core::{save_codec, save_codec_mapped, PqStore, PreparedQuery};

    // (label, trained state, prepared query, tagged codec file, mapped codec file)
    const PINS: [(&str, usize, [u64; 4]); 2] = [
        (
            "deep-96 n=3000",
            16,
            [
                0xfbb5_6f4d_898f_ccad,
                0xe207_dc70_7aab_2133,
                0xb3a1_d038_7e0b_dcb9,
                0x830f_52d5_309c_cddb,
            ],
        ),
        (
            "gist-960 n=600",
            160,
            [
                0x6c0c_acca_a7df_de2d,
                0x81c6_098d_a7d4_948c,
                0xa33d_5048_c79b_b2e1,
                0x258f_cbbd_8596_2543,
            ],
        ),
    ];
    let stores = [
        (gass::data::synth::deep_like(3000, 1), gass::data::synth::deep_like(1, 2)),
        (gass::data::synth::gist_like(600, 1), gass::data::synth::gist_like(1, 2)),
    ];
    let dir = std::env::temp_dir().join(format!("gass_golden_pq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file_hash = |path: &std::path::Path| {
        let mut h = Fnv::new();
        std::fs::read(path).expect("codec file").iter().for_each(|&b| h.word(u32::from(b)));
        h.0
    };
    let mut got = Vec::new();
    for ((label, m, _), (base, query)) in PINS.iter().zip(&stores) {
        let pq = PqStore::from_store(base, None);
        assert_eq!(pq.m(), *m, "{label}");
        let mut trained = Fnv::new();
        pq.perm().iter().for_each(|&d| trained.word(d));
        pq.centroids().iter().for_each(|c| trained.word(c.to_bits()));
        pq.to_packed_codes().iter().for_each(|&b| trained.word(u32::from(b)));

        let mut prepared = PreparedQuery::default();
        pq.prepare_into(query.get(0), &mut prepared);
        let mut table = Fnv::new();
        prepared.lut().iter().for_each(|&b| table.word(u32::from(b)));
        table.word(prepared.lut_scale().to_bits());
        table.word(prepared.lut_bias().to_bits());

        let (tagged, mapped) = (dir.join("pq.codec.gass"), dir.join("pq.mcodec.gass"));
        save_codec(&pq, &tagged).expect("save tagged codec");
        save_codec_mapped(&pq, &mapped).expect("save mapped codec");
        got.push((*label, *m, [trained.0, table.0, file_hash(&tagged), file_hash(&mapped)]));
    }
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(got, PINS, "PQ training, encoding, table folding or the file format changed");
}

/// Hashes the `u8` / `f32` totals of a counter.
fn counter_words(h: &mut Fnv, counter: &DistCounter) {
    for total in [counter.get_u8(), counter.get_f32()] {
        h.word(total as u32);
        h.word((total >> 32) as u32);
    }
}

/// Golden pin, recorded on the commit *before* probe set-up was batched
/// (seed warm-up scored four at a time, rerank rows prefetched, distance
/// counts published once per search): a six-shard index over HNSW base
/// graphs, probed five at a time, must answer 20 fixed queries with the
/// same ids, distance bits, hops, evaluation counts and `u8` / `f32`
/// counter totals — full precision, and SQ8 codes over RCM-relabelled
/// shards.
#[test]
fn golden_sharded_answers_and_counts() {
    use gass::core::{CodecSpec, RandomSeeds, ReorderStrategy, ShardedIndex, ShardedParams};

    const PINS: [(&str, u64); 2] =
        [("f32", 0xc8b5_83ff_c85f_d0ef), ("sq8 + rcm", 0xc585_23b2_0602_278c)];

    let base = gass::data::synth::deep_like(3000, 1);
    let queries = gass::data::synth::deep_like(20, 2);
    let counter = DistCounter::new();
    let mut index = ShardedIndex::build_with(
        &base,
        &ShardedParams::new(6).with_nprobe(5),
        &counter,
        |_, sub| {
            let hnsw = HnswIndex::build(
                sub.clone(),
                HnswParams { m: 12, ef_construction: 64, seed: 7, threads: 1 },
            );
            let seeds: Box<dyn SeedProvider> = Box::new(RandomSeeds::per_query(sub.len(), 7));
            (hnsw.base_graph().clone(), seeds)
        },
    );
    let params = QueryParams::new(10, 16).with_seed_count(16).with_rerank_factor(2);
    let run = |index: &ShardedIndex| {
        let counter = DistCounter::new();
        let res: Vec<_> = (0..queries.len() as u32)
            .map(|q| index.search(queries.get(q), &params, &counter))
            .collect();
        let mut h = Fnv(answers_hash(&res));
        counter_words(&mut h, &counter);
        h.0
    };
    let mut got = vec![run(&index)];
    index.freeze();
    index.quantize(CodecSpec::Sq8);
    index.reorder(ReorderStrategy::Rcm);
    got.push(run(&index));

    let got: Vec<(&str, u64)> = PINS.iter().map(|(name, _)| *name).zip(got).collect();
    assert_eq!(got, PINS, "a sharded answer, its stats or its counter split changed");
}

/// Golden pin, recorded with the sharded pin above: the order in which a
/// multi-seed search records its evaluations in the sink — duplicate seeds
/// scored once, out-of-range seeds skipped — and its answers, hops and
/// evaluation counts.
#[test]
fn golden_multi_seed_sink_order() {
    use gass::core::beam_search_with_sink;
    use gass::core::{SearchScratch, Space};

    const PIN: u64 = 0xcde5_2d6b_0b5d_a823;
    const SEEDS: [u32; 16] =
        [17, 17, 999_999, 3, 640, 3, 1000, 88, u32::MAX, 451, 17, 902, 5, 260, 999, 640];

    let base = gass::data::synth::deep_like(1000, 3);
    let queries = gass::data::synth::deep_like(10, 4);
    let index = HnswIndex::build(
        base.clone(),
        HnswParams { m: 12, ef_construction: 64, seed: 5, threads: 1 },
    );
    let counter = DistCounter::new();
    let space = Space::new(&base, &counter);
    let mut scratch = SearchScratch::new(base.len(), 32);
    let mut h = Fnv::new();
    for q in 0..queries.len() as u32 {
        let mut sink = Vec::new();
        let res = beam_search_with_sink(
            index.base_graph(),
            space,
            queries.get(q),
            &SEEDS,
            10,
            32,
            &mut scratch,
            Some(&mut sink),
        );
        assert_eq!(sink.len(), res.stats.evaluated);
        h.word(sink.len() as u32);
        for n in &sink {
            h.word(n.id);
            h.word(n.dist.to_bits());
        }
        h.0 ^= answers_hash(std::slice::from_ref(&res));
        h.word(0);
    }
    counter_words(&mut h, &counter);
    assert_eq!(h.0, PIN, "the sink order or a multi-seed answer changed");
}
