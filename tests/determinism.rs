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
    let a = gass::graphs::vamana::build(base.clone(), VamanaParams::small());
    let b = gass::graphs::vamana::build(base, VamanaParams::small());
    assert_eq!(a.stats().edges, b.stats().edges);
    assert_eq!(results_of(&a, &queries), results_of(&b, &queries));
}

#[test]
fn elpis_parallel_build_is_reproducible() {
    // ELPIS builds leaves on worker threads; per-leaf seeds are
    // deterministic, so the resulting structure must be too.
    let base = gass::data::synth::imagenet_like(600, 81);
    let queries = gass::data::synth::imagenet_like(8, 82);
    let a = gass::graphs::elpis::build(base.clone(), ElpisParams::small());
    let b = gass::graphs::elpis::build(base, ElpisParams::small());
    assert_eq!(a.num_shards(), b.num_shards());
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
/// build's distance count may move, and only down. The five `f32` / `sq8` /
/// `pq` cells were re-recorded once, when seed selection became part of
/// the search and the hierarchy descent began to count in `evaluated`
/// without a budget too; [`golden_answers_without_evaluated`] held the
/// ids, distance bits, hops and counter totals still.
#[test]
fn golden_hnsw_graph_and_answers() {
    use gass::core::{CodecSpec, GraphView, PrebuiltIndex, RandomSeeds, TerminationPolicy};

    const GRAPH: u64 = 0x628c_f64c_82ad_30d7;
    const BUILD_DISTS_AT_PIN: u64 = 2_038_119;
    const ANSWERS: [(&str, u64); 7] = [
        ("f32 L=16", 0x9d1f_03ec_63f3_2f53),
        ("f32 L=140", 0xc9bd_44bc_d18f_1c41),
        ("sq8 rerank 2 L=16", 0x9a20_38e9_ae35_4483),
        ("sq8 rerank 2 L=140", 0x3552_6389_a140_47dc),
        // rerank 14 makes the pool 140 entries at either beam width.
        ("pq rerank 14 L=16", 0x0e5e_79ea_03d5_3c1a),
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
/// order), packed codes, and one prepared query's table with its scale and
/// bias must stay bit-for-bit what they were.
#[test]
fn golden_pq_codebooks_codes_tables() {
    use gass::core::{PqStore, PreparedQuery};

    // (label, trained state, prepared query)
    const PINS: [(&str, usize, [u64; 2]); 2] = [
        ("deep-96 n=3000", 16, [0xfbb5_6f4d_898f_ccad, 0xe207_dc70_7aab_2133]),
        ("gist-960 n=600", 160, [0x6c0c_acca_a7df_de2d, 0x81c6_098d_a7d4_948c]),
    ];
    let stores = [
        (gass::data::synth::deep_like(3000, 1), gass::data::synth::deep_like(1, 2)),
        (gass::data::synth::gist_like(600, 1), gass::data::synth::gist_like(1, 2)),
    ];
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

        got.push((*label, *m, [trained.0, table.0]));
    }
    assert_eq!(got, PINS, "PQ training, encoding or table folding changed");
}

/// Golden pin, recorded on the commit *before* SQ8 and SQ4 became one
/// affine store generic over the code width: for each width and
/// store — Deep-96, Gist-960 and a 17-dimensional store whose odd final
/// dimension leaves SQ4 a phantom nibble — every padded code row and
/// decode, every single and four-row distance, and the heap footprint must
/// stay bit-for-bit what they were.
#[test]
fn golden_affine_codes_distances() {
    use gass::core::{CodecSpec, PreparedQuery};

    // (label, heap bytes, [rows + decodes, distances])
    const PINS: [(&str, usize, [u64; 2]); 6] = [
        ("sq8 deep-96 n=3000", 384_768, [0xfcf9_9240_6386_50ca, 0xb542_4237_45ec_b8f5]),
        ("sq8 gist-960 n=600", 583_680, [0x0ecc_8c1b_84f7_ceb5, 0x10cf_3866_79ab_9a49]),
        ("sq8 ramp-17 n=37", 2_504, [0xfac0_b4c9_3357_0215, 0x3047_1316_8905_a1ec]),
        ("sq4 deep-96 n=3000", 192_768, [0xb912_f5c6_1361_4b73, 0x663e_6dfb_9e99_cb95]),
        ("sq4 gist-960 n=600", 314_880, [0x8c71_50e6_3803_8f94, 0x8cbd_e9f1_77dc_9691]),
        ("sq4 ramp-17 n=37", 2_504, [0x65cd_66e3_345b_27c5, 0xeff4_f6ce_8d97_2b77]),
    ];
    // Seventeen dimensions, one of them constant (a zero step).
    let ramp = |n: usize, phase: usize| {
        let flat = (0..n)
            .flat_map(|i| {
                (0..17).map(move |d| match d {
                    5 => 1.25,
                    _ => (((i + phase) * 31 + d * 7) as f32 * 0.37).sin() * 3.0,
                })
            })
            .collect();
        VectorStore::from_flat(17, flat)
    };
    let stores = [
        (gass::data::synth::deep_like(3000, 1), gass::data::synth::deep_like(1, 2)),
        (gass::data::synth::gist_like(600, 1), gass::data::synth::gist_like(1, 2)),
        (ramp(37, 0), ramp(1, 1000)),
    ];
    let dist_hash = |codec: &dyn gass::core::CodecStore, query: &[f32]| {
        let mut prepared = PreparedQuery::default();
        codec.prepare_into(query, &mut prepared);
        let mut h = Fnv::new();
        for id in 0..codec.len() as u32 {
            h.word(codec.dist_prepared(&prepared, id).to_bits());
        }
        for quad in 0..codec.len() as u32 / 4 {
            let ids = [0, 1, 2, 3].map(|i| 4 * quad + i);
            codec.dist_prepared_batch(&prepared, ids).iter().for_each(|d| h.word(d.to_bits()));
        }
        h.0
    };
    let mut got = Vec::new();
    for spec in [CodecSpec::Sq8, CodecSpec::Sq4] {
        for (base, query) in &stores {
            let codec = spec.build(base);
            let mut rows = Fnv::new();
            for id in 0..codec.len() as u32 {
                codec.code_row(id).iter().for_each(|&b| rows.word(u32::from(b)));
                codec.decode(id).iter().for_each(|x| rows.word(x.to_bits()));
            }
            let hashes = [rows.0, dist_hash(codec.as_ref(), query.get(0))];
            got.push((PINS[got.len()].0, codec.heap_bytes(), hashes));
        }
    }
    assert_eq!(got, PINS, "SQ8/SQ4 encoding or scoring changed");
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

/// Golden pin, recorded on the commit *before* LSHAPG's probabilistic
/// routing moved onto the shared beam loop as a gate: a frozen LSHAPG index
/// must answer 30 fixed queries with the same ids, distance bits, hops,
/// evaluation counts and `u8` / `f32` counter totals under every codec,
/// as built and RCM-relabelled, at a Fixed beam, under a distance budget
/// and at `L = 8`, below `k` and the rerank pool. The `L = 64` and `L = 8`
/// cells were re-recorded when the sketch gate's scale became `1 / m`;
/// the budget cells stop before the gate rejects anything and held.
#[test]
fn golden_lshapg_answers_and_counts() {
    use gass::core::{CodecSpec, ReorderStrategy};
    use gass::graphs::{lshapg, LshapgIndex, LshapgParams};

    const PINS: [(&str, u64); 24] = [
        ("as built f32 L=64", 0x19c4_bb5c_04d5_6f57),
        ("as built f32 budget 60", 0xe23a_f722_0481_a307),
        ("as built f32 L=8", 0x6410_d466_42a9_8840),
        ("as built sq8 L=64", 0x1246_1f1b_4cb0_652b),
        ("as built sq8 budget 60", 0x45f4_570e_66c0_cf5a),
        ("as built sq8 L=8", 0x9adc_7f5d_3a04_79f7),
        ("as built sq4 L=64", 0xe8fb_d6cc_15f6_6688),
        ("as built sq4 budget 60", 0xb60a_69f2_8f01_dc27),
        ("as built sq4 L=8", 0x2f9c_0243_590b_900f),
        ("as built pq L=64", 0x1f2f_cb71_9100_8e66),
        ("as built pq budget 60", 0x67d3_e60d_7f04_fbeb),
        ("as built pq L=8", 0x4bff_b4ab_66b5_75e6),
        ("rcm f32 L=64", 0x19c4_bb5c_04d5_6f57),
        ("rcm f32 budget 60", 0xe23a_f722_0481_a307),
        ("rcm f32 L=8", 0x6410_d466_42a9_8840),
        ("rcm sq8 L=64", 0x1246_1f1b_4cb0_652b),
        ("rcm sq8 budget 60", 0x45f4_570e_66c0_cf5a),
        ("rcm sq8 L=8", 0x9adc_7f5d_3a04_79f7),
        ("rcm sq4 L=64", 0xe8fb_d6cc_15f6_6688),
        ("rcm sq4 budget 60", 0xb60a_69f2_8f01_dc27),
        ("rcm sq4 L=8", 0x2f9c_0243_590b_900f),
        ("rcm pq L=64", 0x29bd_e009_afe5_0192),
        ("rcm pq budget 60", 0xcf40_e811_5af5_8002),
        ("rcm pq L=8", 0x4a67_7326_3975_e6ed),
    ];

    let base = gass::data::synth::deep_like(1500, 11);
    let queries = gass::data::synth::deep_like(30, 12);
    let grid = [
        QueryParams::new(10, 64).with_seed_count(12),
        QueryParams::new(10, 64).with_seed_count(12).with_max_dists(60),
        QueryParams::new(10, 8).with_seed_count(12),
    ];
    let run = |index: &LshapgIndex, params: &QueryParams| {
        let counter = DistCounter::new();
        let res: Vec<_> = (0..queries.len() as u32)
            .map(|q| index.search(queries.get(q), params, &counter))
            .collect();
        let mut h = Fnv(answers_hash(&res));
        counter_words(&mut h, &counter);
        h.0
    };
    let mut got = Vec::new();
    for layout in [ReorderStrategy::None, ReorderStrategy::Rcm] {
        let mut index = lshapg::build(base.clone(), LshapgParams::small());
        index.freeze();
        index.reorder(layout);
        for codec in
            [None, Some(CodecSpec::Sq8), Some(CodecSpec::Sq4), Some(CodecSpec::Pq { m: None })]
        {
            if let Some(spec) = codec {
                index.quantize(spec);
            }
            got.extend(grid.iter().map(|params| run(&index, params)));
        }
    }

    let got: Vec<(&str, u64)> = PINS.iter().map(|(name, _)| *name).zip(got).collect();
    assert_eq!(got, PINS, "an LSHAPG answer, its stats or its counter split changed");
}

/// Golden pin, recorded on the commit *before* LSHAPG became a
/// `PrebuiltIndex`: LSHAPG retrieves at least four LSH seeds whatever
/// `seed_count` asks, so the registry's LSHAPG must answer 30 fixed
/// queries at `seed_count` 1 and 3 with the same ids, distance bits, hops,
/// evaluation counts and `u8` / `f32` counter totals — full precision and
/// SQ8, as built and RCM-relabelled. Both seed counts sit below the floor,
/// so each pair of cells is one hash. Re-recorded when the sketch gate's
/// scale became `1 / m` (the two seed counts still hash alike).
#[test]
fn golden_lshapg_seed_floor() {
    use gass::core::{CodecSpec, ReorderStrategy};

    const PINS: [(&str, u64); 8] = [
        ("as built f32 seeds=1", 0x0e20_c179_110c_e6fa),
        ("as built f32 seeds=3", 0x0e20_c179_110c_e6fa),
        ("as built sq8 seeds=1", 0x42a5_7cf0_ca45_8c11),
        ("as built sq8 seeds=3", 0x42a5_7cf0_ca45_8c11),
        ("rcm f32 seeds=1", 0x0e20_c179_110c_e6fa),
        ("rcm f32 seeds=3", 0x0e20_c179_110c_e6fa),
        ("rcm sq8 seeds=1", 0x42a5_7cf0_ca45_8c11),
        ("rcm sq8 seeds=3", 0x42a5_7cf0_ca45_8c11),
    ];

    let base = gass::data::synth::deep_like(1500, 31);
    let queries = gass::data::synth::deep_like(30, 32);
    let run = |index: &dyn AnnIndex, seeds: usize| {
        let params = QueryParams::new(10, 64).with_seed_count(seeds);
        let counter = DistCounter::new();
        let res: Vec<_> = (0..queries.len() as u32)
            .map(|q| index.search(queries.get(q), &params, &counter))
            .collect();
        let mut h = Fnv(answers_hash(&res));
        counter_words(&mut h, &counter);
        h.0
    };
    let mut got = Vec::new();
    for layout in [ReorderStrategy::None, ReorderStrategy::Rcm] {
        let mut index = build_method(MethodKind::Lshapg, base.clone(), 7).index;
        index.freeze();
        index.reorder(layout);
        for codec in [None, Some(CodecSpec::Sq8)] {
            if let Some(spec) = codec {
                index.quantize(spec);
            }
            got.extend([1, 3].map(|seeds| run(index.as_ref(), seeds)));
        }
    }

    let got: Vec<(&str, u64)> = PINS.iter().map(|(name, _)| *name).zip(got).collect();
    assert_eq!(got, PINS, "LSHAPG's seed floor, an answer or a counter split changed");
}

/// Every method the method pins cover — the paper's twelve, NSW and the
/// II baseline from the registry, then IEH and HVS, which are not in the
/// registry and are built directly — each with its construction distance
/// count.
fn every_method(base: &VectorStore) -> Vec<(Box<dyn AnnIndex>, u64)> {
    use gass::graphs::{HvsParams, IehParams};
    let mut methods: Vec<(Box<dyn AnnIndex>, u64)> = MethodKind::all_sota()
        .into_iter()
        .chain([MethodKind::Nsw, MethodKind::Baseline(NdStrategy::Rnd)])
        .map(|kind| {
            let built = build_method(kind, base.clone(), 7);
            (built.index, built.build.dist_calcs)
        })
        .collect();
    let ieh = gass::graphs::ieh::build(base.clone(), IehParams::small());
    let ieh_dists = ieh.build_report().dist_calcs;
    let hvs = gass::graphs::hvs::build(base.clone(), HvsParams::small());
    let hvs_dists = hvs.build_report().dist_calcs;
    methods.push((Box::new(ieh), ieh_dists));
    methods.push((Box::new(hvs), hvs_dists));
    methods
}

/// Golden pin, recorded on the commit *before* the graph-plus-seeds
/// methods were folded into one index type: every method — the paper's
/// twelve, NSW, the II baseline, IEH and HVS — built once over 600 Deep
/// vectors must answer 20 fixed queries with the same ids, distance bits,
/// hops, evaluation counts and `u8` / `f32` counter totals, and report the
/// same name, `IndexStats` and construction distance count, as built,
/// after `freeze` + SQ8, and after an RCM relabelling on top. The last two
/// columns were re-recorded once, when `freeze` began dropping the build
/// graph (`graph_bytes` keeps only the CSR) and KS seeds began counting
/// the translate table a reorder installs (`aux_bytes`);
/// [`golden_method_layout_and_answers`] held everything else still. The
/// II+RND `rcm` cell was re-recorded once more, when the II baseline began
/// counting its seed provider (that translate table) in `aux_bytes`. The
/// ELPIS row was re-recorded when ELPIS became a partitioned index and
/// stopped counting its leaf stores in `aux_bytes` (−230,400 B, the 600 ×
/// 96 `f32` rows, at every stage), and the `rcm` cells of EFANNA, HCNNG,
/// NGT, SPTAG-KDT and SPTAG-BKT when their KD / VP / BKT seeds began
/// counting the `new → old` table a reorder installs. The HNSW, NGT,
/// SPTAG-BKT, ELPIS and HVS rows were re-recorded when seed selection
/// became part of the search: the distances their SN / VP / BKT / pyramid
/// descents spend now count in `evaluated`, budgeted or not, and
/// [`golden_answers_without_evaluated`] held everything else still. The
/// LSHAPG and IEH rows were re-recorded when LSHAPG became a
/// `PrebuiltIndex` with a sketch gate (its unsearched hierarchy dropped),
/// IEH stopped holding sketch rows and the LSH tables began counting the
/// `new → old` table a reorder installs: only `aux_bytes` moved, and the
/// grid hashed with `aux_bytes` masked was equal before and after. The
/// LSHAPG row was re-recorded once more when the sketch gate's scale
/// became `1 / m`, which changes what the gate admits.
#[test]
fn golden_method_answers_and_stats() {
    use gass::core::{CodecSpec, ReorderStrategy};

    const PINS: [(&str, [u64; 3]); 17] = [
        ("HNSW", [0x7bd1_472e_2448_1f58, 0x0e7d_70f6_93a6_933f, 0xfa9b_1050_3178_132e]),
        ("NSG", [0x11e3_4d11_2e1e_e452, 0x3373_f4f1_6006_cc29, 0xb3cd_b2c2_e667_66f2]),
        ("SSG", [0xab6b_7f7d_37b3_5af6, 0x47b5_78a7_77f4_597b, 0xca0f_eafb_bc78_e671]),
        ("Vamana", [0x7084_81ba_b7b1_bf06, 0x0dd8_fd16_63ef_7c62, 0xaaa3_b739_0f5a_9be2]),
        ("DPG", [0x99f0_8f7d_a475_f412, 0xc868_434f_4138_6cb1, 0xe16c_2a9f_bc62_079e]),
        ("EFANNA", [0x16d6_7b1f_5814_300d, 0x54fb_8d0d_ff04_d9fb, 0x6513_da3a_4eff_af6f]),
        ("HCNNG", [0xaff9_88f5_8704_d49f, 0x954c_a615_079a_ba7c, 0x5bf9_97cf_1a34_4960]),
        ("KGraph", [0xdc2d_a95c_b4d0_92bf, 0x6b3c_007e_a58d_4c30, 0x9518_dc4d_4831_cf86]),
        ("NGT", [0xfee6_2dfb_0241_c1f5, 0x8ed8_ff02_3ea9_91c7, 0xdde1_3c09_2000_cf5b]),
        ("SPTAG-KDT", [0x3a3a_3d64_c834_7454, 0xff99_f566_a3d4_ee08, 0x557c_4397_1015_704c]),
        ("SPTAG-BKT", [0x9007_45a2_7b77_775d, 0x7ddd_2e38_82ad_02f6, 0xcfdc_93f1_a66a_15aa]),
        ("ELPIS", [0xc1d0_5dd8_acf8_285e, 0x7e1e_6698_8bf2_b2fd, 0x3eb3_be36_d1fa_86e2]),
        ("LSHAPG", [0xc7e5_7f66_fc5d_1800, 0x4595_8442_c3d0_49ed, 0x5ebc_1ac2_a1d4_6e09]),
        ("NSW", [0x2a92_b8e6_8a4f_e2a4, 0xf6d5_f5d9_df8d_4f04, 0xdd14_7200_85b7_3191]),
        ("II+RND", [0xd7a9_9ecf_38ec_f937, 0x471c_ebd5_0806_8064, 0x86fa_a3d5_78e5_e6e6]),
        ("IEH", [0x85ca_db77_644b_2b26, 0x0055_4ea7_c37f_e219, 0x5fc7_3733_f7ed_e70d]),
        ("HVS", [0xf619_394b_6aa9_d7f0, 0xdbc5_4b15_d85c_b44b, 0x95f7_3fb3_946c_0c18]),
    ];

    let base = gass::data::synth::deep_like(600, 21);
    let queries = gass::data::synth::deep_like(20, 22);
    let params = QueryParams::new(10, 40).with_seed_count(8);
    let methods = every_method(&base);
    let stage = |index: &dyn AnnIndex, build_dists: u64| {
        let counter = DistCounter::new();
        let res: Vec<_> = (0..queries.len() as u32)
            .map(|q| index.search(queries.get(q), &params, &counter))
            .collect();
        let mut h = Fnv(answers_hash(&res));
        counter_words(&mut h, &counter);
        index.name().bytes().for_each(|b| h.word(u32::from(b)));
        let s = index.stats();
        let words = [s.nodes, s.edges, s.max_degree, s.graph_bytes, s.aux_bytes]
            .map(|w| w as u64)
            .into_iter()
            .chain([s.avg_degree.to_bits(), build_dists]);
        for w in words {
            h.word(w as u32);
            h.word((w >> 32) as u32);
        }
        h.0
    };
    let mut got = Vec::new();
    for (mut index, build_dists) in methods {
        let as_built = stage(index.as_ref(), build_dists);
        index.freeze();
        index.quantize(CodecSpec::Sq8);
        let sq8 = stage(index.as_ref(), build_dists);
        index.reorder(ReorderStrategy::Rcm);
        let rcm = stage(index.as_ref(), build_dists);
        got.push((index.name(), [as_built, sq8, rcm]));
    }

    let got: Vec<(&str, [u64; 3])> = got.iter().map(|(name, h)| (name.as_str(), *h)).collect();
    assert_eq!(got, PINS, "a method's answers, counters, stats or build cost changed");
}

/// Golden pin, recorded on the commit *before* `freeze` started moving the
/// build graph into CSR instead of copying it: the same methods, queries
/// and stages as [`golden_method_answers_and_stats`], hashing everything
/// that pin hashes except the two byte counts (`graph_bytes`,
/// `aux_bytes`) — answers, counter totals, name, nodes, edges,
/// `max_degree`, `avg_degree` bits and the build distance count. A change
/// to where the serving graph lives may move memory, never this. The HNSW,
/// NGT, SPTAG-BKT, ELPIS and HVS rows were re-recorded when their seed
/// selection's distances began to count in `evaluated` (see
/// [`golden_method_answers_and_stats`]), and the LSHAPG row when the
/// sketch gate's scale became `1 / m`.
#[test]
fn golden_method_layout_and_answers() {
    use gass::core::{CodecSpec, ReorderStrategy};

    const PINS: [(&str, [u64; 3]); 17] = [
        ("HNSW", [0x81d4_da78_51a6_bbb8, 0xebf1_23f7_3299_231f, 0xebf1_23f7_3299_231f]),
        ("NSG", [0x26af_254b_b288_ea13, 0x9817_9944_ebac_ce26, 0xd085_d9e4_9f8e_d53d]),
        ("SSG", [0x5dc5_c620_5ed6_4923, 0x5f08_1d1e_6cda_5d24, 0xe383_7999_1806_9092]),
        ("Vamana", [0x0ac6_8e1d_fe99_ca9f, 0x4f6b_2ab9_9968_1855, 0xc8cb_2320_1e7d_1691]),
        ("DPG", [0x1adf_7fa9_14c5_9ad8, 0x1c97_13e3_e375_f296, 0xb3b9_4d30_2301_32d1]),
        ("EFANNA", [0x0ea2_d424_fd37_42b3, 0x5c40_4a70_7a5f_2b27, 0x5c40_4a70_7a5f_2b27]),
        ("HCNNG", [0x8d84_7b00_442b_159f, 0x7307_9cc5_6233_e566, 0x7307_9cc5_6233_e566]),
        ("KGraph", [0x431a_42c3_89c8_d196, 0xfa37_47d2_68f1_fcc5, 0x8635_540b_4631_8c07]),
        ("NGT", [0x5ca0_be58_ab19_426f, 0x623e_0f08_0111_abfc, 0x623e_0f08_0111_abfc]),
        ("SPTAG-KDT", [0x542f_5a9f_d912_4ebd, 0x27c0_fc2f_1726_6649, 0x27c0_fc2f_1726_6649]),
        ("SPTAG-BKT", [0xef71_80cb_93b7_d187, 0x6ad6_4d58_58d8_5196, 0x6ad6_4d58_58d8_5196]),
        ("ELPIS", [0xa498_7085_5256_bdee, 0x9992_8390_9d49_6862, 0x9992_8390_9d49_6862]),
        ("LSHAPG", [0x8884_52db_0bc3_4bf1, 0x0ca1_2aec_7fbd_ce22, 0x0ca1_2aec_7fbd_ce22]),
        ("NSW", [0xff7c_e34b_b968_49d2, 0xe86b_8663_a82a_3fae, 0x6514_8d39_f48b_c8f3]),
        ("II+RND", [0x3501_e13c_e2d7_0642, 0xe4f1_9992_c53a_8dfa, 0xb97f_da0c_cddc_e698]),
        ("IEH", [0xa5aa_82ec_af05_8487, 0x4534_78e4_ce5d_cde6, 0x4534_78e4_ce5d_cde6]),
        ("HVS", [0x7a62_14d5_34ad_0c64, 0x2f41_7773_798c_accf, 0x2f41_7773_798c_accf]),
    ];

    let base = gass::data::synth::deep_like(600, 21);
    let queries = gass::data::synth::deep_like(20, 22);
    let params = QueryParams::new(10, 40).with_seed_count(8);
    let methods = every_method(&base);
    let stage = |index: &dyn AnnIndex, build_dists: u64| {
        let counter = DistCounter::new();
        let res: Vec<_> = (0..queries.len() as u32)
            .map(|q| index.search(queries.get(q), &params, &counter))
            .collect();
        let mut h = Fnv(answers_hash(&res));
        counter_words(&mut h, &counter);
        index.name().bytes().for_each(|b| h.word(u32::from(b)));
        let s = index.stats();
        let words = [s.nodes, s.edges, s.max_degree]
            .map(|w| w as u64)
            .into_iter()
            .chain([s.avg_degree.to_bits(), build_dists]);
        for w in words {
            h.word(w as u32);
            h.word((w >> 32) as u32);
        }
        h.0
    };
    let mut got = Vec::new();
    for (mut index, build_dists) in methods {
        let as_built = stage(index.as_ref(), build_dists);
        index.freeze();
        index.quantize(CodecSpec::Sq8);
        let sq8 = stage(index.as_ref(), build_dists);
        index.reorder(ReorderStrategy::Rcm);
        let rcm = stage(index.as_ref(), build_dists);
        got.push((index.name(), [as_built, sq8, rcm]));
    }

    let got: Vec<(&str, [u64; 3])> = got.iter().map(|(name, h)| (name.as_str(), *h)).collect();
    assert_eq!(got, PINS, "a method's answers, counters, structure or build cost changed");
}

/// Golden pin, recorded on the commit *before* ELPIS moved onto the one
/// partitioned probe loop: ELPIS at `nprobe` 1, 4 and 8 must answer 20
/// fixed queries with the same ids, distance bits, hops, evaluation counts
/// and `u8` / `f32` counter totals — full precision, and SQ8 codes over
/// RCM-relabelled leaves, `Fixed` termination without a budget. The counts
/// hold at fan-out width 1; wider widths may add discarded speculative
/// probes. Re-recorded once, when each leaf's hierarchy descent began to
/// count in `evaluated` without a budget too;
/// [`golden_answers_without_evaluated`] held the rest still.
#[test]
fn golden_elpis_answers_across_nprobe() {
    use gass::core::{CodecSpec, ReorderStrategy};

    const PINS: [(usize, [u64; 2]); 3] = [
        (1, [0xcecb_7634_eb22_91c6, 0x91f5_90a4_c1f9_df07]),
        (4, [0xab2c_beb7_1132_f847, 0x2d65_679d_1092_ce7f]),
        (8, [0x541e_4a3f_ed08_b331, 0x91cb_a545_3ff0_261b]),
    ];

    let base = gass::data::synth::deep_like(2400, 41);
    let queries = gass::data::synth::deep_like(20, 42);
    let params = QueryParams::new(10, 32);
    let run = |index: &dyn AnnIndex| {
        let counter = DistCounter::new();
        let res: Vec<_> = (0..queries.len() as u32)
            .map(|q| index.search(queries.get(q), &params, &counter))
            .collect();
        let mut h = Fnv(answers_hash(&res));
        counter_words(&mut h, &counter);
        h.0
    };
    let got = [1, 4, 8].map(|nprobe| {
        let mut index = gass::graphs::elpis::build(
            base.clone(),
            ElpisParams { nprobe, ..ElpisParams::small() },
        );
        let f32 = run(&index);
        index.freeze();
        index.quantize(CodecSpec::Sq8);
        index.reorder(ReorderStrategy::Rcm);
        (nprobe, [f32, run(&index)])
    });
    assert_eq!(got, PINS, "an ELPIS answer, its stats or its counter split changed");
}

/// Hash of every answer's `(id, dist.to_bits())` list and hop count — the
/// traversal stats without `evaluated`.
fn answers_hash_without_evaluated(h: &mut Fnv, results: &[gass::core::SearchResult]) {
    for r in results {
        h.word(r.neighbors.len() as u32);
        for n in &r.neighbors {
            h.word(n.id);
            h.word(n.dist.to_bits());
        }
        h.word(r.stats.hops as u32);
    }
}

/// Golden pin, recorded on the commit *before* seed selection was charged
/// in `evaluated`: the grids of [`golden_hnsw_graph_and_answers`],
/// [`golden_method_answers_and_stats`] and
/// [`golden_elpis_answers_across_nprobe`], hashing everything those pins
/// hash except `stats.evaluated` — ids, distance bits, hops, `u8` / `f32`
/// counter totals (one fresh counter per cell), and for the methods their
/// name, every `IndexStats` field and the build distance count. Moving
/// where a seed provider's distances are reported may change
/// `evaluated`; it may not change an answer or what was counted. The
/// LSHAPG and IEH method rows were re-recorded when their `aux_bytes`
/// moved, and the LSHAPG row again when the sketch gate's scale became
/// `1 / m` (see [`golden_method_answers_and_stats`]).
#[test]
fn golden_answers_without_evaluated() {
    use gass::core::{
        CodecSpec, PrebuiltIndex, RandomSeeds, ReorderStrategy, TerminationPolicy,
    };

    const HNSW: [u64; 7] = [
        0x8169_2936_e7e3_be83,
        0x460b_ae2d_7fd3_ccd0,
        0x424a_b85c_db91_0159,
        0x8b17_6e7c_36a6_c2d1,
        0x9620_cf38_8778_dfaf,
        0x7f38_bda7_d3de_9d71,
        0xf47c_d6bd_ed05_891a,
    ];
    const METHODS: [(&str, [u64; 3]); 17] = [
        ("HNSW", [0x7982_e22e_368f_6109, 0xe8ed_197f_d160_f202, 0x4147_37a1_92f6_e13b]),
        ("NSG", [0x320a_14fd_8f44_2783, 0x15a3_5742_8f9f_7ae1, 0xa491_4b36_253e_9ede]),
        ("SSG", [0x3a1c_e4f3_7282_97ee, 0xa8a9_fa48_e817_9b3f, 0x0f05_a1e2_317d_5c25]),
        ("Vamana", [0x9d3f_ca81_40f4_b29f, 0x9b6c_63fc_a461_f73b, 0x293a_ae0b_ca22_3a56]),
        ("DPG", [0xcc2c_8be6_6fa6_41af, 0x73d1_9797_d77f_c4db, 0x613a_5320_9598_ff51]),
        ("EFANNA", [0xca44_a008_2053_ffad, 0x4c19_6902_9f19_686d, 0xfd37_f814_5eb2_a959]),
        ("HCNNG", [0x037f_6b72_0928_3f63, 0xe10e_b561_e37b_6c11, 0x4118_00bf_8819_e9e5]),
        ("KGraph", [0xf382_c75c_f2e0_33c4, 0xa7bf_7b47_87a9_4143, 0x85e8_5c0d_bcaf_549f]),
        ("NGT", [0xf34c_d4e9_58cf_d089, 0x1ff2_2d3a_07f5_0869, 0x89cd_345d_4f87_d5bd]),
        ("SPTAG-KDT", [0x16e8_14ce_3fea_30a3, 0x6c62_a279_5b63_b464, 0x5b0c_ea3c_052d_9340]),
        ("SPTAG-BKT", [0x440e_612b_2e91_a56d, 0x63b7_b3cc_35ac_d962, 0xaad5_55bb_2576_cafe]),
        ("ELPIS", [0xcf80_598a_7c36_6883, 0x2037_8a1a_178c_46f3, 0x4363_9932_ca18_ddf8]),
        ("LSHAPG", [0x62c9_412b_4ba6_4fea, 0xe19a_c610_38a4_0fbb, 0x822d_78b8_493f_b167]),
        ("NSW", [0xd3da_2fa2_2649_4b62, 0x34f4_b616_5eb2_33a9, 0xad21_3b80_57f1_c1e1]),
        ("II+RND", [0x56c1_d607_7a62_7ddb, 0x95b3_2547_8cd4_30a8, 0xb02a_f6f6_9139_fcf3]),
        ("IEH", [0x2956_d1b5_ec61_47ce, 0xebc5_f673_62b1_5331, 0x4e0f_90da_0205_eab5]),
        ("HVS", [0xdc23_841e_bf70_6966, 0x9535_9045_8ce1_cfcd, 0x23a5_f4c7_b5e7_a53a]),
    ];
    const ELPIS: [(usize, [u64; 2]); 3] = [
        (1, [0xe0f7_080e_185c_34d9, 0x920c_86e2_cc66_4719]),
        (4, [0x29b7_b48f_311e_c3cf, 0xe1a1_5e30_40b1_930c]),
        (8, [0x19fb_4cba_ce2c_5ce7, 0x6429_1bc1_924d_e4d2]),
    ];

    // One cell: the answers to `queries` under `params`, plus what a fresh
    // counter saw.
    let cell = |index: &dyn AnnIndex, queries: &VectorStore, params: &QueryParams| {
        let counter = DistCounter::new();
        let res: Vec<_> = (0..queries.len() as u32)
            .map(|q| index.search(queries.get(q), params, &counter))
            .collect();
        let mut h = Fnv::new();
        answers_hash_without_evaluated(&mut h, &res);
        counter_words(&mut h, &counter);
        h.0
    };

    // The HNSW grid.
    let base = gass::data::synth::deep_like(3000, 1);
    let queries = gass::data::synth::deep_like(20, 2);
    let mut index = HnswIndex::build(
        base.clone(),
        HnswParams { m: 16, ef_construction: 128, seed: 7, threads: 1 },
    );
    let params = |l: usize, rerank: usize| {
        QueryParams::new(10, l).with_rerank_factor(rerank).with_term(TerminationPolicy::Fixed)
    };
    let mut hnsw = Vec::new();
    hnsw.extend([16, 140].map(|l| cell(&index, &queries, &params(l, 4))));
    index.quantize(CodecSpec::Sq8);
    hnsw.extend([16, 140].map(|l| cell(&index, &queries, &params(l, 2))));
    index.quantize(CodecSpec::Pq { m: None });
    hnsw.push(cell(&index, &queries, &params(16, 14)));
    let mut served = PrebuiltIndex::new(
        base.clone(),
        index.base_graph().clone(),
        Box::new(RandomSeeds::per_query(base.len(), 99)),
        "HNSW",
    );
    served.freeze();
    served.quantize(CodecSpec::Sq8);
    let batch: Vec<&[f32]> = (0..8).map(|q| queries.get(q)).collect();
    hnsw.extend([16, 140].map(|l| {
        let counter = DistCounter::new();
        let mut h = Fnv::new();
        answers_hash_without_evaluated(
            &mut h,
            &served.search_coalesced(&batch, &params(l, 2), &counter),
        );
        counter_words(&mut h, &counter);
        h.0
    }));

    // The method grid.
    let base = gass::data::synth::deep_like(600, 21);
    let queries = gass::data::synth::deep_like(20, 22);
    let params = QueryParams::new(10, 40).with_seed_count(8);
    let stage = |index: &dyn AnnIndex, build_dists: u64| {
        let mut h = Fnv(cell(index, &queries, &params));
        index.name().bytes().for_each(|b| h.word(u32::from(b)));
        let s = index.stats();
        let words = [s.nodes, s.edges, s.max_degree, s.graph_bytes, s.aux_bytes]
            .map(|w| w as u64)
            .into_iter()
            .chain([s.avg_degree.to_bits(), build_dists]);
        for w in words {
            h.word(w as u32);
            h.word((w >> 32) as u32);
        }
        h.0
    };
    let mut methods = Vec::new();
    for (mut index, build_dists) in every_method(&base) {
        let as_built = stage(index.as_ref(), build_dists);
        index.freeze();
        index.quantize(CodecSpec::Sq8);
        let sq8 = stage(index.as_ref(), build_dists);
        index.reorder(ReorderStrategy::Rcm);
        let rcm = stage(index.as_ref(), build_dists);
        methods.push((index.name(), [as_built, sq8, rcm]));
    }
    let methods: Vec<(&str, [u64; 3])> =
        methods.iter().map(|(name, h)| (name.as_str(), *h)).collect();

    // The ELPIS grid.
    let base = gass::data::synth::deep_like(2400, 41);
    let queries = gass::data::synth::deep_like(20, 42);
    let params = QueryParams::new(10, 32);
    let elpis = [1, 4, 8].map(|nprobe| {
        let mut index = gass::graphs::elpis::build(
            base.clone(),
            ElpisParams { nprobe, ..ElpisParams::small() },
        );
        let f32 = cell(&index, &queries, &params);
        index.freeze();
        index.quantize(CodecSpec::Sq8);
        index.reorder(ReorderStrategy::Rcm);
        (nprobe, [f32, cell(&index, &queries, &params)])
    });

    assert_eq!(hnsw, HNSW, "an HNSW answer, its hops or its counter split changed");
    assert_eq!(methods, METHODS, "a method's answers, counters, stats or build cost changed");
    assert_eq!(elpis, ELPIS, "an ELPIS answer, its hops or its counter split changed");
}
