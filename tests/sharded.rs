//! Integration tests for the sharded serving structure: the IVF-on-top-
//! of-graphs observational contract (`nprobe = shards` is exactly the
//! merged union of all per-shard searches), byte-stable persist
//! round-trips, and heap/mapped observational equivalence at the index
//! level.

use gass_core::fanout::{set_fanout_enabled, set_fanout_workers};
use gass_core::mmap::set_mmap_enabled;
use gass_core::quant::CodecSpec;
use gass_core::sharded::{build_knn_sharded, ShardedIndex, ShardedParams};
use gass_core::{
    AnnIndex, BoundedMaxHeap, DistCounter, Neighbor, QueryParams, TerminationPolicy,
    VectorStore,
};
use proptest::prelude::*;

fn store_of(points: &[Vec<f32>]) -> VectorStore {
    let mut s = VectorStore::new(points[0].len());
    for p in points {
        s.push(p);
    }
    s
}

fn key(ns: &[Neighbor]) -> Vec<(u32, u32)> {
    ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract, property-tested: with `nprobe = shards`,
    /// routing adds nothing — the sharded answer is *observationally
    /// identical* (ids and bit-exact distances) to brute-force merging
    /// every shard's own search through one bounded heap.
    #[test]
    fn full_probe_is_exactly_the_merged_union_of_per_shard_searches(
        points in prop::collection::vec(
            prop::collection::vec(-8.0f32..8.0, 6..=6), 24..=96),
        shards in 2usize..5,
        k in 1usize..8,
        query in prop::collection::vec(-8.0f32..8.0, 6..=6),
    ) {
        let store = store_of(&points);
        let counter = DistCounter::new();
        let idx = build_knn_sharded(&store, &ShardedParams::new(shards), 8, &counter);
        idx.set_nprobe(idx.num_shards());
        let params = QueryParams::new(k, 24).with_term(TerminationPolicy::Fixed);
        let got = idx.search(&query, &params, &counter);

        let mut heap = BoundedMaxHeap::new(k);
        for s in 0..idx.num_shards() {
            let res = idx.shard(s).search(&query, &params, &counter);
            for n in res.neighbors {
                heap.push(Neighbor::new(idx.shard_ids(s)[n.id as usize], n.dist));
            }
        }
        prop_assert_eq!(key(&got.neighbors), key(&heap.into_sorted()));
    }

    /// The fan-out determinism contract: at every worker count (1 = the
    /// degenerate pool, 2, 8 = more executors than probes) and every
    /// nprobe from 1 to shards — including the `nprobe = shards`
    /// brute-force-merge invariant the first property pins down — the
    /// fanned-out search returns the same neighbors, the same distance
    /// bits, and the same DistCounter totals (full-precision and
    /// quantized lanes separately) as the sequential probe loop.
    #[test]
    fn fanout_is_bit_identical_to_sequential_at_any_worker_count(
        points in prop::collection::vec(
            prop::collection::vec(-8.0f32..8.0, 6..=6), 24..=80),
        shards in 2usize..5,
        k in 1usize..8,
        query in prop::collection::vec(-8.0f32..8.0, 6..=6),
    ) {
        let store = store_of(&points);
        let counter = DistCounter::new();
        let idx = build_knn_sharded(&store, &ShardedParams::new(shards), 8, &counter);
        let params = QueryParams::new(k, 24);
        for nprobe in 1..=idx.num_shards() {
            idx.set_nprobe(nprobe);
            set_fanout_enabled(false);
            let c_seq = DistCounter::new();
            let seq = idx.search(&query, &params, &c_seq);
            for workers in [1usize, 2, 8] {
                set_fanout_enabled(true);
                set_fanout_workers(workers);
                let c_fan = DistCounter::new();
                let fan = idx.search(&query, &params, &c_fan);
                set_fanout_workers(1);
                prop_assert_eq!(
                    key(&seq.neighbors), key(&fan.neighbors),
                    "answers diverged at nprobe={} workers={}", nprobe, workers
                );
                prop_assert_eq!(
                    (c_seq.get_f32(), c_seq.get_u8()),
                    (c_fan.get_f32(), c_fan.get_u8()),
                    "distance accounting diverged at nprobe={} workers={}", nprobe, workers
                );
            }
        }
        set_fanout_enabled(true);
    }

    /// Recall is monotone in the probed set: every neighbor the
    /// `nprobe = 1` search returns within the full-probe answer's k-th
    /// distance is also in the full-probe answer (a candidate can only be
    /// displaced by strictly closer candidates).
    #[test]
    fn wider_probes_never_lose_closer_neighbors(
        points in prop::collection::vec(
            prop::collection::vec(-8.0f32..8.0, 5..=5), 30..=80),
        query in prop::collection::vec(-8.0f32..8.0, 5..=5),
    ) {
        let store = store_of(&points);
        let counter = DistCounter::new();
        let idx = build_knn_sharded(&store, &ShardedParams::new(3), 8, &counter);
        let params = QueryParams::new(5, 20);
        idx.set_nprobe(1);
        let narrow = idx.search(&query, &params, &counter);
        idx.set_nprobe(idx.num_shards());
        let full = idx.search(&query, &params, &counter);
        let bound = full.neighbors.last().map_or(f32::INFINITY, |n| n.dist);
        let full_ids: Vec<u32> = full.neighbors.iter().map(|n| n.id).collect();
        for n in narrow.neighbors.iter().filter(|n| n.dist < bound) {
            prop_assert!(
                full_ids.contains(&n.id),
                "id {} (dist {}) vanished when probing every shard", n.id, n.dist
            );
        }
    }
}

/// The sharded state round-trips byte-stably through persist, and the
/// reloaded index keeps the full-probe observational contract.
#[test]
fn sharded_persist_roundtrip_is_byte_stable_and_observationally_equal() {
    let store = gass_data::synth::deep_like(400, 17);
    let counter = DistCounter::new();
    let idx = build_knn_sharded(&store, &ShardedParams::new(4), 10, &counter);
    idx.set_nprobe(idx.num_shards());

    let dir = std::env::temp_dir().join("gass_root_sharded_rt");
    let dir2 = std::env::temp_dir().join("gass_root_sharded_rt2");
    idx.save(&dir).unwrap();
    let back = ShardedIndex::load(&dir).unwrap();
    back.save(&dir2).unwrap();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let name = entry.unwrap().file_name();
        let a = std::fs::read(dir.join(&name)).unwrap();
        let b = std::fs::read(dir2.join(&name)).unwrap();
        assert_eq!(a, b, "{name:?} differs after a save/load/save cycle");
    }

    // Same shard geometry, same routing table, same full-probe merges.
    assert_eq!(back.num_shards(), idx.num_shards());
    assert_eq!(back.num_vectors(), idx.num_vectors());
    back.set_nprobe(back.num_shards());
    let params = QueryParams::new(5, 32).with_term(TerminationPolicy::Fixed);
    let queries = gass_data::synth::deep_like(10, 91);
    for qi in 0..queries.len() as u32 {
        let q = queries.get(qi);
        let mut heap = BoundedMaxHeap::new(params.k);
        for s in 0..back.num_shards() {
            let res = back.shard(s).search(q, &params, &counter);
            for n in res.neighbors {
                heap.push(Neighbor::new(back.shard_ids(s)[n.id as usize], n.dist));
            }
        }
        let got = back.search(q, &params, &counter);
        assert_eq!(key(&got.neighbors), key(&heap.into_sorted()), "query {qi}");
    }
}

/// The fan-out contract holds through the full serving ladder and the
/// coalesced batch engine: frozen + quantized shards, searched through
/// `search_coalesced`, answer bit-identically with the probe fan-out on
/// (8 executors) and off.
#[test]
fn fanout_coalesced_ladder_matches_sequential() {
    let store = gass_data::synth::deep_like(300, 29);
    let counter = DistCounter::new();
    let mut idx = build_knn_sharded(&store, &ShardedParams::new(4).with_nprobe(2), 8, &counter);
    idx.freeze();
    idx.quantize(CodecSpec::Sq8);
    let queries = gass_data::synth::deep_like(9, 55);
    let params = QueryParams::new(5, 32);
    let qs: Vec<&[f32]> = (0..queries.len() as u32).map(|i| queries.get(i)).collect();
    set_fanout_enabled(false);
    let seq = idx.search_coalesced(&qs, &params, &counter);
    set_fanout_enabled(true);
    set_fanout_workers(8);
    let fan = idx.search_coalesced(&qs, &params, &counter);
    set_fanout_workers(1);
    for (qi, (a, b)) in seq.iter().zip(&fan).enumerate() {
        assert_eq!(key(&a.neighbors), key(&b.neighbors), "query {qi}");
    }
}

/// Mapped and heap-parsed shard stores serve bit-identical answers — the
/// observational-equivalence guarantee of the mmap tier, exercised at the
/// whole-index level across the quantization ladder.
#[test]
fn mapped_and_heap_backed_shards_serve_identically() {
    let store = gass_data::synth::deep_like(300, 23);
    let counter = DistCounter::new();
    let dir = std::env::temp_dir().join("gass_root_sharded_mmap_eq");
    build_knn_sharded(&store, &ShardedParams::new(3), 8, &counter).save(&dir).unwrap();

    let queries = gass_data::synth::deep_like(8, 77);
    let params = QueryParams::new(5, 32);
    let mut answers: Vec<Vec<Vec<(u32, u32)>>> = Vec::new();
    for mapped in [true, false] {
        set_mmap_enabled(mapped);
        let mut idx = ShardedIndex::load(&dir).unwrap();
        idx.set_nprobe(2);
        idx.freeze();
        idx.quantize(CodecSpec::Sq8);
        let per_query: Vec<Vec<(u32, u32)>> = (0..queries.len() as u32)
            .map(|qi| key(&idx.search(queries.get(qi), &params, &counter).neighbors))
            .collect();
        answers.push(per_query);
    }
    set_mmap_enabled(true);
    assert_eq!(answers[0], answers[1], "mapped and heap-backed serving disagree");
}
