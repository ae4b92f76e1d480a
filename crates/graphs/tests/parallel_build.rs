//! Cross-method correctness of the parallel construction paths.
//!
//! Two guarantees are asserted:
//! 1. `threads = 1` **is** the sequential algorithm — the serial-defaulted
//!    methods (HNSW for II, KGraph/NN-Descent for NP) produce identical
//!    edges whether built before or after this change (checked as
//!    build-vs-build determinism plus the bit-identity test inside
//!    `nndescent`).
//! 2. `threads = 4` builds reach the same recall@10 (within one point) as
//!    `threads = 1` builds on the same data, with plausible distance
//!    counts.

use gass_core::index::{AnnIndex, QueryParams};
use gass_core::store::VectorStore;
use gass_core::DistCounter;
use gass_data::ground_truth::ground_truth;
use gass_data::synth::deep_like;
use gass_graphs::{kgraph, vamana, HnswIndex, HnswParams, KGraphParams, VamanaParams};

const N: usize = 2_000;
const K: usize = 10;

fn recall_at_10(index: &dyn AnnIndex, base: &VectorStore, queries: &VectorStore) -> f64 {
    let gt = ground_truth(base, queries, K);
    let counter = DistCounter::new();
    let params = QueryParams::new(K, 64).with_seed_count(8);
    let mut hit = 0;
    for (qi, row) in gt.iter().enumerate() {
        let res = index.search(queries.get(qi as u32), &params, &counter);
        hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
    }
    hit as f64 / (K * gt.len()) as f64
}

fn edges_of(g: &dyn gass_core::graph::GraphView) -> Vec<Vec<u32>> {
    (0..g.num_nodes() as u32).map(|u| g.neighbors(u).to_vec()).collect()
}

#[test]
fn hnsw_parallel_recall_matches_serial() {
    let base = deep_like(N, 11);
    let queries = deep_like(40, 12);
    let serial = HnswIndex::build(base.clone(), HnswParams::small());
    let parallel =
        HnswIndex::build(base.clone(), HnswParams { threads: 4, ..HnswParams::small() });
    let rs = recall_at_10(&serial, &base, &queries);
    let rp = recall_at_10(&parallel, &base, &queries);
    assert!((rs - rp).abs() <= 0.01, "HNSW parallel recall {rp} drifted from serial {rs}");
    // Both builds explore the same data with the same beam width; the
    // batched build must not silently skip (or wildly inflate) work.
    let (ds, dp) =
        (serial.build_report().dist_calcs as f64, parallel.build_report().dist_calcs as f64);
    assert!(dp > ds * 0.3 && dp < ds * 3.0, "implausible dist counts: {ds} vs {dp}");
    assert!(parallel.stats().max_degree <= 24, "degree bound violated in parallel build");
}

#[test]
fn vamana_parallel_recall_matches_serial() {
    let base = deep_like(N, 21);
    let queries = deep_like(40, 22);
    let serial = vamana::build(base.clone(), VamanaParams::small());
    let parallel =
        vamana::build(base.clone(), VamanaParams { threads: 4, ..VamanaParams::small() });
    let rs = recall_at_10(&serial, &base, &queries);
    let rp = recall_at_10(&parallel, &base, &queries);
    assert!((rs - rp).abs() <= 0.01, "Vamana parallel recall {rp} drifted from serial {rs}");
    let (ds, dp) =
        (serial.build_report().dist_calcs as f64, parallel.build_report().dist_calcs as f64);
    assert!(dp > ds * 0.3 && dp < ds * 3.0, "implausible dist counts: {ds} vs {dp}");
    assert!(parallel.stats().max_degree <= 24, "degree bound violated in parallel build");
}

#[test]
fn kgraph_parallel_build_is_identical_to_serial() {
    // NN-Descent's parallel join is exactly serial-equivalent, so KGraph
    // asserts full edge identity (and identical distance counts), not just
    // recall parity.
    let base = deep_like(N, 31);
    let queries = deep_like(40, 32);
    let serial =
        kgraph::build(base.clone(), KGraphParams { threads: 1, ..KGraphParams::small() });
    let parallel =
        kgraph::build(base.clone(), KGraphParams { threads: 4, ..KGraphParams::small() });
    assert_eq!(
        edges_of(serial.graph()),
        edges_of(parallel.graph()),
        "KGraph parallel build must be bit-identical to serial"
    );
    assert_eq!(
        serial.build_report().dist_calcs,
        parallel.build_report().dist_calcs,
        "distance accounting must be exact at any thread count"
    );
    let rs = recall_at_10(&serial, &base, &queries);
    let rp = recall_at_10(&parallel, &base, &queries);
    assert!((rs - rp).abs() <= 1e-12, "identical graphs must give identical recall");
}

#[test]
fn hnsw_threads_one_is_deterministic_serial_path() {
    // threads=1 must run the pre-change sequential insertion: two builds
    // with identical params agree edge-for-edge.
    let base = deep_like(800, 41);
    let a = HnswIndex::build(base.clone(), HnswParams::small());
    let b = HnswIndex::build(base, HnswParams::small());
    assert_eq!(edges_of(a.base_graph()), edges_of(b.base_graph()));
    assert_eq!(a.build_report().dist_calcs, b.build_report().dist_calcs);
}

#[test]
fn kgraph_threads_one_is_deterministic_serial_path() {
    let base = deep_like(800, 51);
    let a = kgraph::build(base.clone(), KGraphParams { threads: 1, ..KGraphParams::small() });
    let b = kgraph::build(base, KGraphParams { threads: 1, ..KGraphParams::small() });
    assert_eq!(edges_of(a.graph()), edges_of(b.graph()));
    assert_eq!(a.build_report().dist_calcs, b.build_report().dist_calcs);
}
