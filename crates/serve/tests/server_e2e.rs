//! End-to-end server tests over real sockets: a server on an ephemeral
//! port, clients speaking the actual wire protocol, and the control paths
//! (overload shedding, deadlines, bad requests, orderly shutdown) that
//! the CLI smoke test doesn't reach.

use gass_core::distance::DistCounter;
use gass_core::index::{AnnIndex, QueryParams};
use gass_graphs::{HnswIndex, HnswParams};
use gass_serve::{serve, Client, QueryRequest, Response, ServeConfig, Status};
use std::sync::Arc;

const N: usize = 2_000;
const DIM: usize = 12;
const K: usize = 5;

fn build_index() -> Arc<HnswIndex> {
    let base = gass_data::synth::manifold_mixture(N, DIM, 8, 16, 0.5, 0.1, 42);
    let mut idx =
        HnswIndex::build(base, HnswParams { m: 8, ef_construction: 64, seed: 42, threads: 2 });
    idx.freeze();
    idx.align_store();
    Arc::new(idx)
}

fn start(cfg: ServeConfig) -> (Arc<HnswIndex>, gass_serve::ServerHandle) {
    let index = build_index();
    let handle = serve(index.clone(), cfg).expect("bind ephemeral port");
    (index, handle)
}

#[test]
fn served_answers_match_direct_search_bit_for_bit() {
    let (index, handle) = start(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();

    let queries = gass_data::synth::manifold_mixture(8, DIM, 8, 16, 0.5, 0.1, 43);
    let params = QueryParams::new(K, 32);
    let counter = DistCounter::new();
    for qi in 0..queries.len() as u32 {
        let q = queries.get(qi);
        let expected = index.search(q, &params, &counter);
        match client.query_simple(q, K, 32).unwrap() {
            Response::Neighbors(got) => {
                assert_eq!(got.len(), expected.neighbors.len());
                for ((gid, gdist), en) in got.iter().zip(&expected.neighbors) {
                    assert_eq!(*gid, en.id);
                    assert_eq!(gdist.to_bits(), en.dist.to_bits());
                }
            }
            other => panic!("expected neighbors, got {other:?}"),
        }
    }

    let stats = handle.stats();
    assert_eq!(stats.completed, queries.len() as u64);
    assert_eq!(stats.overloaded, 0);
    assert!(stats.lat_count > 0);

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let (index, handle) =
        start(ServeConfig { max_batch: 8, max_wait_us: 500, ..Default::default() });
    let addr = handle.addr();
    let queries = Arc::new(gass_data::synth::manifold_mixture(64, DIM, 8, 16, 0.5, 0.1, 44));
    let params = QueryParams::new(K, 32);

    let mut joins = Vec::new();
    for t in 0..8u32 {
        let index = index.clone();
        let queries = Arc::clone(&queries);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let counter = DistCounter::new();
            for qi in (t * 8)..(t * 8 + 8) {
                let q = queries.get(qi);
                let expected = index.search(q, &params, &counter);
                match client.query_simple(q, K, 32).unwrap() {
                    Response::Neighbors(got) => {
                        let want: Vec<(u32, u32)> = expected
                            .neighbors
                            .iter()
                            .map(|n| (n.id, n.dist.to_bits()))
                            .collect();
                        let got: Vec<(u32, u32)> =
                            got.iter().map(|(id, d)| (*id, d.to_bits())).collect();
                        assert_eq!(got, want, "query {qi}");
                    }
                    other => panic!("expected neighbors, got {other:?}"),
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    let stats = handle.stats();
    assert_eq!(stats.completed, 64);
    assert_eq!(stats.admitted, 64);
    handle.shutdown();
    handle.join();
}

#[test]
fn admission_control_fast_rejects_beyond_queue_depth() {
    // No workers draining fast enough to matter: one worker, a deep
    // backlog of slow queries, and a queue depth of 2.
    let (_index, handle) = start(ServeConfig {
        workers: 1,
        max_batch: 1,
        max_wait_us: 0,
        queue_depth: 2,
        ..Default::default()
    });
    let addr = handle.addr();

    // Saturate: 16 concurrent single-query clients against depth 2.
    let mut joins = Vec::new();
    for t in 0..16u64 {
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let q = vec![0.01 * t as f32; DIM];
            match client.query(QueryRequest {
                k: K,
                beam_width: 256,
                seed_count: 48,
                rerank_factor: 4,
                deadline_us: 0,
                query: q,
            }) {
                Ok(Response::Neighbors(_)) => "ok",
                Ok(Response::Rejected { status: Status::Overloaded, .. }) => "shed",
                other => panic!("unexpected response {other:?}"),
            }
        }));
    }
    let outcomes: Vec<&str> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let ok = outcomes.iter().filter(|o| **o == "ok").count();
    assert!(ok >= 1, "someone must be admitted: {outcomes:?}");
    // The shed path is timing-dependent; what matters is that every
    // request got a definite answer (no hangs, no errors) and the stats
    // agree with the outcomes.
    let stats = handle.stats();
    let shed = outcomes.iter().filter(|o| **o == "shed").count();
    assert_eq!(stats.completed, ok as u64);
    assert_eq!(stats.overloaded, shed as u64);
    handle.shutdown();
    handle.join();
}

#[test]
fn expired_deadlines_are_answered_without_searching() {
    let (_index, handle) =
        start(ServeConfig { workers: 1, max_batch: 4, max_wait_us: 0, ..Default::default() });
    let addr = handle.addr();
    // A 1µs deadline cannot survive queueing; the worker must answer
    // DeadlineExceeded without running the search.
    let mut client = Client::connect(addr).unwrap();
    let mut saw_expired = false;
    for _ in 0..32 {
        match client
            .query(QueryRequest {
                k: K,
                beam_width: 64,
                seed_count: 16,
                rerank_factor: 4,
                deadline_us: 1,
                query: vec![0.5; DIM],
            })
            .unwrap()
        {
            Response::Rejected { status: Status::DeadlineExceeded, .. } => saw_expired = true,
            Response::Neighbors(_) => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(saw_expired, "a 1µs deadline should expire in queue at least once");
    assert!(handle.stats().expired > 0);
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_queries_are_rejected_not_fatal() {
    let (_index, handle) = start(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();

    // Wrong dimensionality.
    match client.query_simple(&[1.0, 2.0], K, 32).unwrap() {
        Response::Rejected { status: Status::BadRequest, detail } => {
            assert!(detail.contains("dim"), "detail: {detail}");
        }
        other => panic!("expected bad-request, got {other:?}"),
    }
    // k = 0.
    match client
        .query(QueryRequest {
            k: 0,
            beam_width: 8,
            seed_count: 4,
            rerank_factor: 1,
            deadline_us: 0,
            query: vec![0.0; DIM],
        })
        .unwrap()
    {
        Response::Rejected { status: Status::BadRequest, .. } => {}
        other => panic!("expected bad-request, got {other:?}"),
    }
    // A non-finite component, wherever it sits.
    for (at, bad) in [(0, f32::NAN), (DIM / 2, f32::INFINITY), (DIM - 1, f32::NEG_INFINITY)] {
        let mut query = [0.1f32; DIM];
        query[at] = bad;
        match client.query_simple(&query, K, 32).unwrap() {
            Response::Rejected { status: Status::BadRequest, detail } => {
                assert!(detail.contains("non-finite"), "detail: {detail}");
            }
            other => panic!("expected bad-request for {bad} at {at}, got {other:?}"),
        }
    }
    // The connection survives; a well-formed query still works.
    match client.query_simple(&[0.1; DIM], K, 32).unwrap() {
        Response::Neighbors(ns) => assert_eq!(ns.len(), K),
        other => panic!("expected neighbors, got {other:?}"),
    }
    assert_eq!(handle.stats().bad_requests, 5);
    handle.shutdown();
    handle.join();
}

#[test]
fn hostile_beam_width_and_rerank_factor_get_a_reply() {
    // The widest values the wire can carry, on a quantized index so the
    // rerank pool is sized from them too. The search can hold at most the
    // graph's N candidates, so the reply is the exhaustive one.
    let base = gass_data::synth::manifold_mixture(N, DIM, 8, 16, 0.5, 0.1, 42);
    let mut idx =
        HnswIndex::build(base, HnswParams { m: 8, ef_construction: 64, seed: 42, threads: 2 });
    idx.quantize(gass_core::CodecSpec::Sq8);
    let index = Arc::new(idx);
    let handle = serve(index.clone(), ServeConfig::default()).expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr()).unwrap();
    let query = vec![0.1f32; DIM];
    let huge = u32::MAX as usize;
    let counter = DistCounter::new();
    let hostile = QueryParams::new(K, huge).with_seed_count(4).with_rerank_factor(huge);
    for _ in 0..2 {
        let reply = client
            .query(QueryRequest {
                k: K,
                beam_width: huge,
                seed_count: 4,
                rerank_factor: huge,
                deadline_us: 0,
                query: query.clone(),
            })
            .unwrap();
        let want = index.search(&query, &hostile, &counter).neighbors;
        match reply {
            Response::Neighbors(got) => {
                let got: Vec<(u32, u32)> =
                    got.iter().map(|(id, d)| (*id, d.to_bits())).collect();
                let want: Vec<(u32, u32)> =
                    want.iter().map(|n| (n.id, n.dist.to_bits())).collect();
                assert_eq!(got, want);
                assert_eq!(got.len(), K);
            }
            other => panic!("expected neighbors, got {other:?}"),
        }
    }
    // The server is still serving ordinary queries.
    match client.query_simple(&query, K, 32).unwrap() {
        Response::Neighbors(ns) => assert_eq!(ns.len(), K),
        other => panic!("expected neighbors, got {other:?}"),
    }
    assert_eq!(handle.stats().completed, 3);
    handle.shutdown();
    handle.join();
}

#[test]
fn stats_endpoint_serves_well_formed_json() {
    let (_index, handle) = start(ServeConfig::default());
    let mut client = Client::connect(handle.addr()).unwrap();
    for _ in 0..3 {
        client.query_simple(&[0.2; DIM], K, 32).unwrap();
    }
    let json = client.stats().unwrap();
    for field in [
        "\"qps\":",
        "\"completed\":3",
        "\"overloaded\":0",
        "\"batch_size_counts\":",
        "\"latency_us\":",
        "\"p99\":",
        "\"queue_depth\":",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
    assert!(json.starts_with('{') && json.ends_with('}'));
    handle.shutdown();
    handle.join();
}

#[test]
fn wire_shutdown_drains_and_exits() {
    let (_index, handle) = start(ServeConfig::default());
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.query_simple(&[0.3; DIM], K, 32).unwrap();
    client.shutdown().unwrap();
    assert!(handle.is_shutting_down());
    // New queries on a fresh connection are refused while draining (the
    // acceptor may also already be gone — both are acceptable).
    if let Ok(mut late) = Client::connect(addr) {
        match late.query_simple(&[0.3; DIM], K, 32) {
            Ok(Response::Rejected { status: Status::ShuttingDown, .. }) | Err(_) => {}
            Ok(other) => panic!("draining server answered a new query: {other:?}"),
        }
    }
    handle.join();
}
