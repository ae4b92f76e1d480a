//! Extension experiment: serving throughput under cross-request
//! micro-batching vs per-request execution, measured through the real
//! `gass-serve` server with a pipelined open-loop load generator.
//!
//! Two server configurations over the *same* index and the same worker
//! pool — batched (`max_batch = 16` with a 100 us coalescing window) and
//! per-request (`max_batch = 1`: every request is its own dispatch, its
//! own `execute_coalesced` call, and its own reply write+flush — no
//! cross-request coalescing anywhere; a batch's jobs run back to back
//! through the same sequential search) — are each swept over offered
//! arrival rates. A rate is *sustained* when the achieved throughput tracks the
//! offered rate, nothing is shed, and client-observed p99 stays under the
//! bound (10 ms). The acceptance shape: batched serving sustains ≥ 1.5×
//! the per-request max on the 100K tier, at identical recall@10 —
//! batching is observationally invisible, so both configurations answer
//! every query bit-identically and recall *must* match.
//!
//! A final run pushes the batched server far past saturation to show the
//! admission-control failure mode: excess load is shed with fast
//! `overloaded` rejections while the latency of *admitted* requests stays
//! bounded by the queue depth, instead of every request's latency growing
//! without bound.
//!
//! ## Load generator
//!
//! Open-loop means arrivals are scheduled on a wall clock, independent of
//! responses. Each connection is a sender/receiver thread pair: the
//! sender fires requests at their scheduled instants *without waiting for
//! replies* (the protocol pipelines; the server answers in request
//! order), and the receiver matches responses positionally, measuring
//! latency from the **scheduled** arrival — a slow server is charged for
//! the queueing it causes (no coordinated omission), and in-flight work
//! is bounded by the server's admission control, not by the number of
//! connections. Saturation is probed by overdriving (offering far more
//! than the server can serve and reading off the achieved rate), then the
//! sweep ladder brackets and bisects the max sustainable rate.
//!
//! ```sh
//! cargo run --release -p gass-bench --bin ext_serve
//! ```
//!
//! `GASS_SCALE` scales the dataset, `GASS_QUERIES` the recall probe.
//! Output: `results/ext_serve.json`.

use gass_bench::{num_queries, results_dir, scale};
use gass_core::index::AnnIndex;
use gass_core::stats::Histogram;
use gass_eval::{recall_at_k, write_json, Table};
use gass_graphs::{HnswIndex, HnswParams};
use gass_serve::protocol::{decode_response, encode_request, queue_frame, read_frame};
use gass_serve::{serve, Client, QueryRequest, Request, Response, ServeConfig, ServerHandle};
use serde::Serialize;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const K: usize = 10;
/// Client connections. Few but pipelined: on the 1-core testbench every
/// load-generator thread competes with the server for the same core, and
/// per-connection reply coalescing scales with `max_batch / CONNS`.
const CONNS: usize = 2;
/// Sender pacing granularity: sleep past the next due arrival by up to
/// this much, then burst-send everything that has come due. Requests only
/// ever go out *late* (never early) and latency is measured from the
/// scheduled instant, so quantization charges the measurement — while
/// cutting sender sleep/wake syscalls from one per request to at most
/// `1/quantum` per second, which matters when the generator shares the
/// core with the server.
const PACE_QUANTUM: Duration = Duration::from_micros(1000);
/// The acceptance latency bound.
const P99_BOUND_US: u64 = 10_000;
/// Measurement window per swept rate.
const WINDOW_S: f64 = 4.0;
/// Overdriven offered rate for the saturation probe: far enough past
/// capacity to saturate the queue, but not so far that the readers spend
/// the core stamping `overloaded` rejections and bias the anchor low.
const PROBE_RATE: f64 = 16_000.0;

#[derive(Serialize)]
struct RatePoint {
    offered_qps: f64,
    achieved_qps: f64,
    sent: u64,
    completed: u64,
    shed: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    mean_batch: f64,
    sustained: bool,
    attempts: u32,
}

#[derive(Serialize)]
struct ConfigRecord {
    config: &'static str,
    max_batch: usize,
    max_wait_us: u64,
    recall_at_10: f64,
    saturation_probe_qps: f64,
    sweep: Vec<RatePoint>,
    max_sustainable_qps: f64,
}

#[derive(Serialize)]
struct OverloadRecord {
    offered_qps: f64,
    sent: u64,
    completed: u64,
    shed: u64,
    shed_fraction: f64,
    admitted_p50_us: u64,
    admitted_p99_us: u64,
    admitted_p99_bounded: bool,
}

#[derive(Serialize)]
struct Record {
    experiment: &'static str,
    n: usize,
    dim: usize,
    k: usize,
    beam_width: usize,
    rerank_factor: usize,
    quant: &'static str,
    workers: usize,
    queue_depth: usize,
    connections: usize,
    host_cores: usize,
    p99_bound_us: u64,
    window_s: f64,
    recall_identical: bool,
    speedup_sustainable_qps: f64,
    notes: &'static str,
    batched: ConfigRecord,
    per_request: ConfigRecord,
    overload: OverloadRecord,
}

/// Context for readers of the JSON: what the measured speedup does and
/// does not mean on this host.
const NOTES: &str = "Server, load generator, and OS share host_cores CPU core(s); \
    on a 1-core host both configurations are search-dominated (~50 us/query of the \
    ~66-75 us/query capacity budget), loopback syscalls are cheap, and p99 at the \
    sustained points is set largely by host scheduler noise, so run-to-run variance \
    of the sustained ratio is substantial. The batched advantage is per-wakeup \
    amortization (one queue drain and one reply flush per batch); a batch's searches \
    run back to back, since interleaving them in lockstep measured slower than \
    sequential search (DESIGN.md section 12).";

fn query_request(query: &[f32], beam: usize, rerank: usize) -> QueryRequest {
    QueryRequest {
        k: K,
        beam_width: beam,
        seed_count: 16,
        rerank_factor: rerank,
        deadline_us: 0,
        query: query.to_vec(),
    }
}

/// Pre-encoded query frames, so the hot sender loop does no encoding.
fn encode_frames(queries: &gass_core::VectorStore, beam: usize, rerank: usize) -> Vec<Vec<u8>> {
    (0..queries.len() as u32)
        .map(|qi| encode_request(&Request::Query(query_request(queries.get(qi), beam, rerank))))
        .collect()
}

/// One open-loop run at `rate` requests/s for `duration`, spread over
/// `CONNS` pipelined connections. Returns the merged client-side view
/// plus the server's batch accounting over the window.
fn open_loop(
    addr: SocketAddr,
    handle: &ServerHandle,
    frames: &Arc<Vec<Vec<u8>>>,
    rate: f64,
    duration: Duration,
) -> RatePoint {
    let before = handle.stats();
    // Connect (and let the server spawn its handler pairs) before the
    // clock starts.
    let streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_nodelay(true).expect("nodelay");
            s
        })
        .collect();
    let total = (rate * duration.as_secs_f64()).ceil() as u64;
    let start = Instant::now() + Duration::from_millis(50);
    let shed = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(Mutex::new(Histogram::new()));
    let mut joins = Vec::new();
    for (c, stream) in streams.into_iter().enumerate() {
        let frames = Arc::clone(frames);
        let shed = Arc::clone(&shed);
        let hist = Arc::clone(&hist);
        joins.push(std::thread::spawn(move || {
            // Connection c owns arrivals c, c+CONNS, c+2·CONNS, …
            let my_total = total.saturating_sub(c as u64).div_ceil(CONNS as u64);
            // Scheduled instants of in-flight requests, pushed before the
            // send; responses arrive in request order, so the receiver
            // pops positionally.
            let pending: Arc<Mutex<VecDeque<Instant>>> = Arc::new(Mutex::new(VecDeque::new()));
            let reader_stream = stream.try_clone().expect("clone stream");
            let receiver = {
                let pending = Arc::clone(&pending);
                let shed = Arc::clone(&shed);
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    let mut r = BufReader::new(reader_stream);
                    let mut local = Histogram::new();
                    let mut local_shed = 0u64;
                    for _ in 0..my_total {
                        let payload =
                            read_frame(&mut r).expect("read response").expect("server closed");
                        let at = pending.lock().unwrap().pop_front().expect("pending arrival");
                        // Hot path peeks the status byte instead of fully
                        // decoding the neighbor list — the receiver shares
                        // the core with the server, so per-response parse
                        // cost is measurement interference.
                        match payload.first() {
                            Some(0) => {
                                debug_assert_eq!(payload.get(1), Some(&b'q'));
                                // Latency from the *scheduled* arrival:
                                // queueing caused by a slow server (or a
                                // late sender) is charged, not omitted.
                                local.record(at.elapsed().as_micros() as u64);
                            }
                            Some(1) => local_shed += 1,
                            _ => panic!("unexpected response: {:?}", decode_response(&payload)),
                        }
                    }
                    shed.fetch_add(local_shed, Ordering::Relaxed);
                    hist.lock().unwrap().merge(&local);
                })
            };
            let mut w = BufWriter::new(stream);
            let at_of = |j: u64| {
                let i = c as u64 + j * CONNS as u64;
                start + Duration::from_secs_f64(i as f64 / rate)
            };
            let mut j = 0u64;
            while j < my_total {
                let at = at_of(j);
                let now = Instant::now();
                if at > now {
                    // Nothing due yet: oversleep the next arrival by the
                    // pacing quantum so one wakeup covers a quantum's
                    // worth of arrivals.
                    std::thread::sleep(at - now + PACE_QUANTUM);
                }
                // Burst-send everything that has come due; the frames
                // coalesce in the buffered writer and flush together.
                let now = Instant::now();
                while j < my_total && at_of(j) <= now {
                    pending.lock().unwrap().push_back(at_of(j));
                    let i = c as u64 + j * CONNS as u64;
                    let frame = &frames[(i % frames.len() as u64) as usize];
                    queue_frame(&mut w, frame).expect("send");
                    j += 1;
                }
                w.flush().expect("flush");
            }
            receiver.join().unwrap();
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // Includes the drain tail past the send window: overdriven rates are
    // charged for the backlog they leave behind.
    let elapsed = start.elapsed().as_secs_f64();
    let after = handle.stats();
    let hist = hist.lock().unwrap();
    let completed = hist.count();
    let batches = after.batches - before.batches;
    let batched_jobs = after.completed - before.completed;
    let shed = shed.load(Ordering::Relaxed);
    let p99 = hist.quantile(0.99);
    let achieved_qps = completed as f64 / elapsed;
    RatePoint {
        offered_qps: rate,
        achieved_qps,
        sent: total,
        completed,
        shed,
        p50_us: hist.quantile(0.50),
        p95_us: hist.quantile(0.95),
        p99_us: p99,
        mean_batch: batched_jobs as f64 / (batches.max(1)) as f64,
        // Sustained: tracked the offered rate, shed nothing, met the bound.
        sustained: shed == 0 && achieved_qps >= 0.95 * rate && p99 <= P99_BOUND_US,
        attempts: 1,
    }
}

/// Sequential recall probe over the wire (one connection, no load).
fn served_recall(
    addr: SocketAddr,
    queries: &gass_core::VectorStore,
    truth: &[Vec<gass_core::Neighbor>],
    beam: usize,
    rerank: usize,
) -> f64 {
    let mut client = Client::connect(addr).expect("connect");
    let mut recall = 0.0;
    for (qi, row) in truth.iter().enumerate() {
        match client.query(query_request(queries.get(qi as u32), beam, rerank)).unwrap() {
            Response::Neighbors(ns) => {
                let got: Vec<gass_core::Neighbor> =
                    ns.iter().map(|(id, d)| gass_core::Neighbor::new(*id, *d)).collect();
                recall += recall_at_k(row, &got, K);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    recall / truth.len() as f64
}

#[allow(clippy::too_many_arguments)]
fn run_config(
    label: &'static str,
    index: &Arc<gass_core::PrebuiltIndex>,
    cfg: ServeConfig,
    queries: &Arc<gass_core::VectorStore>,
    frames: &Arc<Vec<Vec<u8>>>,
    truth: &[Vec<gass_core::Neighbor>],
    beam: usize,
    rerank: usize,
    table: &mut Table,
) -> ConfigRecord {
    let handle = serve(Arc::clone(index) as Arc<dyn gass_core::AnnIndex>, cfg.clone())
        .expect("bind server");
    let addr = handle.addr();
    let recall = served_recall(addr, queries, truth, beam, rerank);
    // Saturation probe: overdrive far past capacity; the achieved rate
    // (admitted + served, shedding allowed) anchors the sweep ladder.
    let probe = open_loop(addr, &handle, frames, PROBE_RATE, Duration::from_secs_f64(1.25));
    let anchor = probe.achieved_qps;
    eprintln!("[{label}] recall@{K}={recall:.4}, saturation probe ≈ {anchor:.0} qps");

    let window = Duration::from_secs_f64(WINDOW_S);
    let mut sweep: Vec<RatePoint> = Vec::new();
    let mut max_sustained = 0.0f64;
    let mut min_failed = f64::INFINITY;
    let run_rate = |rate: f64,
                    sweep: &mut Vec<RatePoint>,
                    max_sustained: &mut f64,
                    min_failed: &mut f64,
                    table: &mut Table| {
        // Best of two attempts: a single short window on a host the load
        // generator shares with the server sees occasional multi-ms
        // scheduler stalls, so a rate only counts as unsustainable when
        // it fails twice. Applied identically to both configurations.
        let mut p = open_loop(addr, &handle, frames, rate, window);
        if !p.sustained {
            let retry = open_loop(addr, &handle, frames, rate, window);
            if retry.sustained || retry.p99_us < p.p99_us {
                p = retry;
            }
            p.attempts = 2;
        }
        table.row(vec![
            label.to_string(),
            format!("{:.0}", p.offered_qps),
            format!("{:.0}", p.achieved_qps),
            p.shed.to_string(),
            p.p50_us.to_string(),
            p.p99_us.to_string(),
            format!("{:.2}", p.mean_batch),
            if p.sustained { "yes" } else { "no" }.to_string(),
        ]);
        if p.sustained {
            *max_sustained = max_sustained.max(p.offered_qps);
        } else {
            *min_failed = min_failed.min(p.offered_qps);
        }
        sweep.push(p);
    };

    // Coarse ladder around the probe, extended upward until a rate fails
    // (the probe's reject traffic biases the anchor low, so the true max
    // often sits above it), then bisected to tighten the bracket.
    for frac in [0.7, 0.9, 1.05, 1.2] {
        run_rate(anchor * frac, &mut sweep, &mut max_sustained, &mut min_failed, table);
    }
    let mut extensions = 0;
    while min_failed.is_infinite() && max_sustained > 0.0 && extensions < 5 {
        run_rate(max_sustained * 1.12, &mut sweep, &mut max_sustained, &mut min_failed, table);
        extensions += 1;
    }
    for _ in 0..4 {
        if !min_failed.is_finite() || min_failed <= max_sustained * 1.08 {
            break;
        }
        let mid = 0.5 * (max_sustained + min_failed);
        run_rate(mid, &mut sweep, &mut max_sustained, &mut min_failed, table);
    }

    handle.shutdown();
    handle.join();
    ConfigRecord {
        config: label,
        max_batch: cfg.max_batch,
        max_wait_us: cfg.max_wait_us,
        recall_at_10: recall,
        saturation_probe_qps: anchor,
        sweep,
        max_sustainable_qps: max_sustained,
    }
}

fn main() {
    let n = 100_000 * scale();
    let host_cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    gass_core::set_simd_enabled(true);
    gass_core::set_prefetch_enabled(true);
    let (base, queries) = gass_data::DatasetKind::Deep.generate(n, num_queries().max(64), 333);
    let dim = base.dim();
    let truth = gass_data::ground_truth(&base, &queries, K);
    println!("Extension: micro-batched serving, Deep (n={n}, dim={dim}), k={K}\n");

    eprintln!("building HNSW ({host_cores} threads)...");
    let built = HnswIndex::build(
        base.clone(),
        HnswParams { m: 16, ef_construction: 128, seed: 333, threads: host_cores },
    );
    // Serve on the SQ8 rung (the serving configuration from the
    // compression-ladder work): traversal on codes with exact rerank
    // keeps recall while cutting per-query time, which is exactly the
    // regime where fixed per-request overhead — wakeups, locking,
    // scheduling — is worth amortizing across a batch.
    let mut prebuilt = gass_core::PrebuiltIndex::new(
        base,
        built.base_graph().clone(),
        Box::new(gass_core::RandomSeeds::per_query(n, 7)),
        "serve-bench",
    );
    prebuilt.align_store();
    prebuilt.freeze();
    prebuilt.quantize(gass_core::CodecSpec::Sq8);
    let index = Arc::new(prebuilt);

    // Smallest swept beam clearing recall 0.9 through the serving path.
    let rerank = 4;
    let counter = gass_core::DistCounter::new();
    let mut beam = 80;
    for l in [24usize, 32, 40, 56, 80, 128, 192] {
        let params =
            gass_core::QueryParams::new(K, l).with_seed_count(16).with_rerank_factor(rerank);
        let mut r = 0.0;
        for (qi, row) in truth.iter().enumerate() {
            let res = index.search(queries.get(qi as u32), &params, &counter);
            r += recall_at_k(row, &res.neighbors, K);
        }
        r /= truth.len() as f64;
        beam = l;
        if r >= 0.9 {
            eprintln!("operating point: L={l} (recall {r:.4})");
            break;
        }
        eprintln!("L={l}: recall {r:.4} < 0.9, widening");
    }

    let workers = host_cores;
    let queue_depth = 128;
    let queries = Arc::new(queries);
    let frames = Arc::new(encode_frames(&queries, beam, rerank));
    let base_cfg = ServeConfig { workers, queue_depth, ..ServeConfig::default() };
    // A 2 ms window trades a bounded latency floor (well under the 10 ms
    // acceptance bound) for coalescing *below* saturation: at, say,
    // 8K qps the window gathers ~16 requests, so the worker wakeup, the
    // reply write+flush, and the client's read — everything per-dispatch
    // — is paid once per ~16 queries instead of once per query. Backlog
    // alone only creates batches once the server is already behind.
    let batched_cfg = ServeConfig { max_batch: 16, max_wait_us: 100, ..base_cfg.clone() };
    let mut table = Table::new(vec![
        "config",
        "offered_qps",
        "achieved_qps",
        "shed",
        "p50_us",
        "p99_us",
        "mean_batch",
        "sustained",
    ]);

    let batched = run_config(
        "batched",
        &index,
        batched_cfg.clone(),
        &queries,
        &frames,
        &truth,
        beam,
        rerank,
        &mut table,
    );
    let per_request = run_config(
        "per-request",
        &index,
        ServeConfig { max_batch: 1, max_wait_us: 0, ..base_cfg },
        &queries,
        &frames,
        &truth,
        beam,
        rerank,
        &mut table,
    );

    // Overload: the batched server at 2× its sustainable rate. Admission
    // control must shed the excess while the p99 of *admitted* requests
    // stays bounded by the queue (depth × service), not by the offered
    // backlog.
    let handle = serve(Arc::clone(&index) as Arc<dyn gass_core::AnnIndex>, batched_cfg)
        .expect("bind server");
    let rate = (batched.max_sustainable_qps * 2.0).max(500.0);
    let p = open_loop(handle.addr(), &handle, &frames, rate, Duration::from_secs_f64(WINDOW_S));
    handle.shutdown();
    handle.join();
    let overload = OverloadRecord {
        offered_qps: p.offered_qps,
        sent: p.sent,
        completed: p.completed,
        shed: p.shed,
        shed_fraction: p.shed as f64 / p.sent.max(1) as f64,
        admitted_p50_us: p.p50_us,
        admitted_p99_us: p.p99_us,
        // "Bounded" = within 3× the sustainable-regime bound; without
        // admission control the backlog (and p99) grows with the offered
        // rate instead.
        admitted_p99_bounded: p.p99_us <= 3 * P99_BOUND_US,
    };
    table.row(vec![
        "overload(batched)".to_string(),
        format!("{:.0}", p.offered_qps),
        format!("{:.0}", p.achieved_qps),
        p.shed.to_string(),
        p.p50_us.to_string(),
        p.p99_us.to_string(),
        format!("{:.2}", p.mean_batch),
        "shedding".to_string(),
    ]);

    println!("{}", table.render());
    let speedup = batched.max_sustainable_qps / per_request.max_sustainable_qps.max(1.0);
    let recall_identical = (batched.recall_at_10 - per_request.recall_at_10).abs() < 1e-12;
    println!(
        "max sustainable (p99 ≤ {} ms): batched {:.0} qps, per-request {:.0} qps — {:.2}×",
        P99_BOUND_US / 1000,
        batched.max_sustainable_qps,
        per_request.max_sustainable_qps,
        speedup
    );
    println!(
        "overload at {:.0} qps: shed {:.1}%, admitted p99 {:.1} ms",
        overload.offered_qps,
        100.0 * overload.shed_fraction,
        overload.admitted_p99_us as f64 / 1000.0
    );

    let record = Record {
        experiment: "ext_serve",
        n,
        dim,
        k: K,
        beam_width: beam,
        rerank_factor: rerank,
        quant: "sq8",
        workers,
        queue_depth,
        connections: CONNS,
        host_cores,
        p99_bound_us: P99_BOUND_US,
        window_s: WINDOW_S,
        recall_identical,
        speedup_sustainable_qps: speedup,
        notes: NOTES,
        batched,
        per_request,
        overload,
    };
    let path = write_json(&results_dir(), "ext_serve", &record).expect("write results");
    println!("wrote {}", path.display());
}
