//! End-to-end serve smoke test: spawn `gass serve` on an ephemeral port
//! through the real binary, issue queries over the real wire protocol —
//! single and concurrent (coalesced) — assert a recall floor against
//! exact ground truth, exercise the `overloaded` fast-reject path, and
//! verify a clean drain-and-exit shutdown.

use gass_core::persist;
use gass_serve::{Client, QueryRequest, Response, Status};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const K: usize = 5;

/// Recall-path operating points per served codec: `(--quant, beam_width,
/// rerank_factor)`. The coarser the codec, the deeper the exact-rerank
/// pool needed to hold the recall floor (same operating points as the
/// quantized query ladder in `e2e.rs`).
const RECALL_POINTS: [(&str, usize, usize); 4] =
    [("none", 64, 4), ("sq8", 64, 4), ("sq4", 96, 8), ("pq", 96, 16)];

/// Kills the server on drop so a failing assertion can't leak a live
/// process (an orphaned server holds CI pipes open forever).
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn gass() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gass"))
}

fn run_ok(cmd: &mut Command) {
    let out = cmd.output().expect("spawn gass");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Generates a base store + graph once per test dir.
fn fixtures(dir: &Path) -> (PathBuf, PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let store = dir.join("base.store.gass");
    let graph = dir.join("base.hnsw.gass");
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "800",
        "--seed",
        "5",
        "--out",
        store.to_str().unwrap(),
    ]));
    run_ok(gass().args([
        "build",
        "--method",
        "hnsw",
        "--store",
        store.to_str().unwrap(),
        "--out",
        graph.to_str().unwrap(),
    ]));
    (store, graph)
}

/// Spawns `gass serve` (with `env` set in the child only), waits for the readiness line, returns the
/// guarded child, its (still-open) stdout reader, and the bound address.
fn spawn_server(
    extra: &[&str],
    env: &[(&str, &str)],
) -> (ChildGuard, BufReader<ChildStdout>, SocketAddr) {
    let mut cmd = gass();
    cmd.args(["serve", "--port", "0"]).args(extra).envs(env.iter().copied());
    cmd.stdout(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn gass serve");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stdout");
        assert!(n > 0, "server exited before becoming ready");
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.parse::<SocketAddr>().expect("parse bound address");
        }
    };
    (ChildGuard(child), reader, addr)
}

/// Waits for the child to exit cleanly and asserts the drain message.
fn assert_clean_exit(mut guard: ChildGuard, mut reader: BufReader<ChildStdout>) {
    let status = guard.0.wait().expect("wait for server");
    assert!(status.success(), "server exited with {status:?}");
    let mut rest = String::new();
    use std::io::Read as _;
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("server drained and exited"), "missing drain message: {rest}");
}

/// Every query's answer as `(id, distance bits)`, over one connection.
fn served_answers(
    addr: SocketAddr,
    queries: &gass_core::VectorStore,
    beam: usize,
    rerank: usize,
) -> Vec<Vec<(u32, u32)>> {
    let mut client = Client::connect(addr).unwrap();
    (0..queries.len() as u32)
        .map(|qi| {
            match client
                .query(QueryRequest {
                    k: K,
                    beam_width: beam,
                    seed_count: 16,
                    rerank_factor: rerank,
                    deadline_us: 0,
                    query: queries.get(qi).to_vec(),
                })
                .unwrap()
            {
                Response::Neighbors(ns) => {
                    ns.iter().map(|(id, d)| (*id, d.to_bits())).collect()
                }
                other => panic!("expected neighbors, got {other:?}"),
            }
        })
        .collect()
}

#[test]
fn serve_smoke_recall_batching_and_shutdown() {
    let dir = std::env::temp_dir().join("gass_cli_serve_e2e");
    let (store_path, graph_path) = fixtures(&dir);
    // Ground truth from the very artifacts the server loads.
    let base = persist::load_store(&store_path).unwrap();
    let queries = Arc::new(gass_data::DatasetKind::Deep.generate_base(40, 9));
    assert_eq!(queries.dim(), base.dim());
    let truth = Arc::new(gass_data::ground_truth(&base, &queries, K));

    for (quant, beam, rerank) in RECALL_POINTS {
        let (child, reader, addr) = spawn_server(
            &[
                "--store",
                store_path.to_str().unwrap(),
                "--graph",
                graph_path.to_str().unwrap(),
                "--workers",
                "2",
                "--max-batch",
                "8",
                "--max-wait-us",
                "5000",
                "--quant",
                quant,
            ],
            &[],
        );
        let req = move |q: &[f32]| QueryRequest {
            k: K,
            beam_width: beam,
            seed_count: 16,
            rerank_factor: rerank,
            deadline_us: 0,
            query: q.to_vec(),
        };

        // Phase 1: single sequential queries over one connection.
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();
        let mut recall = 0.0;
        for (qi, row) in truth.iter().enumerate().take(10) {
            match client.query(req(queries.get(qi as u32))).unwrap() {
                Response::Neighbors(ns) => {
                    let got: Vec<gass_core::Neighbor> =
                        ns.iter().map(|(id, d)| gass_core::Neighbor::new(*id, *d)).collect();
                    recall += gass_eval::recall_at_k(row, &got, K);
                }
                other => panic!("expected neighbors, got {other:?}"),
            }
        }
        assert!(recall / 10.0 > 0.8, "{quant}: served recall too low: {}", recall / 10.0);

        // Phase 2: concurrent clients; the 5ms batch window must coalesce
        // at least some of the 8 in-flight requests into shared batches.
        let mut joins = Vec::new();
        for t in 0..8usize {
            let queries = Arc::clone(&queries);
            let truth = Arc::clone(&truth);
            joins.push(std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut recall = 0.0;
                let mut asked = 0;
                for round in 0..5 {
                    let qi = ((t * 5 + round) % queries.len()) as u32;
                    match client.query(req(queries.get(qi))).unwrap() {
                        Response::Neighbors(ns) => {
                            let got: Vec<gass_core::Neighbor> = ns
                                .iter()
                                .map(|(id, d)| gass_core::Neighbor::new(*id, *d))
                                .collect();
                            recall += gass_eval::recall_at_k(&truth[qi as usize], &got, K);
                            asked += 1;
                        }
                        other => panic!("expected neighbors, got {other:?}"),
                    }
                }
                recall / asked as f64
            }));
        }
        for j in joins {
            assert!(j.join().unwrap() > 0.8, "{quant}: concurrent-phase recall too low");
        }

        // The stats endpoint agrees: everything admitted completed, and the
        // concurrent phase produced at least one multi-request batch.
        let json = client.stats().unwrap();
        assert!(json.contains("\"completed\":50"), "{quant} stats: {json}");
        assert!(json.contains("\"overloaded\":0"), "{quant} stats: {json}");
        let batches: u64 = json
            .split("\"batches\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no batches field in {json}"));
        assert!(batches < 50, "{quant}: no cross-request coalescing happened: {json}");
        // The per-query compute histogram saw every completed query and
        // records real work (its p50 is a positive distance-evaluation
        // count) — this is the live scoreboard for adaptive termination.
        let dist_hist = json
            .split("\"dists_per_query\":{")
            .nth(1)
            .and_then(|s| s.split('}').next())
            .unwrap_or_else(|| panic!("no dists_per_query histogram in {json}"));
        assert!(dist_hist.contains("\"count\":50"), "dists histogram incomplete: {json}");
        let dist_p50: u64 = dist_hist
            .split("\"p50\":")
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no p50 in dists histogram: {json}"));
        assert!(dist_p50 > 0, "dists-per-query p50 is zero: {json}");

        // Phase 3: orderly shutdown over the wire.
        client.shutdown().unwrap();
        assert_clean_exit(child, reader);
    }
}

/// Codec, reorder, termination policy and budget come from flags only:
/// a server started with the environment variables that once forced them
/// answers bit-for-bit like one started without.
#[test]
fn serve_ignores_answer_changing_environment() {
    let dir = std::env::temp_dir().join("gass_cli_serve_e2e_env");
    let (store_path, graph_path) = fixtures(&dir);
    let queries = gass_data::DatasetKind::Deep.generate_base(12, 9);
    let (_, beam, rerank) = RECALL_POINTS[0];
    let envs: [&[(&str, &str)]; 2] = [
        &[],
        &[
            ("GASS_QUANT", "pq"),
            ("GASS_REORDER", "rcm"),
            ("GASS_TERM", "saturation:1"),
            ("GASS_MAX_DISTS", "50"),
        ],
    ];
    let mut answers = Vec::new();
    for env in envs {
        let (child, reader, addr) = spawn_server(
            &["--store", store_path.to_str().unwrap(), "--graph", graph_path.to_str().unwrap()],
            env,
        );
        answers.push(served_answers(addr, &queries, beam, rerank));
        Client::connect(addr).unwrap().shutdown().unwrap();
        assert_clean_exit(child, reader);
    }
    assert_eq!(answers[0], answers[1], "the environment changed served answers");
}

#[test]
fn serve_sharded_smoke() {
    let dir = std::env::temp_dir().join("gass_cli_serve_e2e_sharded");
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("base.store.gass");
    let sharded = dir.join("sharded_idx");
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "800",
        "--seed",
        "5",
        "--out",
        store_path.to_str().unwrap(),
    ]));
    run_ok(gass().args([
        "build",
        "--method",
        "hnsw",
        "--store",
        store_path.to_str().unwrap(),
        "--out",
        sharded.to_str().unwrap(),
        "--shards",
        "4",
        "--nprobe",
        "2",
    ]));

    // Serve the sharded directory at full probe so the recall floor is
    // about the serving path, not the routing operating point.
    let (child, reader, addr) = spawn_server(
        &["--sharded", sharded.to_str().unwrap(), "--nprobe", "4", "--workers", "2"],
        &[],
    );

    let base = persist::load_store(&store_path).unwrap();
    let queries = gass_data::DatasetKind::Deep.generate_base(20, 9);
    let truth = gass_data::ground_truth(&base, &queries, K);
    let (_, beam, rerank) = RECALL_POINTS[0];

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let mut recall = 0.0;
    for (row, ans) in truth.iter().zip(served_answers(addr, &queries, beam, rerank)) {
        let got: Vec<gass_core::Neighbor> = ans
            .iter()
            .map(|&(id, d)| gass_core::Neighbor::new(id, f32::from_bits(d)))
            .collect();
        recall += gass_eval::recall_at_k(row, &got, K);
    }
    let recall = recall / truth.len() as f64;
    assert!(recall > 0.8, "sharded served recall too low: {recall}");

    client.shutdown().unwrap();
    assert_clean_exit(child, reader);
}

/// The intra-query fan-out leg: the same sharded directory served twice —
/// once with the sequential probe loop, once with `--fanout-workers 2` —
/// must produce byte-identical answers (ids and f32 distance bits) for
/// every query. Exercises the fan-out pool end to end through the wire
/// protocol, micro-batching, and the batch engine.
#[test]
fn serve_sharded_fanout_answers_identically() {
    let dir = std::env::temp_dir().join("gass_cli_serve_e2e_fanout");
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("base.store.gass");
    let sharded = dir.join("sharded_idx");
    run_ok(gass().args([
        "generate",
        "--dataset",
        "deep",
        "--n",
        "700",
        "--seed",
        "11",
        "--out",
        store_path.to_str().unwrap(),
    ]));
    run_ok(gass().args([
        "build",
        "--method",
        "hnsw",
        "--store",
        store_path.to_str().unwrap(),
        "--out",
        sharded.to_str().unwrap(),
        "--shards",
        "4",
        "--nprobe",
        "3",
    ]));

    let queries = gass_data::DatasetKind::Deep.generate_base(16, 13);
    let (_, beam, rerank) = RECALL_POINTS[0];
    let mut answers = Vec::new();
    for fanout in ["1", "2"] {
        let (child, reader, addr) = spawn_server(
            &[
                "--sharded",
                sharded.to_str().unwrap(),
                "--fanout-workers",
                fanout,
                "--workers",
                "2",
            ],
            &[],
        );
        answers.push(served_answers(addr, &queries, beam, rerank));
        Client::connect(addr).unwrap().shutdown().unwrap();
        assert_clean_exit(child, reader);
    }
    assert_eq!(answers[0], answers[1], "fan-out changed served answers");
}

#[test]
fn serve_overload_fast_rejects_instead_of_queueing() {
    let dir = std::env::temp_dir().join("gass_cli_serve_e2e_overload");
    let (store_path, graph_path) = fixtures(&dir);
    // A server with almost no room: one worker, per-request batches, a
    // queue of depth 1, and expensive queries.
    let (child, reader, addr) = spawn_server(
        &[
            "--store",
            store_path.to_str().unwrap(),
            "--graph",
            graph_path.to_str().unwrap(),
            "--workers",
            "1",
            "--max-batch",
            "1",
            "--max-wait-us",
            "0",
            "--queue-depth",
            "1",
        ],
        &[],
    );

    let shed = Arc::new(AtomicUsize::new(0));
    let served = Arc::new(AtomicUsize::new(0));
    let mut joins = Vec::new();
    for t in 0..16u64 {
        let shed = Arc::clone(&shed);
        let served = Arc::clone(&served);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            for round in 0..10 {
                // Stop hammering once the shed path is proven.
                if round > 0 && shed.load(Ordering::Relaxed) > 0 {
                    break;
                }
                let q = vec![0.01 * (t + round) as f32; 96];
                match client
                    .query(QueryRequest {
                        k: K,
                        beam_width: 256,
                        seed_count: 48,
                        rerank_factor: 4,
                        deadline_us: 0,
                        query: q,
                    })
                    .unwrap()
                {
                    Response::Neighbors(_) => {
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    Response::Rejected { status: Status::Overloaded, detail } => {
                        assert!(detail.contains("queue full"), "detail: {detail}");
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("unexpected response {other:?}"),
                }
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let (shed, served) = (shed.load(Ordering::Relaxed), served.load(Ordering::Relaxed));
    assert!(shed > 0, "16 concurrent clients against queue depth 1 never got shed");
    assert!(served > 0, "admission control must still admit work");

    // The overloaded server still answers control traffic and sheds are
    // accounted; then it shuts down cleanly.
    let mut client = Client::connect(addr).unwrap();
    let json = client.stats().unwrap();
    assert!(
        json.contains(&format!("\"overloaded\":{shed}")),
        "stats disagree with observed sheds ({shed}): {json}"
    );
    client.shutdown().unwrap();
    assert_clean_exit(child, reader);
}
