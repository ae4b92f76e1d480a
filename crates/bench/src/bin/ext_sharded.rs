//! Extension experiment: sharded serving (IVF-on-top-of-graphs) on the
//! LLC-overflowing `deep-xl` tier from `ext_reorder`.
//!
//! One balanced-k-means partition splits the base into shards, each shard
//! serves its slice through the full PR ladder (HNSW graph, frozen CSR,
//! aligned store, RCM relabeling), and queries route to the `nprobe`
//! nearest partition centroids, merging per-shard answers through one
//! bounded heap. The monolithic comparison point is the strongest
//! single-index configuration the repo has: the same HNSW build served
//! frozen + aligned + RCM-reordered (the `ext_reorder` winner on this
//! tier).
//!
//! Why sharding wins at this scale: a probe searches a graph 1/`shards`
//! the size, so its beam converges in fewer hops over a working set that
//! sits much closer to the LLC — and because each shard holds only a
//! slice of the data, a *narrower* beam reaches the same recall. The
//! sweep therefore finds, per `(shards, nprobe)`, the smallest beam whose
//! recall@10 matches the monolithic operating point, and compares QPS at
//! that equal-recall point. Routing is a free knob: `nprobe` is atomic,
//! so the ladder sweeps recall/QPS without rebuilding anything.
//!
//! Acceptance shape: at the monolithic recall@10 operating point
//! (>= 0.97), the best `(shards, nprobe, beam)` cell reaches at least
//! 1.3x the monolithic single-thread QPS. The JSON also records the
//! recall-vs-nprobe curve at the monolithic beam width, making the
//! routing tradeoff legible: each added probe buys recall and costs
//! QPS.
//!
//! The run also sweeps the **intra-query fan-out ladder** on the
//! 16-shard configuration: workers 1/2/4/8 × nprobe 1/2/4 at each
//! nprobe's equal-recall beam, reporting p50/p99 latency and QPS.
//! Fan-out runs one query's probes concurrently on shard-affine workers
//! (`gass_core::fanout`); answers are bit-identical at every width, so
//! the ladder moves latency only — and only on hosts with spare cores
//! (a `notes` field flags constrained hosts).
//!
//! ```sh
//! cargo run --release -p gass-bench --bin ext_sharded
//! ```
//!
//! `GASS_SCALE` scales the dataset, `GASS_QUERIES` the query count.
//! Output: `results/ext_sharded.json`.

use gass_bench::{num_queries, results_dir, scale};
use gass_core::distance::DistCounter;
use gass_core::index::{AnnIndex, PrebuiltIndex, QueryParams};
use gass_core::seed::RandomSeeds;
use gass_core::{ReorderStrategy, SeedProvider, ShardedIndex, ShardedParams};
use gass_eval::{measure_throughput, recall_at_k, write_json, Table};
use gass_graphs::{HnswIndex, HnswParams};
use serde::Serialize;

const K: usize = 10;
const ROUNDS: usize = 15;
/// Throughput repetitions per operating point; the best run is the
/// measurement.
const REPS: usize = 3;
/// Headline requirement: best equal-recall sharded QPS over monolithic.
const SPEEDUP_TARGET: f64 = 1.3;
/// Recall@10 floor for the monolithic operating point.
const RECALL_FLOOR: f64 = 0.97;

#[derive(Serialize)]
struct BaselineRecord {
    method: &'static str,
    reorder: &'static str,
    beam_width: usize,
    recall_at_10: f64,
    dists_per_query: u64,
    qps_1t: f64,
    p50_us_1t: f64,
    p99_us_1t: f64,
}

#[derive(Serialize)]
struct ProbePoint {
    nprobe: usize,
    /// Smallest swept beam whose recall clears the operating point (the
    /// widest beam swept when none does — see `at_parity`).
    beam_width: usize,
    recall_at_10: f64,
    /// Recall at the monolithic beam width — the recall-vs-nprobe curve
    /// at a fixed search effort.
    recall_at_baseline_beam: f64,
    dists_per_query: u64,
    qps_1t: f64,
    p50_us_1t: f64,
    p99_us_1t: f64,
    speedup_vs_monolithic: f64,
    /// Whether this point matched the monolithic recall operating point.
    at_parity: bool,
}

#[derive(Serialize)]
struct ShardConfigRecord {
    shards: usize,
    build_seconds: f64,
    points: Vec<ProbePoint>,
}

#[derive(Serialize)]
struct FanoutPoint {
    workers: usize,
    nprobe: usize,
    beam_width: usize,
    recall_at_10: f64,
    qps_1t: f64,
    p50_us_1t: f64,
    p99_us_1t: f64,
    /// p50 latency at `workers = 1` over p50 at this width (>1 = faster).
    latency_speedup_vs_1w: f64,
}

#[derive(Serialize)]
struct Headline {
    shards: usize,
    nprobe: usize,
    beam_width: usize,
    recall_at_10: f64,
    qps_1t: f64,
    speedup_vs_monolithic: f64,
}

#[derive(Serialize)]
struct Record {
    experiment: &'static str,
    dataset: &'static str,
    n: usize,
    dim: usize,
    num_queries: usize,
    k: usize,
    rounds: usize,
    host_cores: usize,
    simd_backend: &'static str,
    baseline: BaselineRecord,
    configs: Vec<ShardConfigRecord>,
    /// Intra-query fan-out ladder (workers x nprobe) on the
    /// `fanout_shards` configuration, at each nprobe's equal-recall beam.
    fanout_shards: usize,
    fanout: Vec<FanoutPoint>,
    speedup_target: f64,
    meets_target: bool,
    headline: Headline,
    notes: String,
}

/// One deterministic, single-threaded pass over the queries in order.
fn deterministic_pass(
    index: &dyn AnnIndex,
    queries: &gass_core::VectorStore,
    truth: &[Vec<gass_core::Neighbor>],
    params: &QueryParams,
) -> (f64, u64) {
    let counter = DistCounter::new();
    let mut recall = 0.0;
    for (qi, row) in truth.iter().enumerate() {
        let res = index.search(queries.get(qi as u32), params, &counter);
        recall += recall_at_k(row, &res.neighbors, K);
    }
    (recall / truth.len() as f64, counter.get())
}

fn best_throughput(
    index: &dyn AnnIndex,
    queries: &gass_core::VectorStore,
    params: &QueryParams,
) -> gass_eval::ThroughputReport {
    (0..REPS)
        .map(|_| measure_throughput(index, queries, params, 1, ROUNDS))
        .max_by(|a, b| a.qps.total_cmp(&b.qps))
        .expect("REPS > 0")
}

fn main() {
    // The `deep-xl` tier of `ext_reorder`: 10x the base Deep analog.
    let n = 1_000_000 * scale();
    let host_cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    gass_core::set_simd_enabled(true);
    gass_core::set_prefetch_enabled(true);
    println!("Extension: sharded serving (IVF-on-top-of-graphs), n={n}, k={K}\n");

    let all = gass_data::synth::deep_like(n + num_queries(), 333);
    // In-distribution holdout, as in `ext_reorder`: a fresh draw in high
    // dimensions lands between the base clusters.
    let (base, queries) = gass_data::holdout_split(&all, num_queries(), 333);
    drop(all);
    let dim = base.dim();
    let truth = gass_data::ground_truth(&base, &queries, K);
    let hnsw = |store: gass_core::VectorStore, seed: u64, threads: usize| {
        HnswIndex::build(store, HnswParams { m: 16, ef_construction: 128, seed, threads })
    };

    // Monolithic baseline: one HNSW over the full tier, served in the
    // strongest single-index configuration (frozen + aligned + RCM).
    eprintln!("monolithic: building HNSW over {n} vectors ({host_cores} threads)...");
    let built = hnsw(base.clone(), 333, host_cores);
    let mut mono = PrebuiltIndex::new(
        built.store().clone(),
        built.base_graph().clone(),
        Box::new(RandomSeeds::new(n, 7)),
        "monolithic",
    );
    drop(built);
    mono.align_store();
    mono.freeze();
    mono.reorder(ReorderStrategy::Rcm);

    // Smallest swept beam whose recall clears the floor; its recall is
    // the equal-recall operating point every sharded cell must match.
    let mut mono_beam = 0;
    let mut mono_pass = (0.0, 0u64);
    for l in [80usize, 128, 192, 256, 384] {
        let params = QueryParams::new(K, l).with_seed_count(16);
        mono_pass = deterministic_pass(&mono, &queries, &truth, &params);
        mono_beam = l;
        if mono_pass.0 >= RECALL_FLOOR {
            break;
        }
        eprintln!("monolithic: L={l} recall {:.4} < {RECALL_FLOOR}, widening", mono_pass.0);
    }
    let op_recall = mono_pass.0;
    let mono_params = QueryParams::new(K, mono_beam).with_seed_count(16);
    let mono_t = best_throughput(&mono, &queries, &mono_params);
    eprintln!(
        "monolithic: L={mono_beam} recall {op_recall:.4}, {:.0} QPS single-thread",
        mono_t.qps
    );
    let baseline = BaselineRecord {
        method: "hnsw",
        reorder: "rcm",
        beam_width: mono_beam,
        recall_at_10: op_recall,
        dists_per_query: mono_pass.1 / truth.len() as u64,
        qps_1t: mono_t.qps,
        p50_us_1t: mono_t.p50_us,
        p99_us_1t: mono_t.p99_us,
    };
    drop(mono);

    let mut table = Table::new(vec![
        "shards",
        "nprobe",
        "beam",
        "recall@10",
        "dists/query",
        "qps(1t)",
        "p50_us",
        "speedup",
        "parity",
    ]);
    table.row(vec![
        "1 (mono)".into(),
        "-".into(),
        mono_beam.to_string(),
        format!("{:.4}", baseline.recall_at_10),
        baseline.dists_per_query.to_string(),
        format!("{:.0}", baseline.qps_1t),
        format!("{:.1}", baseline.p50_us_1t),
        "1.00x".into(),
        "yes".into(),
    ]);

    // Fan-out ladder host: the middle shard count (16), whose build the
    // loop below reuses rather than rebuilding.
    const FANOUT_SHARDS: usize = 16;
    let mut fanout: Vec<FanoutPoint> = Vec::new();
    let counter = DistCounter::new();
    let mut configs: Vec<ShardConfigRecord> = Vec::new();
    for shards in [8usize, 16, 32] {
        eprintln!("shards={shards}: partitioning + building per-shard HNSW...");
        let t0 = std::time::Instant::now();
        let mut idx =
            ShardedIndex::build_with(&base, &ShardedParams::new(shards), &counter, |s, sub| {
                let built = hnsw(sub.clone(), 333 ^ s as u64, 1);
                let graph = built.base_graph().clone();
                let seeds: Box<dyn SeedProvider> =
                    Box::new(RandomSeeds::per_query(sub.len(), 7));
                (graph, seeds)
            });
        let build_seconds = t0.elapsed().as_secs_f64();
        idx.align_store();
        idx.freeze();
        idx.reorder(ReorderStrategy::Rcm);
        eprintln!("shards={shards}: built in {build_seconds:.0}s, sweeping nprobe ladder");

        let mut points: Vec<ProbePoint> = Vec::new();
        for nprobe in [1usize, 2, 3, 4, 6, 8].into_iter().filter(|&p| p <= shards) {
            idx.set_nprobe(nprobe);
            // Recall-vs-nprobe curve at the monolithic search effort.
            let (curve_recall, _) = deterministic_pass(&idx, &queries, &truth, &mono_params);
            // Smallest beam whose recall matches the monolithic operating
            // point: smaller shards need narrower beams at equal recall.
            let mut chosen = (0usize, 0.0f64, 0u64);
            for l in [16usize, 24, 32, 48, 64, 80, 128, 192] {
                let params = QueryParams::new(K, l).with_seed_count(16);
                let (recall, dists) = deterministic_pass(&idx, &queries, &truth, &params);
                chosen = (l, recall, dists);
                if recall >= op_recall {
                    break;
                }
            }
            let (beam, recall, dists) = chosen;
            let at_parity = recall >= op_recall;
            let params = QueryParams::new(K, beam).with_seed_count(16);
            let t = best_throughput(&idx, &queries, &params);
            let speedup = t.qps / baseline.qps_1t.max(1e-12);
            table.row(vec![
                shards.to_string(),
                nprobe.to_string(),
                beam.to_string(),
                format!("{:.4}", recall),
                (dists / truth.len() as u64).to_string(),
                format!("{:.0}", t.qps),
                format!("{:.1}", t.p50_us),
                format!("{:.2}x", speedup),
                if at_parity { "yes".into() } else { "no".into() },
            ]);
            points.push(ProbePoint {
                nprobe,
                beam_width: beam,
                recall_at_10: recall,
                recall_at_baseline_beam: curve_recall,
                dists_per_query: dists / truth.len() as u64,
                qps_1t: t.qps,
                p50_us_1t: t.p50_us,
                p99_us_1t: t.p99_us,
                speedup_vs_monolithic: speedup,
                at_parity,
            });
        }
        // Intra-query fan-out ladder: workers 1/2/4/8 x nprobe 1/2/4 at
        // each nprobe's equal-recall beam from the sweep above. Fan-out
        // never changes answers (the recall column re-verifies that per
        // cell); what moves is single-query latency, and only when the
        // host has spare cores to run probes on.
        if shards == FANOUT_SHARDS {
            eprintln!("shards={shards}: fan-out ladder (workers x nprobe)...");
            for nprobe in [1usize, 2, 4] {
                idx.set_nprobe(nprobe);
                let beam = points
                    .iter()
                    .find(|p| p.nprobe == nprobe)
                    .map(|p| p.beam_width)
                    .expect("nprobe swept above");
                let params = QueryParams::new(K, beam).with_seed_count(16);
                let mut base_p50 = 0.0f64;
                for workers in [1usize, 2, 4, 8] {
                    gass_core::set_fanout_workers(workers);
                    let (recall, _) = deterministic_pass(&idx, &queries, &truth, &params);
                    let t = best_throughput(&idx, &queries, &params);
                    if workers == 1 {
                        base_p50 = t.p50_us;
                    }
                    eprintln!(
                        "  workers={workers} nprobe={nprobe} beam={beam}: recall \
                         {recall:.4}, p50 {:.1}us p99 {:.1}us, {:.0} QPS",
                        t.p50_us, t.p99_us, t.qps
                    );
                    fanout.push(FanoutPoint {
                        workers,
                        nprobe,
                        beam_width: beam,
                        recall_at_10: recall,
                        qps_1t: t.qps,
                        p50_us_1t: t.p50_us,
                        p99_us_1t: t.p99_us,
                        latency_speedup_vs_1w: base_p50 / t.p50_us.max(1e-12),
                    });
                }
                gass_core::set_fanout_workers(1);
            }
        }
        configs.push(ShardConfigRecord { shards, build_seconds, points });
    }

    let (best_cfg, best_point) = configs
        .iter()
        .flat_map(|c| c.points.iter().filter(|p| p.at_parity).map(move |p| (c, p)))
        .max_by(|a, b| a.1.qps_1t.total_cmp(&b.1.qps_1t))
        .expect("at least one sharded point at recall parity");
    let headline = Headline {
        shards: best_cfg.shards,
        nprobe: best_point.nprobe,
        beam_width: best_point.beam_width,
        recall_at_10: best_point.recall_at_10,
        qps_1t: best_point.qps_1t,
        speedup_vs_monolithic: best_point.speedup_vs_monolithic,
    };
    let meets_target = headline.speedup_vs_monolithic >= SPEEDUP_TARGET;
    let notes = if host_cores < 4 {
        format!(
            "fan-out ladder measured on a {host_cores}-core host: intra-query \
             parallelism needs spare cores to run probes on, so widths > 1 only add \
             pool overhead here and the >=1.3x latency target at workers >= 4 is \
             unattainable on this hardware. Answers are bit-identical at every width \
             (property-tested in tests/sharded.rs); the ladder records the \
             constrained-host overhead floor."
        )
    } else {
        String::new()
    };

    let record = Record {
        experiment: "ext_sharded",
        dataset: "deep-xl",
        n,
        dim,
        num_queries: num_queries(),
        k: K,
        rounds: ROUNDS,
        host_cores,
        simd_backend: gass_core::simd_backend(),
        baseline,
        configs,
        fanout_shards: FANOUT_SHARDS,
        fanout,
        speedup_target: SPEEDUP_TARGET,
        meets_target,
        headline,
        notes,
    };

    println!("{}", table.render());
    println!(
        "headline: {} shards, nprobe {}, beam {} -> recall@10 {:.4} at {:.0} QPS, \
         {:.2}x the monolithic frozen+reordered single-thread baseline \
         (target {SPEEDUP_TARGET}x: {})",
        record.headline.shards,
        record.headline.nprobe,
        record.headline.beam_width,
        record.headline.recall_at_10,
        record.headline.qps_1t,
        record.headline.speedup_vs_monolithic,
        if record.meets_target { "met" } else { "MISSED" },
    );
    let path = write_json(&results_dir(), "ext_sharded", &record).expect("write results");
    println!("wrote {}", path.display());
}
