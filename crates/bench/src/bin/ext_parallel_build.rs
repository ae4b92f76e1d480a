//! Extension experiment: parallel construction speedup at equal quality.
//!
//! Builds HNSW, Vamana, and KGraph over a 10K-vector Deep analog twice —
//! `threads = 1` (the exact sequential algorithm) and `threads = 8` — and
//! reports wall-clock speedup, recall@10 at a fixed beam width, and the
//! construction distance-call counts for both builds.
//!
//! The acceptance shape (on a machine with >= 8 physical cores): >= 3x
//! build speedup at threads = 8 with recall@10 within +-1 point of the
//! serial build. The JSON records `host_cores` so results from
//! core-starved runners (e.g. a 1-CPU container, where the parallel path
//! still runs but cannot speed anything up) are self-describing.
//!
//! ```sh
//! cargo run --release -p gass-bench --bin ext_parallel_build
//! ```
//!
//! `GASS_SCALE` scales the dataset, `GASS_THREADS` overrides the parallel
//! thread count (default 8). Output: `results/ext_parallel_build.json`.

use gass_bench::{num_queries, results_dir, scale};
use gass_core::distance::DistCounter;
use gass_core::index::{AnnIndex, QueryParams};
use gass_data::DatasetKind;
use gass_eval::recall_at_k;
use gass_graphs::{kgraph, vamana, HnswIndex, HnswParams, KGraphParams, VamanaParams};
use std::time::Instant;

const K: usize = 10;
const BEAM: usize = 80;

struct BuildRun {
    seconds: f64,
    dist_calcs: u64,
    recall: f64,
}

fn measure(
    index: &dyn AnnIndex,
    seconds: f64,
    dist_calcs: u64,
    queries: &gass_core::store::VectorStore,
    truth: &[Vec<gass_core::neighbor::Neighbor>],
) -> BuildRun {
    let counter = DistCounter::new();
    let params = QueryParams::new(K, BEAM).with_seed_count(16);
    let mut recall = 0.0;
    for (qi, row) in truth.iter().enumerate() {
        let res = index.search(queries.get(qi as u32), &params, &counter);
        recall += recall_at_k(row, &res.neighbors, K);
    }
    BuildRun { seconds, dist_calcs, recall: recall / truth.len() as f64 }
}

fn json_run(r: &BuildRun) -> String {
    format!(
        "{{\"build_seconds\": {:.4}, \"build_dist_calcs\": {}, \"recall_at_10\": {:.4}}}",
        r.seconds, r.dist_calcs, r.recall
    )
}

fn main() {
    let n = 10_000 * scale();
    let threads: usize =
        std::env::var("GASS_THREADS").ok().and_then(|s| s.parse().ok()).unwrap_or(8).max(2);
    let host_cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let (base, queries) = DatasetKind::Deep.generate(n, num_queries(), 77);
    let truth = gass_data::ground_truth(&base, &queries, K);

    let mut entries = Vec::new();
    type Builder = Box<dyn Fn(usize) -> (Box<dyn AnnIndex>, u64)>;
    let methods: Vec<(&str, Builder)> = vec![
        ("hnsw", {
            let base = base.clone();
            Box::new(move |t| {
                let idx = HnswIndex::build(
                    base.clone(),
                    HnswParams { threads: t, ..HnswParams::small() },
                );
                let d = idx.build_report().dist_calcs;
                (Box::new(idx) as Box<dyn AnnIndex>, d)
            })
        }),
        ("vamana", {
            let base = base.clone();
            Box::new(move |t| {
                let idx = vamana::build(
                    base.clone(),
                    VamanaParams { threads: t, ..VamanaParams::small() },
                );
                let d = idx.build_report().dist_calcs;
                (Box::new(idx) as Box<dyn AnnIndex>, d)
            })
        }),
        ("kgraph", {
            let base = base.clone();
            Box::new(move |t| {
                let idx = kgraph::build(
                    base.clone(),
                    KGraphParams { threads: t, ..KGraphParams::small() },
                );
                let d = idx.build_report().dist_calcs;
                (Box::new(idx) as Box<dyn AnnIndex>, d)
            })
        }),
    ];

    for (name, build) in &methods {
        let t0 = Instant::now();
        let (serial_idx, serial_dists) = build(1);
        let serial_secs = t0.elapsed().as_secs_f64();
        let serial = measure(serial_idx.as_ref(), serial_secs, serial_dists, &queries, &truth);

        let t0 = Instant::now();
        let (par_idx, par_dists) = build(threads);
        let par_secs = t0.elapsed().as_secs_f64();
        let parallel = measure(par_idx.as_ref(), par_secs, par_dists, &queries, &truth);

        let speedup = serial.seconds / parallel.seconds.max(1e-9);
        let delta = parallel.recall - serial.recall;
        println!(
            "{name}: serial {:.2}s r@10 {:.4} | threads={threads} {:.2}s r@10 {:.4} | speedup {:.2}x, recall delta {:+.4}",
            serial.seconds, serial.recall, parallel.seconds, parallel.recall, speedup, delta
        );
        entries.push(format!(
            "    {{\n      \"method\": \"{name}\",\n      \"serial\": {},\n      \"parallel\": {},\n      \"speedup\": {:.3},\n      \"recall_delta\": {:.4}\n    }}",
            json_run(&serial),
            json_run(&parallel),
            speedup,
            delta
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"ext_parallel_build\",\n  \"n\": {n},\n  \"num_queries\": {},\n  \"k\": {K},\n  \"beam_width\": {BEAM},\n  \"parallel_threads\": {threads},\n  \"host_cores\": {host_cores},\n  \"note\": \"speedup is only meaningful when host_cores >= parallel_threads\",\n  \"methods\": [\n{}\n  ]\n}}\n",
        num_queries(),
        entries.join(",\n")
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir");
    let path = dir.join("ext_parallel_build.json");
    std::fs::write(&path, &json).expect("write results");
    println!("wrote {}", path.display());
}
