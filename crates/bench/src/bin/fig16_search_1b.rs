//! Figure 16: query performance at the largest (1B-analog) tier — HNSW,
//! ELPIS (with intra-query parallelism) and Vamana — plus the
//! file-backed mapped-tier leg serving a 1B-class on-disk Deep analog
//! through the sharded mmap path.
//!
//! Paper shape: ELPIS up to an order of magnitude faster to 0.95 accuracy
//! thanks to multi-threaded single-query answering.
//!
//! The mapped leg replaces the old in-memory stand-in for "1B": the base
//! streams to disk in the mapped `KIND_MSTORE` layout, the sharded index
//! builds one shard at a time ([`ShardedIndex::build_to_dir`]) so peak
//! heap stays near a single shard, and the reloaded index page-faults
//! vector rows from disk during the sweep. The default run keeps CI
//! scale (`tiers()[3]`); `GASS_FULL=1` targets the paper's 1B rows —
//! 1B x 96d is ~384 GB on disk, so size it to local storage with
//! `GASS_FULL_N` (e.g. `GASS_FULL_N=150000000` is ~58 GB) and point
//! `GASS_MAPPED_DIR` at a disk that fits. The serving path is identical
//! at every size; only the page population changes.
//!
//! [`ShardedIndex::build_to_dir`]: gass_core::ShardedIndex::build_to_dir
//!
//! ```sh
//! cargo run --release -p gass-bench --bin fig16_search_1b
//! ```

use gass_bench::{
    beam_sweep, mapped_tier_n, num_queries, results_dir, run_mapped_sharded_tier, tiers,
};
use gass_core::set_fanout_workers;
use gass_data::DatasetKind;
use gass_eval::{sweep, Table};
use gass_graphs::{build_method, elpis, ElpisParams, HnswParams, MethodKind};

/// The paper's 1B Deep tier in rows (sized down via `GASS_FULL_N`).
const PAPER_1B_ROWS: usize = 1_000_000_000;

fn main() {
    let tier = tiers()[3];
    let n = tier.n;
    let k = 10;
    let (base, queries) = DatasetKind::Deep.generate(n, num_queries(), 107);
    let truth = gass_data::ground_truth(&base, &queries, k);

    let mut table =
        Table::new(vec!["method", "L", "recall", "dist_calcs_per_query", "ms_per_query"]);
    for kind in MethodKind::scalable() {
        let built = build_method(kind, base.clone(), 107);
        for p in sweep(built.index.as_ref(), &queries, &truth, k, &beam_sweep(), 16) {
            table.row(vec![
                kind.name(),
                p.beam_width.to_string(),
                format!("{:.4}", p.recall),
                (p.dist_calcs / queries.len() as u64).to_string(),
                format!("{:.3}", p.seconds * 1e3 / queries.len() as f64),
            ]);
        }
        eprintln!("done: {}", kind.name());
    }

    // ELPIS with intra-query parallelism — the configuration behind its
    // Fig. 16 wall-clock lead: one query's leaf probes fan out over the
    // resident pool on every core.
    let leaf = (n / 8).clamp(128, 4096);
    let par = elpis::build(
        base.clone(),
        ElpisParams {
            leaf_size: leaf,
            hnsw: HnswParams { m: 10, ef_construction: 64, seed: 107, threads: 1 },
            nprobe: 8,
            ..ElpisParams::small()
        },
    );
    set_fanout_workers(0);
    let points = sweep(&par, &queries, &truth, k, &beam_sweep(), 16);
    set_fanout_workers(1);
    for p in points {
        table.row(vec![
            "ELPIS(par)".to_string(),
            p.beam_width.to_string(),
            format!("{:.4}", p.recall),
            (p.dist_calcs / queries.len() as u64).to_string(),
            format!("{:.3}", p.seconds * 1e3 / queries.len() as f64),
        ]);
    }
    eprintln!("done: ELPIS(par)");

    table.emit(&results_dir(), "fig16_search_1b").expect("write results");
    println!(
        "Read as Fig. 16: compare ms_per_query at ~0.95 recall; ELPIS(par) \
         should be fastest in wall-clock even where its dist calls match \
         sequential ELPIS."
    );

    // The file-backed 1B-class leg: on-disk base, bounded-heap one-shard-
    // at-a-time build, mapped sharded serving (~1M rows per shard at
    // full scale).
    let mapped_n = mapped_tier_n(&tier, PAPER_1B_ROWS);
    let shards = (mapped_n / 1_000_000).clamp(4, 1024);
    run_mapped_sharded_tier("fig16_mapped_1b", "1b", mapped_n, shards, 107);
}
