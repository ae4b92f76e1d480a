//! Quickstart: build an HNSW index on a synthetic Deep1B-like collection,
//! answer 10-NN queries, and measure recall and distance calculations.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gass::prelude::*;

fn main() {
    // --- 1. Data -----------------------------------------------------
    // 20k vectors, 96 dimensions, from the Deep1B-like generator (an
    // "easy" dataset in the paper's LID/LRC sense).
    let n = 20_000;
    let base = gass::data::synth::deep_like(n, 42);
    let queries = gass::data::synth::deep_like(100, 7);
    println!("dataset: {} x {}d, {} queries", base.len(), base.dim(), queries.len());

    // --- 2. Index ----------------------------------------------------
    let t0 = std::time::Instant::now();
    let index = HnswIndex::build(
        base.clone(),
        HnswParams { m: 16, ef_construction: 128, seed: 1, threads: 1 },
    );
    let report = index.build_report();
    println!(
        "built HNSW in {:.2}s ({} construction distance calcs)",
        t0.elapsed().as_secs_f64(),
        report.dist_calcs
    );

    // --- 3. Ground truth + search ------------------------------------
    let k = 10;
    let truth = gass::data::ground_truth(&base, &queries, k);

    for beam_width in [10usize, 20, 40, 80, 160] {
        let counter = DistCounter::new();
        let params = QueryParams::new(k, beam_width);
        let t = std::time::Instant::now();
        let mut recall_sum = 0.0;
        for (qi, t_row) in truth.iter().enumerate() {
            let res = index.search(queries.get(qi as u32), &params, &counter);
            recall_sum += gass::eval::recall_at_k(t_row, &res.neighbors, k);
        }
        println!(
            "L={beam_width:<4} recall@10={:.4}  dist_calcs/query={:<8} time/query={:.3}ms",
            recall_sum / truth.len() as f64,
            counter.get() / truth.len() as u64,
            t.elapsed().as_secs_f64() * 1000.0 / truth.len() as f64,
        );
    }

    // --- 4. The search is the paper's Algorithm 1 ---------------------
    // Every method in this workspace answers queries through the same
    // beam search; try swapping `HnswIndex::build` for
    // `vamana::build(base.clone(), VamanaParams::small())` (a graph plus
    // seeds, served as a `PrebuiltIndex`), `elpis::build`, or any
    // `MethodKind` via `build_method`.
}
