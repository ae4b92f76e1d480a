//! Table 2: the impact of Seed Selection on *indexing* — construction
//! distance calls of the SN-built graph (hierarchical descent per
//! insertion, i.e. HNSW-style construction) vs the KS-built graph (random
//! warm-up seeds per insertion) on Deep at two tiers, plus the number of
//! additional queries the KS graph can answer before the SN graph
//! finishes building.
//!
//! Paper shape: SN costs more to build (182M extra dist calls at 1M,
//! 22.3B at 25GB ≈ 45K / 1.17M bonus queries for KS).
//!
//! ```sh
//! cargo run --release -p gass-bench --bin table2_ss_indexing
//! ```

use gass_bench::{num_queries, results_dir, small_tiers};
use gass_core::distance::DistCounter;
use gass_core::index::{AnnIndex, QueryParams};
use gass_core::nd::NdStrategy;
use gass_data::DatasetKind;
use gass_eval::{recall_at_k, Table};
use gass_graphs::{baseline, hnsw, HnswParams, IiParams};

fn main() {
    let k = 10;
    let mut table = Table::new(vec![
        "tier",
        "dists(SN build)",
        "dists(KS build)",
        "overhead(SN-KS)",
        "dists/query@hi-recall(KS)",
        "bonus_queries(KS)",
    ]);

    for tier in small_tiers() {
        let (base, queries) = DatasetKind::Deep.generate(tier.n, num_queries(), 21);
        let truth = gass_data::ground_truth(&base, &queries, k);

        // SN-construction graph: HNSW (hierarchy descent per insertion,
        // RND pruning — the paper's "SN-based graph").
        let sn_graph = hnsw::build(
            base.clone(),
            HnswParams { m: 12, ef_construction: 128, seed: 5, threads: 1 },
        );
        // KS-construction graph: the baseline II+RND with random build
        // seeds.
        let ks_graph = baseline::build(
            base.clone(),
            IiParams {
                max_degree: 24,
                beam_width: 128,
                nd: NdStrategy::Rnd,
                build_seeds: 8,
                seed: 5,
                threads: 1,
            },
        );

        let sn_build = sn_graph.build_report().dist_calcs;
        let ks_build = ks_graph.build_report().dist_calcs;
        let overhead = sn_build.saturating_sub(ks_build);

        // Per-query cost of the KS graph at its high-recall operating
        // point (L grown until recall >= 0.99 or the sweep ends).
        let mut per_query = 0u64;
        for l in [40usize, 80, 160, 320] {
            let counter = DistCounter::new();
            let params = QueryParams::new(k, l).with_seed_count(16);
            let mut recall = 0.0;
            for (qi, t) in truth.iter().enumerate() {
                let res = ks_graph.search(queries.get(qi as u32), &params, &counter);
                recall += recall_at_k(t, &res.neighbors, k);
            }
            recall /= truth.len() as f64;
            per_query = counter.get() / truth.len() as u64;
            if recall >= 0.99 {
                break;
            }
        }
        let bonus = overhead.checked_div(per_query).unwrap_or(0);

        table.row(vec![
            format!("Deep{}", tier.label),
            sn_build.to_string(),
            ks_build.to_string(),
            overhead.to_string(),
            per_query.to_string(),
            bonus.to_string(),
        ]);
        println!(
            "shape check Deep{} — SN build costs more than KS build: {}",
            tier.label,
            sn_build > ks_build
        );
    }
    table.emit(&results_dir(), "table2_ss_indexing").expect("write results");
}
