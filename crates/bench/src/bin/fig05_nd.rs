//! Figure 5: ND strategies on the II baseline — recall vs distance
//! calculations for RND / RRND / MOND / NoND on Deep and Sift at
//! increasing size tiers.
//!
//! Paper shape to reproduce: RND and MOND consistently best, RRND next,
//! NoND worst; the gap widens with dataset size, especially at high
//! recall.
//!
//! ```sh
//! cargo run --release -p gass-bench --bin fig05_nd
//! ```

use gass_bench::{beam_sweep, num_queries, results_dir, small_tiers};
use gass_core::nd::NdStrategy;
use gass_data::DatasetKind;
use gass_eval::Table;
use gass_graphs::{baseline, IiParams};

fn main() {
    let k = 10;
    let strategies = [
        NdStrategy::Rnd,
        NdStrategy::mond_default(),
        NdStrategy::rrnd_default(),
        NdStrategy::NoNd,
    ];
    let mut table =
        Table::new(vec!["dataset", "tier", "nd", "L", "recall", "dist_calcs_per_query"]);

    for kind in [DatasetKind::Deep, DatasetKind::Sift] {
        for tier in small_tiers() {
            let (base, queries) = kind.generate(tier.n, num_queries(), 31);
            let truth = gass_data::ground_truth(&base, &queries, k);
            for nd in strategies {
                // The paper's setting R=60, L=800 scaled to our tier.
                let params = IiParams {
                    max_degree: 24,
                    beam_width: 128,
                    nd,
                    build_seeds: 8,
                    seed: 5,
                    threads: 1,
                };
                let g = baseline::build(base.clone(), params);
                // The reference implementations (NSG-lineage) initialize
                // the candidate pool with L random nodes; mirror that so
                // seed coverage scales with the beam.
                let points: Vec<_> = beam_sweep()
                    .into_iter()
                    .map(|l| gass_eval::evaluate_at(&g, &queries, &truth, k, l, l))
                    .collect();
                for p in points {
                    table.row(vec![
                        kind.name(),
                        tier.label.to_string(),
                        nd.label().to_string(),
                        p.beam_width.to_string(),
                        format!("{:.4}", p.recall),
                        (p.dist_calcs / queries.len() as u64).to_string(),
                    ]);
                }
                eprintln!("done: {} {} {}", kind.name(), tier.label, nd.label());
            }
        }
    }
    table.emit(&results_dir(), "fig05_nd").expect("write results");

    println!(
        "Read the series as the paper's Fig. 5: for each (dataset, tier), \
         plot recall (x) against dist_calcs_per_query (y); RND/MOND should \
         sit lowest, NoND highest, with the gap growing at the larger tier."
    );
}
