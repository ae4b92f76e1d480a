//! Extension experiment: was the paper right to exclude IEH?
//!
//! The paper drops IEH from its evaluation "due to suboptimal
//! performance" (citing NSG's and the earlier survey's results). We
//! implemented IEH anyway; this harness pits it against EFANNA — the
//! method with the same NNDescent core but tree-based instead of
//! hash-based candidates/seeds — and KGraph (no bootstrap at all).
//!
//! ```sh
//! cargo run --release -p gass-bench --bin ext_ieh_check
//! ```

use gass_bench::{beam_sweep, num_queries, results_dir, tiers};
use gass_core::index::AnnIndex;
use gass_data::DatasetKind;
use gass_eval::{sweep, Table};
use gass_graphs::{efanna, ieh, kgraph, EfannaParams, IehParams, KGraphParams};

fn main() {
    let n = tiers()[0].n;
    let k = 10;
    let (base, queries) = DatasetKind::Deep.generate(n, num_queries(), 271);
    let truth = gass_data::ground_truth(&base, &queries, k);
    println!("Extension: IEH vs EFANNA vs KGraph on Deep (n={n})\n");

    let ieh = ieh::build(base.clone(), IehParams::small());
    let efanna = efanna::build(base.clone(), EfannaParams::small());
    let kgraph = kgraph::build(base.clone(), KGraphParams::small());

    let mut table = Table::new(vec!["method", "build_dists", "L", "recall", "dists_per_query"]);
    let indexes: Vec<(&dyn AnnIndex, u64)> = vec![
        (&ieh, ieh.build_report().dist_calcs),
        (&efanna, efanna.build_report().dist_calcs),
        (&kgraph, kgraph.build_report().dist_calcs),
    ];
    for (idx, build_dists) in indexes {
        for p in sweep(idx, &queries, &truth, k, &beam_sweep(), 16) {
            table.row(vec![
                idx.name(),
                build_dists.to_string(),
                p.beam_width.to_string(),
                format!("{:.4}", p.recall),
                (p.dist_calcs / queries.len() as u64).to_string(),
            ]);
        }
        eprintln!("done: {}", idx.name());
    }
    table.emit(&results_dir(), "ext_ieh_check").expect("write results");
    println!(
        "The paper's exclusion is justified if IEH needs more distance \
         calls than EFANNA at matched recall (hash buckets route worse \
         than randomized K-D trees on dense embeddings)."
    );
}
