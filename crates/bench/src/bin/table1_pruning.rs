//! Table 1: pruning ratios of the ND methods on Deep and Sift.
//!
//! Paper numbers: RND 20%/25%, MOND 2%/4%, RRND 0.6%/0.7% (Deep/Sift).
//! Shape to reproduce: RND ≫ MOND ≫ RRND; absolute values depend on the
//! candidate-list construction, which we mirror (beam-search candidate
//! lists from graph construction).
//!
//! ```sh
//! cargo run --release -p gass-bench --bin table1_pruning
//! ```

use gass_bench::results_dir;
use gass_core::distance::{DistCounter, Space};
use gass_core::nd::NdStrategy;
use gass_core::neighbor::Neighbor;
use gass_data::DatasetKind;
use gass_eval::Table;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let n = 8_000 * gass_bench::scale();
    let list_len = 100;
    let probes = 60;
    println!(
        "Table 1: ND pruning ratios, {n} vectors, {probes} candidate lists of {list_len}\n"
    );

    let mut table = Table::new(vec!["dataset", "RND", "MOND", "RRND"]);
    for kind in [DatasetKind::Deep, DatasetKind::Sift] {
        let store = kind.generate_base(n, 7);
        // Candidate lists come from construction-style beam searches over
        // a real II graph (visited lists are diverse, unlike exact k-NN
        // lists), matching how the paper's diversification step sees
        // candidates.
        let graph = gass_graphs::baseline::build(
            store.clone(),
            gass_graphs::IiParams::small(gass_core::NdStrategy::Rnd),
        );
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut rng = SmallRng::seed_from_u64(13);
        let mut sums = [0.0f64; 3];
        for _ in 0..probes {
            let q = rng.random_range(0..n as u32);
            // The diversification step in real construction re-prunes a
            // node's *overflow list*: its already-diversified neighbors
            // plus the handful of new reverse-edge candidates — so the
            // measured ratios are small, as in the paper's Table 1.
            use gass_core::graph::GraphView;
            let mut cands: Vec<Neighbor> = graph
                .graph()
                .neighbors(q)
                .iter()
                .map(|&v| Neighbor::new(v, gass_core::l2_sq(store.get(q), store.get(v))))
                .collect();
            let res = graph.search_with(
                &gass_core::seed::RandomSeeds::new(n, 5),
                store.get(q),
                &gass_core::QueryParams::new(list_len, list_len).with_seed_count(8),
                &counter,
            );
            for c in res.neighbors {
                if c.id != q
                    && !cands.iter().any(|x| x.id == c.id)
                    && cands.len() < graph.graph().neighbors(q).len() + 8
                {
                    cands.push(c);
                }
            }
            sums[0] += NdStrategy::Rnd.pruning_ratio(space, q, &cands);
            sums[1] += NdStrategy::mond_default().pruning_ratio(space, q, &cands);
            sums[2] += NdStrategy::rrnd_default().pruning_ratio(space, q, &cands);
        }
        let pct = |x: f64| format!("{:.1}%", 100.0 * x / probes as f64);
        table.row(vec![kind.name(), pct(sums[0]), pct(sums[1]), pct(sums[2])]);
        println!(
            "shape check {} — RND > MOND > RRND: {}",
            kind.name(),
            sums[0] > sums[1] && sums[1] > sums[2]
        );
    }
    table.emit(&results_dir(), "table1_pruning").expect("write results");
}
