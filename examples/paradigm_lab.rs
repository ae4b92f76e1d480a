//! Paradigm lab: compose your own graph method from the paper's design
//! paradigms — pick a Neighborhood Diversification strategy for the
//! incremental-insertion baseline, then pick a Seed Selection strategy at
//! query time, and see how each choice moves the accuracy/efficiency
//! trade-off.
//!
//! ```sh
//! cargo run --release --example paradigm_lab
//! ```

use gass::prelude::*;
use gass_core::seed::{FixedSeed, MedoidSeed, RandomSeeds};
use gass_core::Space;
use gass_eval::{recall_at_k, Table};
use gass_graphs::Hierarchy;
use gass_trees::kdtree::KdForest;

fn main() {
    let n = 8_000;
    let base = gass::data::synth::sift_like(n, 21);
    let queries = gass::data::synth::sift_like(50, 22);
    let k = 10;
    let truth = gass::data::ground_truth(&base, &queries, k);
    println!("SIFT-like: {} x {}d\n", n, base.dim());

    // ------------------------------------------------------------------
    // Axis 1: Neighborhood Diversification during construction.
    // ------------------------------------------------------------------
    println!("== ND strategies on the II baseline (Section 4.2) ==");
    let mut nd_table = Table::new(vec!["ND", "edges", "recall@10(L=48)", "dists/query"]);
    let mut rnd_graph = None;
    for nd in [
        NdStrategy::NoNd,
        NdStrategy::Rnd,
        NdStrategy::rrnd_default(),
        NdStrategy::mond_default(),
    ] {
        let g = baseline::build(base.clone(), IiParams::small(nd));
        let counter = DistCounter::new();
        let params = QueryParams::new(k, 48).with_seed_count(8);
        let mut recall = 0.0;
        for (qi, t) in truth.iter().enumerate() {
            let res = g.search(queries.get(qi as u32), &params, &counter);
            recall += recall_at_k(t, &res.neighbors, k);
        }
        nd_table.row(vec![
            nd.label().to_string(),
            format!("{}", g.stats().edges),
            format!("{:.4}", recall / truth.len() as f64),
            format!("{}", counter.get() / truth.len() as u64),
        ]);
        if matches!(nd, NdStrategy::Rnd) {
            rnd_graph = Some(g);
        }
    }
    println!("{}", nd_table.render());

    // ------------------------------------------------------------------
    // Axis 2: Seed Selection at query time, on the same II+RND graph.
    // ------------------------------------------------------------------
    println!("== SS strategies on the same II+RND graph (Section 4.3) ==");
    let g = rnd_graph.expect("RND graph built above");
    let setup_counter = DistCounter::new();
    let space = Space::new(g.store(), &setup_counter);

    let sn = Hierarchy::build_over_store(space, 8, 32, 5);
    let kd = KdForest::build(g.store(), 4, 16, 6);
    let md = MedoidSeed::compute(space);
    let sf = FixedSeed::random(n, 7);
    let ks = RandomSeeds::new(n, 8);
    let providers: Vec<(&str, &dyn SeedProvider)> =
        vec![("SN", &sn), ("KD", &kd), ("MD", &md), ("SF", &sf), ("KS", &ks)];

    let mut ss_table = Table::new(vec!["SS", "recall@10(L=48)", "dists/query"]);
    for (label, provider) in providers {
        let counter = DistCounter::new();
        let params = QueryParams::new(k, 48).with_seed_count(16);
        let mut recall = 0.0;
        for (qi, t) in truth.iter().enumerate() {
            let res = g.search_with(provider, queries.get(qi as u32), &params, &counter);
            recall += recall_at_k(t, &res.neighbors, k);
        }
        ss_table.row(vec![
            label.to_string(),
            format!("{:.4}", recall / truth.len() as f64),
            format!("{}", counter.get() / truth.len() as u64),
        ]);
    }
    println!("{}", ss_table.render());
    println!(
        "Paper's take-away: RND/MOND dominate the ND axis; SN and KS dominate \
         the SS axis (SN pulls ahead only at billion scale)."
    );
}
