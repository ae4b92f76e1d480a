//! Figure 6: the impact of Seed Selection on query answering — distance
//! calculations to reach 0.99 recall under SN / KD / MD / SF / KS, all on
//! the *same* II+RND graph.
//!
//! Paper shape to reproduce: SN and KS best everywhere (KS ahead at the
//! small/medium tiers, SN ahead at the largest); KD competitive until the
//! largest tier; MD and SF worst.
//!
//! ```sh
//! cargo run --release -p gass-bench --bin fig06_ss
//! ```

use gass_bench::{num_queries, results_dir, small_tiers, tiers};
use gass_core::distance::{DistCounter, Space};
use gass_core::index::{PrebuiltIndex, QueryParams};
use gass_core::nd::NdStrategy;
use gass_core::seed::{FixedSeed, MedoidSeed, RandomSeeds, SeedProvider};
use gass_data::DatasetKind;
use gass_eval::{recall_at_k, Table};
use gass_graphs::{baseline, Hierarchy, IiParams};
use gass_trees::kdtree::KdForest;

/// Mean recall + per-query distance calls of one provider at one L.
fn run(
    g: &PrebuiltIndex,
    provider: &dyn SeedProvider,
    queries: &gass_core::VectorStore,
    truth: &[Vec<gass_core::Neighbor>],
    k: usize,
    l: usize,
) -> (f64, u64) {
    let counter = DistCounter::new();
    let params = QueryParams::new(k, l).with_seed_count(k.max(16));
    let mut recall = 0.0;
    for (qi, t) in truth.iter().enumerate() {
        let res = g.search_with(provider, queries.get(qi as u32), &params, &counter);
        recall += recall_at_k(t, &res.neighbors, k);
    }
    (recall / truth.len() as f64, counter.get() / truth.len() as u64)
}

fn main() {
    // The paper uses 100-NN queries for the SS study (more seed-selection
    // overhead); we use k=20 to keep tier runtimes friendly.
    let k = 20;
    let target = 0.99;
    let ls = [20usize, 30, 40, 50, 60, 80, 100, 120, 160, 200, 240, 320, 480, 640];
    let use_all_tiers = std::env::var("GASS_ALL_TIERS").is_ok();
    let tier_list = if use_all_tiers { tiers() } else { small_tiers() };

    let mut table =
        Table::new(vec!["dataset", "tier", "ss", "L@0.99", "recall", "dists_per_query"]);

    for kind in [DatasetKind::Deep, DatasetKind::Sift] {
        for tier in &tier_list {
            let (base, queries) = kind.generate(tier.n, num_queries(), 67);
            let truth = gass_data::ground_truth(&base, &queries, k);
            let g = baseline::build(
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
            let setup = DistCounter::new();
            let space = Space::new(g.store(), &setup);
            let sn = Hierarchy::build_over_store(space, 12, 48, 1);
            let kd = KdForest::build(g.store(), 4, 24, 2);
            let md = MedoidSeed::compute(space);
            let sf = FixedSeed::random(tier.n, 3);
            let ks = RandomSeeds::new(tier.n, 4);
            let providers: Vec<(&str, &dyn SeedProvider)> =
                vec![("SN", &sn), ("KS", &ks), ("KD", &kd), ("MD", &md), ("SF", &sf)];

            for (label, provider) in providers {
                let mut reached = None;
                for &l in &ls {
                    let (recall, dists) = run(&g, provider, &queries, &truth, k, l);
                    if recall >= target {
                        reached = Some((l, recall, dists));
                        break;
                    }
                    reached = Some((l, recall, dists)); // keep the best try
                }
                let (l, recall, dists) = reached.expect("at least one L tried");
                table.row(vec![
                    kind.name(),
                    tier.label.to_string(),
                    label.to_string(),
                    if recall >= target { l.to_string() } else { format!(">{l}") },
                    format!("{recall:.4}"),
                    dists.to_string(),
                ]);
                eprintln!("done: {} {} {}", kind.name(), tier.label, label);
            }
        }
    }
    table.emit(&results_dir(), "fig06_ss").expect("write results");
    println!(
        "Read as Fig. 6: compare dists_per_query at (or nearest to) 0.99 \
         recall. Expect SN/KS lowest, MD/SF highest."
    );
}
