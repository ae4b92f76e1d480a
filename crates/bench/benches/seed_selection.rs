//! Seed-selection micro-benchmarks: per-query overhead of each strategy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gass_core::distance::{DistCounter, Space};
use gass_core::seed::{FixedSeed, MedoidSeed, RandomSeeds, SeedProvider};
use gass_data::synth::deep_like;
use gass_graphs::Hierarchy;
use gass_trees::kdtree::KdForest;
use std::hint::black_box;

fn bench_seeds(c: &mut Criterion) {
    let n = 5_000;
    let base = deep_like(n, 1);
    let queries = deep_like(16, 2);
    let counter = DistCounter::new();
    let space = Space::new(&base, &counter);

    let sn = Hierarchy::build_over_store(space, 8, 32, 1);
    let kd = KdForest::build(&base, 4, 16, 2);
    let md = MedoidSeed::compute(space);
    let sf = FixedSeed::random(n, 3);
    let ks = RandomSeeds::new(n, 4);
    let providers: Vec<(&str, &dyn SeedProvider)> =
        vec![("SN", &sn), ("KD", &kd), ("MD", &md), ("SF", &sf), ("KS", &ks)];

    let mut group = c.benchmark_group("seed_selection");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for (label, provider) in providers {
        group.bench_with_input(BenchmarkId::new("seeds", label), &label, |b, _| {
            let mut out = Vec::new();
            b.iter(|| {
                for (_, q) in queries.iter() {
                    out.clear();
                    provider.select(space, q, 16, 0, &mut out);
                    black_box(&out);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_seeds);
criterion_main!(benches);
