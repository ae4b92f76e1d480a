//! Scalar vs SIMD distance-kernel micro-benchmarks at the paper's dataset
//! dimensionalities (Sift 128, Deep 96, Glove 25/100, Gist 960). The
//! dispatched kernels (`l2_sq`, `l2_sq_batch`) pick AVX2 at runtime on
//! x86-64; the `*_scalar` rows pin the unrolled reference the dispatcher
//! runs elsewhere and under `set_simd_enabled(false)`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gass_core::distance::{l2_sq, l2_sq_batch, l2_sq_batch_scalar, l2_sq_scalar};
use std::hint::black_box;

fn vectors(dim: usize) -> (Vec<f32>, [Vec<f32>; 4]) {
    let gen = |phase: f32| (0..dim).map(|i| (i as f32 * 0.37 + phase).sin()).collect();
    (gen(0.0), [gen(1.0), gen(2.0), gen(3.0), gen(4.0)])
}

fn bench_simd_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_kernels");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for dim in [25usize, 96, 100, 128, 960] {
        let (q, rows) = vectors(dim);
        let refs = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
        group.bench_with_input(BenchmarkId::new("l2_sq/simd", dim), &dim, |bench, _| {
            bench.iter(|| l2_sq(black_box(&q), black_box(refs[0])))
        });
        group.bench_with_input(BenchmarkId::new("l2_sq/scalar", dim), &dim, |bench, _| {
            bench.iter(|| l2_sq_scalar(black_box(&q), black_box(refs[0])))
        });
        group.bench_with_input(BenchmarkId::new("l2_sq_batch/simd", dim), &dim, |bench, _| {
            bench.iter(|| l2_sq_batch(black_box(&q), black_box(refs)))
        });
        group.bench_with_input(
            BenchmarkId::new("l2_sq_batch/scalar", dim),
            &dim,
            |bench, _| bench.iter(|| l2_sq_batch_scalar(black_box(&q), black_box(refs))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simd_kernels);
criterion_main!(benches);
