//! Scalar vs SIMD code-space distance micro-benchmarks at the paper's
//! dataset dimensionalities (Glove 25/100, Deep 96, Sift 128, Gist 960),
//! mirroring `simd_kernels` for the f32 path. The dispatched kernels
//! (`l2_sq_u8`, `l2_sq_u8_batch`, `l2_sq_u4`, `l2_sq_u4_batch`, `pq_scan`,
//! `pq_scan_batch`) pick AVX2/NEON at runtime; the `*_scalar` rows pin the reference the
//! dispatcher falls back to under `GASS_NO_SIMD`. The `pq_scan` rows are
//! the 16-entry LUT scan over 4-bit PQ codes (m = dim/6 subquantizers),
//! the inner loop of PQ traversal — `pq_scan/{avx2,vbmi}` and
//! `pq_scan_pair/vbmi` time the x86 kernels the dispatcher picks between
//! (rows present only where the CPU has them); `pq_prepare` is the
//! once-per-query table construction in front of it, `kmeans_assign` the
//! training/encoding kernel (one 8-point block against 16 centroids per
//! iteration) and `pq_train` the codebook training + encoding of a
//! 2000-row store, so a regression in any shows here without the
//! end-to-end benchmark.
//!
//! Inputs come from real code stores so the rows carry the cache-line
//! alignment (SQ8, SQ4) / chunked LUT layout (PQ) the serving path sees;
//! affine rows are sliced to the kernel span the store scores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gass_core::distance::{nearest8, to_blocks8};
use gass_core::quant::{
    l2_sq_u4, l2_sq_u4_batch, l2_sq_u4_batch_scalar, l2_sq_u4_scalar, l2_sq_u8, l2_sq_u8_batch,
    l2_sq_u8_batch_scalar, l2_sq_u8_scalar, pq_scan, pq_scan_batch, pq_scan_batch_scalar,
    pq_scan_scalar, AffineStore, PqStore, Width, U4, U8,
};
#[cfg(target_arch = "x86_64")]
use gass_core::quant::{pq_scan_avx2, pq_scan_pair_vbmi};
use gass_core::{PreparedQuery, VectorStore};
use std::hint::black_box;

fn sample_store(dim: usize, rows: usize) -> (VectorStore, Vec<f32>) {
    let gen = |phase: f32| (0..dim).map(move |i| (i as f32 * 0.37 + phase).sin());
    let flat: Vec<f32> = (0..rows).flat_map(|v| gen(1.0 + v as f32)).collect();
    (VectorStore::from_flat(dim, flat), gen(0.0).collect())
}

fn quantized<W: Width>(dim: usize) -> (AffineStore<W>, PreparedQuery) {
    let (base, query) = sample_store(dim, 5);
    let store = AffineStore::<W>::from_store(&base);
    let mut pq = PreparedQuery::default();
    store.prepare_into(&query, &mut pq);
    (store, pq)
}

fn pq_encoded(dim: usize) -> (PqStore, PreparedQuery) {
    let (base, query) = sample_store(dim, 5);
    let store = PqStore::from_store(&base, None);
    let mut pq = PreparedQuery::default();
    store.prepare_into(&query, &mut pq);
    (store, pq)
}

/// The dispatched and scalar single-row and 4-row kernels of one affine
/// width, over a prepared query and rows sliced to the kernel span.
macro_rules! affine_rows {
    ($group:expr, $dim:expr, $w:ty, $name:literal, $batch_name:literal,
     [$single:ident, $batch:ident, $single_ref:ident, $batch_ref:ident]) => {{
        let (store, pq) = quantized::<$w>($dim);
        let (u, s) = (pq.u(), pq.s());
        let span = u.len() / <$w as Width>::PER_BYTE;
        let row = &store.code_row(0)[..span];
        let rows = [1, 2, 3, 4].map(|id| &store.code_row(id)[..span]);
        $group.bench_with_input(
            BenchmarkId::new(concat!($name, "/simd"), $dim),
            &$dim,
            |b, _| b.iter(|| $single(black_box(u), black_box(s), black_box(row))),
        );
        $group.bench_with_input(
            BenchmarkId::new(concat!($name, "/scalar"), $dim),
            &$dim,
            |b, _| b.iter(|| $single_ref(black_box(u), black_box(s), black_box(row))),
        );
        $group.bench_with_input(
            BenchmarkId::new(concat!($batch_name, "/simd"), $dim),
            &$dim,
            |b, _| b.iter(|| $batch(black_box(u), black_box(s), black_box(rows))),
        );
        $group.bench_with_input(
            BenchmarkId::new(concat!($batch_name, "/scalar"), $dim),
            &$dim,
            |b, _| b.iter(|| $batch_ref(black_box(u), black_box(s), black_box(rows))),
        );
    }};
}

fn bench_quant_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_kernels");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for dim in [25usize, 96, 100, 128, 960] {
        affine_rows!(
            group,
            dim,
            U8,
            "l2_sq_u8",
            "l2_sq_u8_batch",
            [l2_sq_u8, l2_sq_u8_batch, l2_sq_u8_scalar, l2_sq_u8_batch_scalar]
        );
        affine_rows!(
            group,
            dim,
            U4,
            "l2_sq_u4",
            "l2_sq_u4_batch",
            [l2_sq_u4, l2_sq_u4_batch, l2_sq_u4_scalar, l2_sq_u4_batch_scalar]
        );

        // PQ LUT scan at the same dims (m = dim/6 subquantizers, 4-bit
        // codes): the 16-entry compare-select kernel vs its scalar
        // reference, single-row and 4-row batch.
        let (pstore, ppq) = pq_encoded(dim);
        let lut = ppq.lut();
        let prow = pstore.code_row(0);
        let prows =
            [pstore.code_row(1), pstore.code_row(2), pstore.code_row(3), pstore.code_row(4)];
        group.bench_with_input(BenchmarkId::new("pq_scan/simd", dim), &dim, |bench, _| {
            bench.iter(|| pq_scan(black_box(lut), black_box(prow)))
        });
        group.bench_with_input(BenchmarkId::new("pq_scan/scalar", dim), &dim, |bench, _| {
            bench.iter(|| pq_scan_scalar(black_box(lut), black_box(prow)))
        });
        group.bench_with_input(
            BenchmarkId::new("pq_scan_batch/simd", dim),
            &dim,
            |bench, _| bench.iter(|| pq_scan_batch(black_box(lut), black_box(prows))),
        );
        group.bench_with_input(
            BenchmarkId::new("pq_scan_batch/scalar", dim),
            &dim,
            |bench, _| bench.iter(|| pq_scan_batch_scalar(black_box(lut), black_box(prows))),
        );

        // The two x86 kernels behind `pq_scan/simd`, called directly: the
        // AVX2 compare-select scan and the AVX-512 VBMI table lookup (a
        // single row is a pair with itself; `pq_scan_pair` is two rows).
        #[cfg(target_arch = "x86_64")]
        if [96, 128, 960].contains(&dim) {
            if pq_scan_avx2(lut, prow).is_some() {
                group.bench_with_input(
                    BenchmarkId::new("pq_scan/avx2", dim),
                    &dim,
                    |bench, _| bench.iter(|| pq_scan_avx2(black_box(lut), black_box(prow))),
                );
            }
            if pq_scan_pair_vbmi(lut, prow, prow).is_some() {
                group.bench_with_input(
                    BenchmarkId::new("pq_scan/vbmi", dim),
                    &dim,
                    |bench, _| {
                        bench.iter(|| pq_scan_pair_vbmi(black_box(lut), black_box(prow), prow))
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new("pq_scan_pair/vbmi", dim),
                    &dim,
                    |bench, _| {
                        bench.iter(|| {
                            pq_scan_pair_vbmi(black_box(lut), black_box(prows[0]), prows[1])
                        })
                    },
                );
            }
        }
    }
    for dsub in [6usize, 8, 16] {
        // The k-means / PQ-encoding kernel: eight `dsub`-d points (one
        // block) against a 16-centroid codebook; time ÷ 8 = ns per point.
        let (rows, _) = sample_store(dsub, 24);
        let flat = rows.to_flat_vec();
        let block =
            to_blocks8(8, dsub, |pos| flat[pos * dsub..(pos + 1) * dsub].iter().copied());
        let cents = &flat[8 * dsub..];
        group.bench_with_input(BenchmarkId::new("kmeans_assign", dsub), &dsub, |bench, _| {
            bench.iter(|| nearest8(black_box(&block), black_box(cents)))
        });
    }
    for dim in [96usize, 128, 960] {
        // 2000 rows: enough that PQ trains its full 16 centroids.
        let (base, query) = sample_store(dim, 2000);
        let store = PqStore::from_store(&base, None);
        let mut prepared = PreparedQuery::default();
        group.bench_with_input(BenchmarkId::new("pq_prepare", dim), &dim, |bench, _| {
            bench.iter(|| store.prepare_into(black_box(&query), &mut prepared))
        });
        group.bench_with_input(BenchmarkId::new("pq_train", dim), &dim, |bench, _| {
            bench.iter(|| PqStore::from_store(black_box(&base), None))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_quant_kernels);
criterion_main!(benches);
