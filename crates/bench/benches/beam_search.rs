//! Beam-search engine micro-benchmarks: linear-buffer vs two-heap queues
//! and flat vs adjacency-list graph layouts (Figure 17's micro level),
//! plus the candidate pool's insert on its vector and scalar paths.
//!
//! ```sh
//! cargo bench -p gass-bench --bench beam_search
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gass_bench::beam_search_two_heaps;
use gass_core::distance::{set_simd_enabled, DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph, GraphView};
use gass_core::neighbor::{Neighbor, SortedBuffer};
use gass_core::search::{beam_search, SearchScratch};
use gass_core::visited::VisitedSet;
use gass_data::synth::deep_like;
use gass_graphs::{HnswIndex, HnswParams};
use std::hint::black_box;

fn bench_beam(c: &mut Criterion) {
    let n = 5_000;
    let base = deep_like(n, 1);
    let queries = deep_like(16, 2);
    let index = HnswIndex::build(
        base.clone(),
        HnswParams { m: 12, ef_construction: 64, seed: 3, threads: 1 },
    );
    let flat: &FlatGraph = index.base_graph();
    let mut lists = AdjacencyGraph::new(n);
    for u in 0..n as u32 {
        lists.set_neighbors(u, flat.neighbors(u).to_vec());
    }
    let counter = DistCounter::new();
    let space = Space::new(index.store(), &counter);
    let mut scratch = SearchScratch::new(n, 64);
    let mut visited = VisitedSet::new(n);

    let mut group = c.benchmark_group("beam_search");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(4));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for l in [16usize, 64] {
        group.bench_with_input(BenchmarkId::new("flat_linear", l), &l, |b, &l| {
            b.iter(|| {
                for (_, q) in queries.iter() {
                    black_box(beam_search(flat, space, q, &[0], 10, l, &mut scratch));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("lists_linear", l), &l, |b, &l| {
            b.iter(|| {
                for (_, q) in queries.iter() {
                    black_box(beam_search(&lists, space, q, &[0], 10, l, &mut scratch));
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("flat_two_heaps", l), &l, |b, &l| {
            b.iter(|| {
                for (_, q) in queries.iter() {
                    black_box(beam_search_two_heaps(flat, space, q, &[0], 10, l, &mut visited));
                }
            })
        });
    }
    group.finish();
}

/// `SortedBuffer::insert` alone: one fixed stream of 256 candidates
/// (distinct ids, distances from a fixed LCG, so about a third are kept at
/// width 32, as in a serving search) inserted after a `reset` to each
/// width. `vector` resets with the SIMD tier on, so where the CPU has AVX2
/// widths up to 32 take the small layout's one-pass insert and wider pools
/// (128: construction at `ef = 128`; 140: a PQ rerank pool of 14 × 10) the
/// back-to-front shift insert; `scalar` resets with it off, the binary
/// search plus `memmove`. Time ÷ 256 is the cost of one insert.
fn bench_sorted_buffer(c: &mut Criterion) {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let stream: Vec<Neighbor> = (0..256u32)
        .map(|id| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            Neighbor::new(id, (state >> 40) as f32)
        })
        .collect();
    let mut group = c.benchmark_group("sorted_buffer");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for width in [16usize, 20, 32, 128, 140] {
        for (path, simd) in [("vector", true), ("scalar", false)] {
            set_simd_enabled(simd);
            let mut buffer = SortedBuffer::new(width);
            group.bench_with_input(BenchmarkId::new(path, width), &width, |b, &width| {
                b.iter(|| {
                    buffer.reset(width);
                    let mut kept = 0usize;
                    for &n in &stream {
                        kept += usize::from(buffer.insert(black_box(n)));
                    }
                    kept
                })
            });
        }
    }
    set_simd_enabled(true);
    group.finish();
}

criterion_group!(benches, bench_beam, bench_sorted_buffer);
criterion_main!(benches);
