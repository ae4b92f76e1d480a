//! # gass-bench
//!
//! Shared scaffolding for the experiment harnesses that regenerate every
//! table and figure of the paper (one binary per experiment under
//! `src/bin/`), plus criterion micro-benchmarks under `benches/`.
//!
//! ## Scale model
//!
//! The paper's dataset tiers (1M / 25GB / 100GB / 1B vectors) are mapped
//! to laptop-scale defaults; set the `GASS_SCALE` environment variable to
//! scale every tier multiplicatively (e.g. `GASS_SCALE=5` for a 5× larger
//! run). Every harness prints the tier it actually ran, so
//! `EXPERIMENTS.md` comparisons are explicit about scale.

#![warn(missing_docs)]
#![warn(clippy::all)]

use gass_core::distance::Space;
use gass_core::graph::GraphView;
use gass_core::neighbor::{BoundedMaxHeap, Neighbor};
use gass_core::visited::VisitedSet;
use std::path::PathBuf;

/// One dataset-size tier, named after the paper's tier it stands in for.
#[derive(Clone, Copy, Debug)]
pub struct Tier {
    /// Paper tier label ("1M", "25GB", "100GB", "1B").
    pub label: &'static str,
    /// Number of vectors at default scale.
    pub n: usize,
}

/// Scale multiplier from `GASS_SCALE` (default 1).
pub fn scale() -> usize {
    std::env::var("GASS_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1).max(1)
}

/// The four tiers of the paper, at harness scale.
pub fn tiers() -> Vec<Tier> {
    let s = scale();
    vec![
        Tier { label: "1M", n: 8_000 * s },
        Tier { label: "25GB", n: 16_000 * s },
        Tier { label: "100GB", n: 32_000 * s },
        Tier { label: "1B", n: 64_000 * s },
    ]
}

/// The small/medium tiers (most per-method figures stop at 25GB for the
/// excluded methods, as in the paper).
pub fn small_tiers() -> Vec<Tier> {
    tiers().into_iter().take(2).collect()
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Number of queries per workload (paper uses 100).
pub fn num_queries() -> usize {
    std::env::var("GASS_QUERIES").ok().and_then(|s| s.parse().ok()).unwrap_or(40).max(1)
}

/// Row count for the file-backed mapped-tier legs (fig13/fig16): the
/// CI-scale tier size by default, or the paper-scale row count when
/// `GASS_FULL=1` (overridable with `GASS_FULL_N=<rows>` to fit local
/// disk — the serving path is identical at every size, only the page
/// population changes).
pub fn mapped_tier_n(tier: &Tier, paper_rows: usize) -> usize {
    if std::env::var("GASS_FULL").map(|v| v == "1").unwrap_or(false) {
        std::env::var("GASS_FULL_N")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(paper_rows)
            .max(1)
    } else {
        tier.n
    }
}

/// Scratch directory for the streamed mapped-tier files (override with
/// `GASS_MAPPED_DIR` to point at a disk large enough for `GASS_FULL`
/// runs).
pub fn mapped_dir() -> PathBuf {
    std::env::var("GASS_MAPPED_DIR").map(PathBuf::from).unwrap_or_else(|_| std::env::temp_dir())
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`);
/// `None` where `/proc` is unavailable. The mapped-tier harnesses print
/// it as the bounded-heap evidence: the figure ran over an on-disk tier
/// without ever holding the tier in heap.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// File-backed mapped-tier driver shared by the beyond-RAM figures
/// (13/16). Streams a Deep-analog base of `n` rows straight to disk in
/// the mapped `KIND_MSTORE` layout (peak heap: one row), keeps the
/// in-distribution tail as the query set, builds a [`ShardedIndex`] one
/// shard at a time with [`ShardedIndex::build_to_dir`] (peak heap: one
/// shard), then serves the reloaded index — per-shard vector rows
/// page-faulted from disk — across an `nprobe x beam` sweep. Emits one
/// TSV row per point and returns the table.
///
/// [`ShardedIndex`]: gass_core::ShardedIndex
/// [`ShardedIndex::build_to_dir`]: gass_core::ShardedIndex::build_to_dir
pub fn run_mapped_sharded_tier(
    figure: &str,
    tier_label: &str,
    n: usize,
    shards: usize,
    seed: u64,
) -> gass_eval::Table {
    use gass_core::distance::DistCounter;
    use gass_core::persist::MappedStoreWriter;
    use gass_core::seed::RandomSeeds;
    use gass_core::{SeedProvider, ShardedIndex, ShardedParams, VectorStore};
    use gass_graphs::{HnswIndex, HnswParams};

    let k = 10;
    let nq = num_queries();
    let dir = mapped_dir().join(format!("gass_{figure}"));
    std::fs::create_dir_all(&dir).expect("mapped-tier scratch dir");
    let base_path = dir.join("base.store.gass");

    // Stream base rows to disk; only the held-out query tail (drawn from
    // the same generator stream, so in-distribution) stays heap-resident.
    let mut queries = VectorStore::new(96);
    {
        let mut writer =
            MappedStoreWriter::create(&base_path, 96, n).expect("create mapped base");
        let mut i = 0usize;
        gass_data::synth::deep_like_rows(n + nq, seed, |row| {
            if i < n {
                writer.push_row(row).expect("stream mapped base row");
            } else {
                queries.push(row);
            }
            i += 1;
        });
        writer.finish().expect("finish mapped base");
    }
    let base_bytes = std::fs::metadata(&base_path).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "{figure}: streamed {tier_label} base to {} ({:.2} GB on disk)",
        base_path.display(),
        base_bytes as f64 / 1e9
    );

    // The mapped base serves ground truth and the shard build by page
    // fault; nothing below materializes the tier in heap.
    let base = gass_core::persist::open_store(&base_path).expect("open mapped base");
    let truth = gass_data::ground_truth(&base, &queries, k);
    let counter = DistCounter::new();
    let index_dir = dir.join("sharded");
    let t0 = std::time::Instant::now();
    ShardedIndex::build_to_dir(
        &base,
        // Width 1: these tiers' peak-RSS evidence is "one shard resident".
        &ShardedParams::new(shards).with_threads(1),
        &counter,
        &index_dir,
        |s, sub| {
            let built = HnswIndex::build(
                sub.clone(),
                HnswParams { m: 16, ef_construction: 128, seed: seed ^ s as u64, threads: 1 },
            );
            let seeds: Box<dyn SeedProvider> = Box::new(RandomSeeds::per_query(sub.len(), 7));
            (built.base_graph().clone(), seeds)
        },
    )
    .expect("bounded sharded build");
    drop(base);
    eprintln!(
        "{figure}: built {shards} shards one at a time in {:.0}s",
        t0.elapsed().as_secs_f64()
    );

    let idx = ShardedIndex::load(&index_dir).expect("reload mapped sharded index");
    let mut table = gass_eval::Table::new(vec![
        "dataset",
        "n",
        "method",
        "nprobe",
        "L",
        "recall",
        "dist_calcs_per_query",
        "ms_per_query",
    ]);
    for nprobe in [1usize, 2, 4, 8, 16].into_iter().filter(|&p| p <= shards) {
        idx.set_nprobe(nprobe);
        for p in gass_eval::sweep(&idx, &queries, &truth, k, &beam_sweep(), 16) {
            table.row(vec![
                format!("deep-mapped-{tier_label}"),
                n.to_string(),
                "sharded-hnsw".to_string(),
                nprobe.to_string(),
                p.beam_width.to_string(),
                format!("{:.4}", p.recall),
                (p.dist_calcs / queries.len() as u64).to_string(),
                format!("{:.3}", p.seconds * 1e3 / queries.len() as f64),
            ]);
        }
        eprintln!("done: {figure} deep-mapped-{tier_label} nprobe={nprobe}");
    }
    table.emit(&results_dir(), figure).expect("write results");
    if let Some(rss) = peak_rss_bytes() {
        eprintln!(
            "{figure}: peak RSS {:.2} GB over a {:.2} GB on-disk tier",
            rss as f64 / 1e9,
            base_bytes as f64 / 1e9
        );
    }
    if std::env::var("GASS_KEEP_MAPPED").map(|v| v == "1").unwrap_or(false) {
        eprintln!("{figure}: keeping mapped scratch at {}", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    table
}

/// The beam widths swept by the search-performance figures.
pub fn beam_sweep() -> Vec<usize> {
    vec![10, 20, 40, 80, 160, 320]
}

/// Beam-search over a graph using the *two-heap* queue of the original
/// HNSW implementation, for the implementation-impact ablation
/// (Figure 17). Functionally equivalent to the linear-buffer search; the
/// paper normalized all methods to the linear buffer and we measure what
/// that normalization costs/saves.
pub fn beam_search_two_heaps<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    visited: &mut VisitedSet,
) -> Vec<Neighbor> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    visited.resize(graph.num_nodes());
    visited.clear();
    let mut results = BoundedMaxHeap::new(beam_width.max(k));
    let mut frontier: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
    for &s in seeds {
        if (s as usize) < graph.num_nodes() && visited.insert(s) {
            let d = space.dist_to(query, s);
            let n = Neighbor::new(s, d);
            results.push(n);
            frontier.push(Reverse(n));
        }
    }
    while let Some(Reverse(cur)) = frontier.pop() {
        if cur.dist > results.bound() {
            break;
        }
        for &nb in graph.neighbors(cur.id) {
            if visited.insert(nb) {
                let d = space.dist_to(query, nb);
                let n = Neighbor::new(nb, d);
                if d < results.bound() {
                    frontier.push(Reverse(n));
                }
                results.push(n);
            }
        }
    }
    let mut out = results.into_sorted();
    out.truncate(k);
    out
}

/// Shared driver for the search-performance figures (12/13/14/16): build
/// each method on each dataset, sweep beam widths, and emit one TSV row
/// per point. Returns the table for further inspection.
pub fn run_search_figure(
    figure: &str,
    workloads: &[(gass_data::DatasetKind, usize)],
    methods: &[gass_graphs::MethodKind],
    k: usize,
    seed: u64,
) -> gass_eval::Table {
    let mut table = gass_eval::Table::new(vec![
        "dataset",
        "n",
        "method",
        "L",
        "recall",
        "dist_calcs_per_query",
        "ms_per_query",
    ]);
    for &(kind, n) in workloads {
        let (base, queries) = kind.generate(n, num_queries(), seed);
        let truth = gass_data::ground_truth(&base, &queries, k);
        for &method in methods {
            let built = gass_graphs::build_method(method, base.clone(), seed);
            for p in
                gass_eval::sweep(built.index.as_ref(), &queries, &truth, k, &beam_sweep(), 16)
            {
                table.row(vec![
                    kind.name(),
                    n.to_string(),
                    method.name(),
                    p.beam_width.to_string(),
                    format!("{:.4}", p.recall),
                    (p.dist_calcs / queries.len() as u64).to_string(),
                    format!("{:.3}", p.seconds * 1e3 / queries.len() as f64),
                ]);
            }
            eprintln!("done: {} {} {}", figure, kind.name(), method.name());
        }
    }
    table.emit(&results_dir(), figure).expect("write results");
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::distance::DistCounter;
    use gass_core::graph::AdjacencyGraph;
    use gass_core::search::{beam_search, SearchScratch};
    use gass_core::store::VectorStore;

    #[test]
    fn tiers_have_expected_shape() {
        let t = tiers();
        assert_eq!(t.len(), 4);
        assert!(t[0].n < t[3].n);
        assert_eq!(small_tiers().len(), 2);
    }

    #[test]
    fn two_heap_search_matches_linear_buffer() {
        let store = VectorStore::from_flat(1, (0..50).map(|i| i as f32).collect());
        let mut g = AdjacencyGraph::new(50);
        for i in 0..49u32 {
            g.add_undirected(i, i + 1);
        }
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut visited = VisitedSet::new(50);
        let heap_res = beam_search_two_heaps(&g, space, &[33.3], &[0], 5, 16, &mut visited);
        let mut scratch = SearchScratch::new(50, 16);
        let buf_res = beam_search(&g, space, &[33.3], &[0], 5, 16, &mut scratch);
        let a: Vec<u32> = heap_res.iter().map(|n| n.id).collect();
        let b: Vec<u32> = buf_res.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(a, b);
    }
}
