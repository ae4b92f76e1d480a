//! The answer-invisible switches change speed only: software prefetch
//! off (`set_prefetch_enabled`), the scalar kernels (`set_simd_enabled`)
//! and two fan-out executors (`set_fanout_workers`) must each leave every
//! id, distance bit, traversal counter, the `u8`/`f32` split of the
//! distance counter and every built graph as it is with every switch at
//! its default — over full precision on adjacency and CSR graphs (with and
//! without adaptive termination), SQ8 / SQ4 / PQ, greedy descent, HNSW
//! construction and search, and a sharded index.
//!
//! The switches are process-global and the harness runs tests on parallel
//! threads, so this binary holds exactly one test.

use gass::prelude::*;
use gass_core::quant::CodecSpec;
use gass_core::sharded::{build_knn_sharded, ShardedParams};
use gass_core::{
    beam_search, beam_search_terminated, greedy_search, set_fanout_workers,
    set_prefetch_enabled, set_simd_enabled, AdjacencyGraph, CodecStore, CsrGraph, GraphView,
    PqStore, QuantView, QuantizedStore, SearchResult, SearchScratch, Space, Sq4Store,
    Termination, TerminationPolicy, VisitedSet,
};

/// What one query shows the outside world: `(id, dist bits)` per neighbor,
/// hops, evaluations, and the counter's `u8` and `f32` totals.
type Seen = (Vec<(u32, u32)>, usize, usize, u64, u64);

fn seen(res: &SearchResult, counter: &DistCounter) -> Seen {
    let ids = res.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect();
    (ids, res.stats.hops, res.stats.evaluated, counter.get_u8(), counter.get_f32())
}

/// 64-bit FNV-1a over the edge lists, node by node.
fn edge_hash(graph: &impl GraphView) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for u in 0..graph.num_nodes() as u32 {
        let list = graph.neighbors(u);
        for w in std::iter::once(list.len() as u32).chain(list.iter().copied()) {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Builds and searches everything once, returning each scenario's name and
/// what it showed.
fn observe() -> Vec<(String, Vec<Seen>)> {
    let base = gass::data::synth::deep_like(1500, 31);
    let queries = gass::data::synth::deep_like(12, 32);
    let qs = || (0..queries.len() as u32).map(|q| queries.get(q));
    let mut out = Vec::new();

    let hnsw = HnswIndex::build(
        base.clone(),
        HnswParams { m: 12, ef_construction: 64, seed: 5, threads: 1 },
    );
    let graph = hnsw.base_graph();
    let built = (Vec::new(), 0, 0, edge_hash(graph), hnsw.build_report().dist_calcs);
    out.push(("hnsw build".to_string(), vec![built]));

    let adjacency = AdjacencyGraph::from_lists(
        (0..graph.num_nodes() as u32).map(|u| graph.neighbors(u).to_vec()).collect(),
    );
    let csr = CsrGraph::from_view(graph);
    let sq8 = QuantizedStore::from_store(&base);
    let sq4 = Sq4Store::from_store(&base);
    let pq = PqStore::from_store(&base, None);
    let codecs: [(&str, Option<&dyn CodecStore>); 4] =
        [("f32", None), ("sq8", Some(&sq8)), ("sq4", Some(&sq4)), ("pq", Some(&pq))];
    let distratio =
        Termination { policy: TerminationPolicy::DistRatio { eps: 0.05 }, max_dists: 0 };
    let mut scratch = SearchScratch::new(base.len(), 32);
    let mut visited = VisitedSet::new(base.len());
    for (name, codec) in codecs {
        let quant = codec.map(|c| QuantView::new(c, 8));
        let mut run = |label: &str, f: &mut dyn FnMut(Space<'_>, &[f32]) -> SearchResult| {
            let per_query = qs()
                .map(|q| {
                    let counter = DistCounter::new();
                    let res = f(Space::new(&base, &counter).with_quant(quant), q);
                    seen(&res, &counter)
                })
                .collect();
            out.push((format!("{name} {label}"), per_query));
        };
        run("adjacency", &mut |s, q| {
            beam_search(&adjacency, s, q, &[0, 7], 10, 32, &mut scratch)
        });
        run("csr", &mut |s, q| beam_search(&csr, s, q, &[0, 7], 10, 32, &mut scratch));
        run("csr distratio", &mut |s, q| {
            beam_search_terminated(&csr, s, q, &[0], 10, 32, &mut scratch, distratio)
        });
        run("greedy", &mut |s, q| {
            let (best, stats) = greedy_search(&adjacency, s, q, 0, &mut visited, 0);
            SearchResult { neighbors: vec![best], stats }
        });
    }

    let mut hnsw = hnsw;
    let build_counter = DistCounter::new();
    let mut sharded =
        build_knn_sharded(&base, &ShardedParams::new(4).with_nprobe(2), 8, &build_counter);
    for codec in [None, Some(CodecSpec::Sq8), Some(CodecSpec::Pq { m: None })] {
        if let Some(spec) = codec {
            hnsw.quantize(spec);
            sharded.quantize(spec);
        } else {
            hnsw.freeze();
            sharded.freeze();
        }
        let params = QueryParams::new(10, 32).with_rerank_factor(4);
        for (name, index) in [("hnsw", &hnsw as &dyn AnnIndex), ("sharded", &sharded)] {
            let per_query = qs()
                .map(|q| {
                    let counter = DistCounter::new();
                    seen(&index.search(q, &params, &counter), &counter)
                })
                .collect();
            out.push((format!("{name} search {codec:?}"), per_query));
        }
    }
    out
}

/// Puts every switch back at its default.
fn defaults() {
    set_prefetch_enabled(true);
    set_simd_enabled(true);
    set_fanout_workers(1);
}

#[test]
fn each_switch_is_observationally_identical_to_the_defaults() {
    defaults();
    let want = observe();
    for (name, seen) in &want {
        assert!(seen.iter().any(|s| s.2 > 0 || s.3 > 0), "{name}: nothing was observed");
    }
    let switches: [(&str, fn()); 3] = [
        ("prefetch off", || set_prefetch_enabled(false)),
        ("simd off", || set_simd_enabled(false)),
        ("two fan-out workers", || set_fanout_workers(2)),
    ];
    for (switch, set) in switches {
        set();
        let got = observe();
        defaults();
        assert_eq!(want.len(), got.len());
        for ((name, a), (_, b)) in want.iter().zip(&got) {
            assert_eq!(a, b, "{name}: {switch} changed what the search shows");
        }
    }
}
