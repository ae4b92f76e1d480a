//! Property: how the quantized traversal reaches its codec is invisible.
//!
//! The traversal resolves SQ8, SQ4 and PQ stores to their concrete type
//! once per search and scores through their 4-row batch and 2-row pair
//! kernels; any other codec runs the same loop through `dyn CodecStore`.
//! Each codec is compared here with the same store behind a wrapper the
//! traversal cannot see through, which also scores one row per call. Ids,
//! distance bits, `SearchStats` and the u8/f32 counter split must match on
//! `beam_search`, `PrebuiltIndex::search_coalesced` and the server's
//! `execute_coalesced` (mixed parameters, adaptive termination and a
//! deadline-style `max_dists` clamp). Out-degrees of 1..=7 leave pending
//! tails of one, two and three candidates after the 4-wide batches.

use gass_core::distance::{DistCounter, QuantView, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph};
use gass_core::index::{AnnIndex, PrebuiltIndex, QueryParams};
use gass_core::quant::{CodecSpec, CodecStore, PreparedQuery};
use gass_core::search::{beam_search, SearchResult, SearchScratch, SearchStats};
use gass_core::{IdRemap, RandomSeeds, TerminationPolicy, VectorStore};
use gass_serve::execute_coalesced;

const N: usize = 600;

/// A codec from outside `gass-core`: forwards every call to the wrapped
/// store, except that a batch is scored one row at a time (and a pair by
/// the trait default, two single rows).
#[derive(Clone, Debug)]
struct Forwarding(Box<dyn CodecStore>);

impl CodecStore for Forwarding {
    fn spec(&self) -> CodecSpec {
        self.0.spec()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn code_row(&self, id: u32) -> &[u8] {
        self.0.code_row(id)
    }
    fn prepare_into(&self, query: &[f32], out: &mut PreparedQuery) {
        self.0.prepare_into(query, out)
    }
    fn dist_prepared(&self, pq: &PreparedQuery, id: u32) -> f32 {
        self.0.dist_prepared(pq, id)
    }
    fn dist_prepared_batch(&self, pq: &PreparedQuery, ids: [u32; 4]) -> [f32; 4] {
        ids.map(|id| self.0.dist_prepared(pq, id))
    }
    fn prefetch(&self, id: u32) {
        self.0.prefetch(id)
    }
    fn decode(&self, id: u32) -> Vec<f32> {
        self.0.decode(id)
    }
    fn permute(&self, map: &IdRemap) -> Box<dyn CodecStore> {
        Box::new(Self(self.0.permute(map)))
    }
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
    fn clone_box(&self) -> Box<dyn CodecStore> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Ids and distance bits of every answer with its work, then the
/// counter's u8 and f32 totals.
type Trace = (Vec<(Vec<(u32, u32)>, SearchStats)>, u64, u64);

fn trace(run: impl FnOnce(&DistCounter) -> Vec<SearchResult>) -> Trace {
    let counter = DistCounter::new();
    let answers = run(&counter)
        .iter()
        .map(|r| (r.neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect(), r.stats))
        .collect();
    (answers, counter.get_u8(), counter.get_f32())
}

#[test]
fn concrete_and_dyn_codec_dispatch_answer_bit_identically() {
    let store: VectorStore = gass_data::synth::manifold_mixture(N, 24, 8, 16, 0.5, 0.1, 5);
    let mut adjacency = AdjacencyGraph::new(N);
    for u in 0..N as u32 {
        adjacency.add_edge(u, (u + 1) % N as u32);
        for j in 0..u % 7 {
            adjacency.add_edge(u, (u * 37 + j * 101 + 7) % N as u32);
        }
    }
    let graph = FlatGraph::from_adjacency(&adjacency, None);
    let queries: Vec<&[f32]> = (0..12u32).map(|q| store.get(q * 47 + 3)).collect();
    let fixed = QueryParams::new(5, 24)
        .with_rerank_factor(3)
        .with_term(TerminationPolicy::Fixed)
        .with_max_dists(0);
    let distratio = fixed.with_term(TerminationPolicy::DistRatio { eps: 0.2 });
    let saturation = QueryParams::new(3, 40)
        .with_rerank_factor(2)
        .with_term(TerminationPolicy::Saturation { patience: 6 });
    // What the server does to a job whose deadline is nearly spent.
    let clamped = fixed.with_max_dists(60);
    let jobs: Vec<(Vec<f32>, QueryParams)> = (queries.iter())
        .zip([fixed, distratio, saturation, clamped].into_iter().cycle())
        .map(|(q, p)| (q.to_vec(), p))
        .collect();

    for spec in CodecSpec::ALL {
        let index = |codec: Box<dyn CodecStore>| {
            let seeds = Box::new(RandomSeeds::per_query(N, 11));
            let mut idx = PrebuiltIndex::new(store.clone(), graph.clone(), seeds, "dispatch");
            idx.freeze();
            idx.set_quantized(codec);
            idx
        };
        let codec = spec.build(&store);
        let wrapped = Forwarding(codec.clone());
        let sequential = |c: &dyn CodecStore| {
            trace(|counter| {
                let space = Space::new(&store, counter).with_quant(Some(QuantView::new(c, 3)));
                let mut scratch = SearchScratch::new(N, 24);
                let seeds = (0..N as u32).step_by(29);
                (queries.iter().zip(seeds))
                    .map(|(q, s)| beam_search(&graph, space, q, &[s], 5, 24, &mut scratch))
                    .collect()
            })
        };
        assert_eq!(sequential(codec.as_ref()), sequential(&wrapped), "{spec}: beam_search");

        let (concrete, wrapped) = (index(codec), index(Box::new(wrapped)));
        for params in [fixed, distratio] {
            assert_eq!(
                trace(|c| concrete.search_coalesced(&queries, &params, c)),
                trace(|c| wrapped.search_coalesced(&queries, &params, c)),
                "{spec}: search_coalesced under {:?}",
                params.term
            );
        }
        let served = trace(|c| execute_coalesced(&concrete, &jobs, c));
        assert_eq!(served, trace(|c| execute_coalesced(&wrapped, &jobs, c)), "{spec}: served");
        assert!(served.1 > served.2, "{spec}: traversal work must be quantized");
    }
}
