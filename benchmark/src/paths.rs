//! The query path of each index type, re-assembled from the layers' public
//! functions so that every layer boundary can carry a span.
//!
//! `AnnIndex::search` is one opaque call; attributing its time to `seed`,
//! `search`, `reorder`, `sharded` from outside means making the same calls
//! it makes, in the same order, and checking the answer is bit-identical to
//! the opaque call's (the caller does, against the reference pass). With
//! the tracer off these paths record nothing; the untraced rounds still
//! use the opaque call, which is what a user runs.

use crate::trace::{Name, Tracer};
use crate::workload::SEED_PROVIDER_SEED;
use gass_core::distance::{l2_sq, Space};
use gass_core::index::{PrebuiltIndex, QueryParams};
use gass_core::neighbor::{BoundedMaxHeap, Neighbor};
use gass_core::search::{
    beam_search_frozen, beam_search_terminated, SearchResult, SearchScratch, SearchStats,
};
use gass_core::seed::{RandomSeeds, SeedProvider};
use gass_core::{DistCounter, ShardedIndex};
use gass_graphs::HnswIndex;

/// The seed provider a `PrebuiltIndex` was given by `gass serve` /
/// `ShardedIndex::load`, rebuilt outside it (the index keeps its own
/// private) and relabelled through the same reorder map.
fn provider_of(idx: &PrebuiltIndex) -> RandomSeeds {
    let mut p = RandomSeeds::per_query(idx.store().len(), SEED_PROVIDER_SEED);
    if let Some(map) = idx.serving().remap() {
        p.reorder(map);
    }
    p
}

pub enum Decomposed<'a> {
    Hnsw(&'a HnswIndex),
    Prebuilt(&'a PrebuiltIndex, RandomSeeds),
    Sharded(&'a ShardedIndex, Vec<RandomSeeds>),
}

/// Reusable buffers of one decomposed path.
pub struct PathScratch {
    scratch: SearchScratch,
    seeds: Vec<u32>,
}

impl PathScratch {
    pub fn new() -> Self {
        Self { scratch: SearchScratch::new(0, 1), seeds: Vec::new() }
    }
}

impl<'a> Decomposed<'a> {
    pub fn prebuilt(idx: &'a PrebuiltIndex) -> Self {
        Decomposed::Prebuilt(idx, provider_of(idx))
    }

    pub fn sharded(idx: &'a ShardedIndex) -> Self {
        let seeds = (0..idx.num_shards()).map(|s| provider_of(idx.shard(s))).collect();
        Decomposed::Sharded(idx, seeds)
    }

    /// One query through the layers; every call is a span whose count is
    /// the distance evaluations it made.
    pub fn query(
        &self,
        q: &[f32],
        qid: u32,
        p: &QueryParams,
        c: &DistCounter,
        tr: &mut Tracer,
        ps: &mut PathScratch,
    ) -> SearchResult {
        tr.span(Name::Query, qid, |tr| {
            let c0 = c.get();
            let res = match self {
                Decomposed::Hnsw(idx) => hnsw_query(idx, q, qid, p, c, tr, ps),
                Decomposed::Prebuilt(idx, seeds) => {
                    prebuilt_query(idx, seeds, q, qid, p, c, tr, ps)
                }
                Decomposed::Sharded(idx, seeds) => {
                    sharded_query(idx, seeds, q, qid, p, c, tr, ps)
                }
            };
            (res, c.get() - c0)
        })
    }
}

fn hnsw_query(
    idx: &HnswIndex,
    q: &[f32],
    qid: u32,
    p: &QueryParams,
    c: &DistCounter,
    tr: &mut Tracer,
    ps: &mut PathScratch,
) -> SearchResult {
    let space = Space::new(idx.store(), c).with_quant(idx.serving().quant_view(p));
    let entry = tr.span(Name::SeedSelect, qid, |_| {
        let c0 = c.get();
        let e = idx
            .hierarchy()
            .descend_budgeted(space, q, p.max_dists)
            .unwrap_or_else(|| idx.serving().to_new(0));
        (e, c.get() - c0)
    });
    let res = tr.span(Name::SearchBeam, qid, |_| {
        let c0 = c.get();
        ps.scratch.prepare(idx.store().len(), p.beam_width);
        let r = beam_search_frozen(
            idx.base_graph(),
            idx.csr(),
            space,
            q,
            &[entry],
            p.k,
            p.beam_width,
            &mut ps.scratch,
            p.termination(),
        );
        (r, c.get() - c0)
    });
    tr.span(Name::ReorderFinish, qid, |_| (idx.serving().finish(res), 0))
}

#[allow(clippy::too_many_arguments)]
fn prebuilt_query(
    idx: &PrebuiltIndex,
    seeds: &RandomSeeds,
    q: &[f32],
    qid: u32,
    p: &QueryParams,
    c: &DistCounter,
    tr: &mut Tracer,
    ps: &mut PathScratch,
) -> SearchResult {
    let space = Space::new(idx.store(), c).with_quant(idx.serving().quant_view(p));
    tr.span(Name::SeedSelect, qid, |_| {
        let c0 = c.get();
        ps.seeds.clear();
        seeds.seeds(space, q, p.seed_count, &mut ps.seeds);
        ((), c.get() - c0)
    });
    let res = tr.span(Name::SearchBeam, qid, |_| {
        let c0 = c.get();
        ps.scratch.prepare(idx.store().len(), p.beam_width);
        let (k, l, term) = (p.k, p.beam_width, p.termination());
        let r = match idx.serving().csr() {
            Some(csr) => {
                beam_search_terminated(csr, space, q, &ps.seeds, k, l, &mut ps.scratch, term)
            }
            None => beam_search_terminated(
                idx.graph(),
                space,
                q,
                &ps.seeds,
                k,
                l,
                &mut ps.scratch,
                term,
            ),
        };
        (r, c.get() - c0)
    });
    tr.span(Name::ReorderFinish, qid, |_| (idx.serving().finish(res), 0))
}

/// The probe plan of `ShardedIndex`: shards in ascending query-to-centroid
/// distance (ties by shard number), cut to `nprobe`; every centroid
/// evaluation is counted, as the index counts its own.
pub fn route(idx: &ShardedIndex, q: &[f32], c: &DistCounter) -> Vec<usize> {
    let shards = idx.num_shards();
    let mut order: Vec<(f32, usize)> = (0..shards)
        .map(|s| {
            c.bump();
            (l2_sq(q, idx.centroids().get(s as u32)), s)
        })
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    order.truncate(idx.nprobe().min(shards));
    order.into_iter().map(|(_, s)| s).collect()
}

/// `ShardedIndex::search` under a fixed termination: rank centroids, probe
/// the nearest `nprobe` shards in rank order, merge through one heap.
#[allow(clippy::too_many_arguments)]
fn sharded_query(
    idx: &ShardedIndex,
    seeds: &[RandomSeeds],
    q: &[f32],
    qid: u32,
    p: &QueryParams,
    c: &DistCounter,
    tr: &mut Tracer,
    ps: &mut PathScratch,
) -> SearchResult {
    let plan =
        tr.span(Name::ShardedRoute, qid, |_| (route(idx, q, c), idx.num_shards() as u64));
    let mut heap = BoundedMaxHeap::new(p.k);
    let mut stats = SearchStats { hops: 0, evaluated: idx.num_shards() };
    for &s in &plan {
        let res = tr.span(Name::ShardedProbe, qid, |tr| {
            let c0 = c.get();
            let r = prebuilt_query(idx.shard(s), &seeds[s], q, qid, p, c, tr, ps);
            (r, c.get() - c0)
        });
        tr.span(Name::ShardedMerge, qid, |_| {
            stats.hops += res.stats.hops;
            stats.evaluated += res.stats.evaluated;
            let to_global = idx.shard_ids(s);
            for n in res.neighbors {
                heap.push(Neighbor::new(to_global[n.id as usize], n.dist));
            }
            ((), 0)
        });
    }
    SearchResult { neighbors: heap.into_sorted(), stats }
}
