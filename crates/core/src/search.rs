//! Beam search — Algorithm 1 of the paper — plus the greedy 1-NN descent
//! used by hierarchical seed selection.
//!
//! Every state-of-the-art graph method answers queries with the *same*
//! best-first beam search; they differ only in the graph they traverse and
//! the seeds they start from. This module is therefore the single search
//! implementation shared by all methods in `gass-graphs`, which is exactly
//! the normalization the paper performs across its twelve baselines.

use crate::distance::Space;
use crate::graph::GraphView;
use crate::neighbor::{Neighbor, SortedBuffer};
use crate::quant::PreparedQuery;
use crate::term::{TermState, Termination};
use crate::visited::VisitedSet;

/// Counters describing one beam-search invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes expanded (popped from the candidate buffer).
    pub hops: usize,
    /// Nodes whose distance to the query was evaluated.
    pub evaluated: usize,
}

/// Result of a beam search: the `k` best neighbors found plus traversal
/// counters.
#[derive(Clone, Debug, Default)]
pub struct SearchResult {
    /// Up to `k` nearest candidates found, closest first.
    pub neighbors: Vec<Neighbor>,
    /// Traversal counters.
    pub stats: SearchStats,
}

/// Reusable per-thread scratch (visited set + candidate buffer). Allocate
/// once, reuse across queries; `prepare` handles growth and epoch reset.
#[derive(Clone, Debug)]
pub struct SearchScratch {
    /// Epoch-versioned visited set.
    pub visited: VisitedSet,
    /// Sorted linear candidate buffer.
    pub buffer: SortedBuffer,
    /// Query mapped into quantized code space (reused across queries so
    /// the quantized path allocates nothing per search after warmup).
    pub prepared: PreparedQuery,
}

impl SearchScratch {
    /// Scratch sized for a graph of `n` nodes and beam width `l`.
    pub fn new(n: usize, l: usize) -> Self {
        // A search over `n` nodes inserts at most `n` candidates, so the
        // buffer allocates for `min(l, n)` and `reset` sets the width `l`
        // without allocating: a beam width read from the wire cannot
        // reserve more memory than the graph can fill.
        let mut buffer = SortedBuffer::new(l.clamp(1, n.max(1)));
        buffer.reset(l.max(1));
        Self { visited: VisitedSet::new(n), buffer, prepared: PreparedQuery::default() }
    }

    /// Readies the scratch for a search over `n` nodes with beam width `l`.
    pub fn prepare(&mut self, n: usize, l: usize) {
        self.visited.resize(n);
        self.visited.clear();
        self.buffer.reset(l.max(1));
    }
}

/// Beam search (Algorithm 1): warm the candidate buffer with `seeds`, then
/// repeatedly expand the closest unexpanded candidate until the buffer
/// stabilizes. Returns the `k` closest discovered nodes.
///
/// `beam_width` (the paper's `L`) controls the accuracy/efficiency
/// trade-off; it must be `>= k` for a full result set.
///
/// ```
/// use gass_core::{beam_search, AdjacencyGraph, DistCounter, SearchScratch, Space, VectorStore};
///
/// // Points 0..5 on a line, chained into a path graph.
/// let store = VectorStore::from_flat(1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
/// let mut graph = AdjacencyGraph::new(5);
/// for i in 0..4 {
///     graph.add_undirected(i, i + 1);
/// }
/// let counter = DistCounter::new();
/// let space = Space::new(&store, &counter);
/// let mut scratch = SearchScratch::new(5, 4);
///
/// let res = beam_search(&graph, space, &[3.2], &[0], 2, 4, &mut scratch);
/// assert_eq!(res.neighbors[0].id, 3);
/// assert!(counter.get() > 0); // every evaluation was counted
/// ```
pub fn beam_search<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
) -> SearchResult {
    beam_search_terminated(
        graph,
        space,
        query,
        seeds,
        k,
        beam_width,
        scratch,
        Termination::FIXED,
    )
}

/// [`beam_search`] with an adaptive [`Termination`] attached. With
/// [`Termination::FIXED`] this *is* `beam_search` — the policy hooks are
/// emission-time only (one check per expansion, right after the buffer
/// pops its best unexpanded candidate), so the visited-filter + 4-wide
/// kernel hot loop is untouched and the fixed path stays bit-identical
/// by construction.
///
/// Any other policy may stop the traversal early; because expansion
/// order is deterministic, an early-stopped run's work is a prefix of
/// the fixed run's, so relaxing `patience`/`eps`/`max_dists` can only
/// improve the result. On the quantized path the exact rerank always
/// runs, even after a budget stop — returned distances stay exact.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_terminated<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
) -> SearchResult {
    if space.quant().is_some() {
        return beam_search_quantized(graph, space, query, seeds, k, beam_width, scratch, term);
    }
    beam_search_full(graph, space, query, seeds, k, beam_width, scratch, None, term)
}

/// Two-phase quantized beam search: the traversal is the exact shape of
/// [`beam_search_with_sink`] but every candidate is scored with the `u8`
/// asymmetric-distance kernel over the attached
/// [`QuantizedStore`](crate::quant::QuantizedStore); the candidate buffer
/// is widened to hold at least `rerank_factor * k` entries, and the
/// leading `rerank_factor * k` candidates are re-scored with exact `f32`
/// distances before the final top-`k` cut. Returned distances are
/// therefore always exact; only the traversal ranking is approximate.
///
/// `stats.evaluated` (and the [`DistCounter`](crate::distance::DistCounter)
/// total) counts both phases — the `u8`/`f32` split is on the counter.
#[allow(clippy::too_many_arguments)]
fn beam_search_quantized<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
) -> SearchResult {
    let qv = space.quant().expect("quantized beam search without a quant view");
    let n = graph.num_nodes();
    let mut stats = SearchStats::default();
    if n == 0 || seeds.is_empty() {
        return SearchResult { neighbors: Vec::new(), stats };
    }
    let rerank = qv.rerank_factor();
    let pool = beam_width.max(k.saturating_mul(rerank));
    scratch.prepare(n, pool);
    qv.store().prepare_into(query, &mut scratch.prepared);
    let mut tstate = TermState::new(term, k);

    for &s in seeds {
        if (s as usize) < n && scratch.visited.insert(s) {
            let d = space.qdist_to(&scratch.prepared, s);
            stats.evaluated += 1;
            scratch.buffer.insert(Neighbor::new(s, d));
        }
    }

    while let Some(current) = scratch.buffer.next_unexpanded() {
        // Emission-time termination: `current` is the closest unexpanded
        // candidate, so the DistRatio margin and the budget are checked
        // once per expansion, never per distance.
        if tstate.should_stop(current.dist, &scratch.buffer, stats.evaluated) {
            break;
        }
        stats.hops += 1;
        let mut pending = [0u32; 4];
        let mut fill = 0usize;
        for &nb in graph.neighbors(current.id) {
            if scratch.visited.insert(nb) {
                space.qprefetch(nb);
                pending[fill] = nb;
                fill += 1;
                if fill == 4 {
                    let ds = space.qdist_to_batch(&scratch.prepared, pending);
                    stats.evaluated += 4;
                    for (&id, &d) in pending.iter().zip(ds.iter()) {
                        scratch.buffer.insert(Neighbor::new(id, d));
                    }
                    fill = 0;
                }
            }
        }
        score_quantized_tail(space, scratch, &pending[..fill]);
        stats.evaluated += fill;
        tstate.note_expansion(&scratch.buffer);
    }

    // Phase 2: exact rerank. Re-score the `rerank_factor * k` best
    // quantized candidates with full-precision distances (4-wide batched)
    // and return the exact top `k` of that pool.
    let cands = scratch.buffer.top_k(k.saturating_mul(rerank));
    let take = cands.len();
    let mut exact = Vec::with_capacity(take);
    let mut i = 0usize;
    while i + 4 <= take {
        let ids = [cands[i].id, cands[i + 1].id, cands[i + 2].id, cands[i + 3].id];
        let ds = space.dist_to_batch(query, ids);
        for (&id, &d) in ids.iter().zip(ds.iter()) {
            exact.push(Neighbor::new(id, d));
        }
        i += 4;
    }
    while i < take {
        exact.push(Neighbor::new(cands[i].id, space.dist_to(query, cands[i].id)));
        i += 1;
    }
    stats.evaluated += take;
    exact.sort_unstable();
    exact.truncate(k);
    SearchResult { neighbors: exact, stats }
}

/// Scores a quantized traversal's pending tail — the fewer than four
/// first-visit neighbours left after the 4-wide batches — in pairs (one
/// pair-kernel call each where the codec has one), then a last single, and
/// inserts them in pending order: the distances, evaluation order and
/// buffer content of one-at-a-time scoring.
#[inline]
fn score_quantized_tail(space: Space<'_>, scratch: &mut SearchScratch, ids: &[u32]) {
    let mut pairs = ids.chunks_exact(2);
    for pair in &mut pairs {
        let ds = space.qdist_to_pair(&scratch.prepared, [pair[0], pair[1]]);
        scratch.buffer.insert(Neighbor::new(pair[0], ds[0]));
        scratch.buffer.insert(Neighbor::new(pair[1], ds[1]));
    }
    for &id in pairs.remainder() {
        let d = space.qdist_to(&scratch.prepared, id);
        scratch.buffer.insert(Neighbor::new(id, d));
    }
}

/// [`beam_search`] variant that can also record **every** evaluated node in
/// `sink` (in evaluation order). Construction algorithms that select edges
/// from the *visited list* of a search (NSG, Vamana) need this.
///
/// Always runs at full precision: construction quality must not depend on
/// quantization, so any quant view on `space` is ignored here.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_with_sink<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    sink: Option<&mut Vec<Neighbor>>,
) -> SearchResult {
    // Construction must see the complete visited list, so the sink path
    // is always Fixed: adaptive termination is a query-time knob only.
    beam_search_full(
        graph,
        space,
        query,
        seeds,
        k,
        beam_width,
        scratch,
        sink,
        Termination::FIXED,
    )
}

/// Full-precision traversal shared by [`beam_search_with_sink`] (always
/// Fixed) and the non-quantized arm of [`beam_search_terminated`].
#[allow(clippy::too_many_arguments)]
fn beam_search_full<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    mut sink: Option<&mut Vec<Neighbor>>,
    term: Termination,
) -> SearchResult {
    let n = graph.num_nodes();
    let mut stats = SearchStats::default();
    if n == 0 || seeds.is_empty() {
        return SearchResult { neighbors: Vec::new(), stats };
    }
    scratch.prepare(n, beam_width.max(k));
    let mut tstate = TermState::new(term, k);

    for &s in seeds {
        if (s as usize) < n && scratch.visited.insert(s) {
            let d = space.dist_to(query, s);
            stats.evaluated += 1;
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(Neighbor::new(s, d));
            }
            scratch.buffer.insert(Neighbor::new(s, d));
        }
    }

    while let Some(current) = scratch.buffer.next_unexpanded() {
        if tstate.should_stop(current.dist, &scratch.buffer, stats.evaluated) {
            break;
        }
        stats.hops += 1;
        // First-visit neighbors are evaluated four at a time through the
        // batched kernel (`l2_sq_batch`, bit-identical per vector), with a
        // scalar tail. Evaluation order — and hence sink order, counter
        // total, and buffer content — matches the one-at-a-time loop.
        //
        // Each accepted candidate's vector is software-prefetched as soon
        // as it enters the pending batch: the remaining visited-filter work
        // for the rest of the neighbor list overlaps the memory latency of
        // the rows the batched kernel is about to touch.
        let mut pending = [0u32; 4];
        let mut fill = 0usize;
        for &nb in graph.neighbors(current.id) {
            if scratch.visited.insert(nb) {
                space.prefetch(nb);
                pending[fill] = nb;
                fill += 1;
                if fill == 4 {
                    let ds = space.dist_to_batch(query, pending);
                    stats.evaluated += 4;
                    for (&id, &d) in pending.iter().zip(ds.iter()) {
                        if let Some(sink) = sink.as_deref_mut() {
                            sink.push(Neighbor::new(id, d));
                        }
                        scratch.buffer.insert(Neighbor::new(id, d));
                    }
                    fill = 0;
                }
            }
        }
        for &id in &pending[..fill] {
            let d = space.dist_to(query, id);
            stats.evaluated += 1;
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(Neighbor::new(id, d));
            }
            scratch.buffer.insert(Neighbor::new(id, d));
        }
        tstate.note_expansion(&scratch.buffer);
    }

    SearchResult { neighbors: scratch.buffer.top_k(k), stats }
}

/// How many queries [`beam_search_coalesced`] interleaves in lockstep.
///
/// Calibrated with a dependent-chain microbenchmark on the serving path:
/// one lane pays full memory latency per expansion (~130 ns/eval on the
/// 100K SQ8 tier), four lanes reach the kernel's throughput floor
/// (~28 ns/eval), and the curve is flat beyond that. Eight keeps margin
/// on deeper memory systems without outgrowing L1 (8 lanes × one
/// neighbor list of codes ≈ 24 KB in flight).
pub const COALESCE_LANES: usize = 8;

/// Interleaved multi-query quantized beam search: runs up to
/// [`COALESCE_LANES`]-sized groups of independent queries in lockstep on
/// *one* thread, alternating a traversal stage (pop the next candidate,
/// visited-filter its neighbor list, software-prefetch the surviving
/// code rows) with an evaluation stage across all lanes. Between a
/// lane's prefetch and its evaluation the other lanes' traversal work
/// executes, so each query's dependent memory accesses — the pop →
/// adjacency row → code rows chain that in-query prefetching cannot
/// cover, because the next frontier depends on the current distances —
/// overlap another query's compute. This is the execution-level payoff
/// of cross-request micro-batching (`gass-serve`): a batch is faster
/// than the sum of its queries, not just cheaper to dispatch.
///
/// Every lane's state evolution — visited-filter order, 4-wide kernel
/// grouping, candidate-buffer inserts, expansion sequence, exact rerank —
/// is exactly that of the sequential [`beam_search`], so results
/// (neighbors, distances, per-query stats, counter totals) are
/// bit-identical to running the lanes one at a time; only the hardware
/// sees the difference. Lanes without a quant view fall back to the
/// sequential search per lane (the exact path's in-query 4-wide
/// prefetching already covers most of its latency).
///
/// `seeds` holds one seed set per query; `scratches` one scratch per
/// lane (prepared internally).
///
/// A lane whose [`Termination`] fires is *retired* — dropped from both
/// stages while the remaining lanes keep interleaving — so a batch mixing
/// easy and hard queries stops paying for its easy lanes as soon as each
/// converges. With [`Termination::FIXED`] behavior and results are
/// bit-identical to the pre-policy coalesced search.
///
/// # Panics
/// Panics if `queries`, `seeds` and `scratches` lengths disagree
/// (`scratches` may be longer).
#[allow(clippy::too_many_arguments)]
pub fn beam_search_coalesced<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    queries: &[&[f32]],
    seeds: &[Vec<u32>],
    k: usize,
    beam_width: usize,
    scratches: &mut [SearchScratch],
    term: Termination,
) -> Vec<SearchResult> {
    assert_eq!(queries.len(), seeds.len(), "one seed set per query");
    assert!(scratches.len() >= queries.len(), "one scratch per lane");
    let Some(qv) = space.quant() else {
        return queries
            .iter()
            .zip(seeds)
            .enumerate()
            .map(|(i, (q, s))| {
                beam_search_terminated(
                    graph,
                    space,
                    q,
                    s,
                    k,
                    beam_width,
                    &mut scratches[i],
                    term,
                )
            })
            .collect();
    };

    let n = graph.num_nodes();
    let lanes = queries.len();
    let rerank = qv.rerank_factor();
    let pool = beam_width.max(k.saturating_mul(rerank));
    let mut stats = vec![SearchStats::default(); lanes];
    let mut active = vec![false; lanes];
    let mut tstates = vec![TermState::new(term, k); lanes];
    // Lanes that expanded a candidate this round: they owe a
    // `note_expansion` after stage B even when the expansion produced no
    // first-visit neighbors, matching the sequential search's
    // per-expansion fingerprint updates exactly.
    let mut expanded = vec![false; lanes];
    // Per-lane first-visit neighbors awaiting evaluation (prefetch issued).
    let mut pend: Vec<Vec<u32>> = vec![Vec::new(); lanes];

    // Seed phase: filter + prefetch every lane first, then evaluate, so
    // even the seed rows arrive under another lane's filter work. The
    // per-lane visit/evaluation order matches the sequential search.
    for li in 0..lanes {
        let scratch = &mut scratches[li];
        scratch.prepare(n, pool);
        if n == 0 || seeds[li].is_empty() {
            continue;
        }
        qv.store().prepare_into(queries[li], &mut scratch.prepared);
        for &s in &seeds[li] {
            if (s as usize) < n && scratch.visited.insert(s) {
                space.qprefetch(s);
                pend[li].push(s);
            }
        }
        active[li] = true;
    }
    for li in 0..lanes {
        let scratch = &mut scratches[li];
        for &s in &pend[li] {
            let d = space.qdist_to(&scratch.prepared, s);
            stats[li].evaluated += 1;
            scratch.buffer.insert(Neighbor::new(s, d));
        }
        pend[li].clear();
    }

    // Main loop: stage A (traverse + prefetch) then stage B (evaluate)
    // across all still-active lanes, until every lane's buffer stabilizes.
    loop {
        let mut any = false;
        for li in 0..lanes {
            if !active[li] {
                continue;
            }
            let scratch = &mut scratches[li];
            match scratch.buffer.next_unexpanded() {
                Some(current) => {
                    // Per-lane emission-time termination → lane retirement.
                    if tstates[li].should_stop(
                        current.dist,
                        &scratch.buffer,
                        stats[li].evaluated,
                    ) {
                        active[li] = false;
                        continue;
                    }
                    stats[li].hops += 1;
                    expanded[li] = true;
                    for &nb in graph.neighbors(current.id) {
                        if scratch.visited.insert(nb) {
                            space.qprefetch(nb);
                            pend[li].push(nb);
                        }
                    }
                    any = true;
                }
                None => active[li] = false,
            }
        }
        if !any {
            break;
        }
        for li in 0..lanes {
            if !expanded[li] {
                continue;
            }
            expanded[li] = false;
            let scratch = &mut scratches[li];
            let p = &mut pend[li];
            // Same 4-wide grouping (and tail) as the sequential quantized
            // search — bit-identical distances in both arms.
            let mut quads = p.chunks_exact(4);
            for quad in &mut quads {
                let ids = [quad[0], quad[1], quad[2], quad[3]];
                let ds = space.qdist_to_batch(&scratch.prepared, ids);
                for (&id, &d) in ids.iter().zip(ds.iter()) {
                    scratch.buffer.insert(Neighbor::new(id, d));
                }
            }
            score_quantized_tail(space, scratch, quads.remainder());
            stats[li].evaluated += p.len();
            p.clear();
            tstates[li].note_expansion(&scratch.buffer);
        }
    }

    // Exact rerank, cross-lane pipelined the same way: prefetch every
    // lane's candidate rows, then re-score lane by lane (the sequential
    // search's exact 4-wide grouping, so distances stay bit-identical).
    let mut cands: Vec<Vec<Neighbor>> = Vec::with_capacity(lanes);
    for scratch in scratches.iter().take(lanes) {
        let c = scratch.buffer.top_k(k.saturating_mul(rerank));
        for nb in &c {
            space.prefetch(nb.id);
        }
        cands.push(c);
    }
    let mut out = Vec::with_capacity(lanes);
    for (li, lane_cands) in cands.iter().enumerate() {
        let take = lane_cands.len();
        let mut exact = Vec::with_capacity(take);
        let mut i = 0usize;
        while i + 4 <= take {
            let ids = [
                lane_cands[i].id,
                lane_cands[i + 1].id,
                lane_cands[i + 2].id,
                lane_cands[i + 3].id,
            ];
            let ds = space.dist_to_batch(queries[li], ids);
            for (&id, &d) in ids.iter().zip(ds.iter()) {
                exact.push(Neighbor::new(id, d));
            }
            i += 4;
        }
        while i < take {
            exact.push(Neighbor::new(
                lane_cands[i].id,
                space.dist_to(queries[li], lane_cands[i].id),
            ));
            i += 1;
        }
        stats[li].evaluated += take;
        exact.sort_unstable();
        exact.truncate(k);
        out.push(SearchResult { neighbors: exact, stats: stats[li] });
    }
    out
}

/// [`beam_search`] over an index that may have been frozen into CSR form:
/// traverses `csr` when present, `graph` otherwise. Both arms are
/// statically dispatched — this is the one `match` every method's `search`
/// does, hoisted out of the traversal so the hot loop never pays virtual
/// dispatch per neighbor list.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_frozen<G: GraphView + ?Sized>(
    graph: &G,
    csr: Option<&crate::graph::CsrGraph>,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
) -> SearchResult {
    match csr {
        Some(c) => beam_search_terminated(c, space, query, seeds, k, beam_width, scratch, term),
        None => {
            beam_search_terminated(graph, space, query, seeds, k, beam_width, scratch, term)
        }
    }
}

/// Greedy 1-NN descent from `entry`: repeatedly move to the closest
/// neighbor until no neighbor improves. This is the per-layer routine of
/// HNSW's hierarchical seed selection (SN) and of ELPIS's leaf routing.
///
/// Allocates a fresh [`VisitedSet`]; hot paths that descend repeatedly
/// should reuse one via [`greedy_search_with`].
pub fn greedy_search<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    entry: u32,
) -> (Neighbor, SearchStats) {
    let mut visited = VisitedSet::new(graph.num_nodes());
    greedy_search_with(graph, space, query, entry, &mut visited)
}

/// [`greedy_search`] with caller-provided scratch. Every node is evaluated
/// at most once: on undirected graphs the naive descent re-scores the node
/// it just came from (and other mutual neighbors) on every hop, and the
/// visited filter removes exactly those redundant evaluations — safe
/// because the running best distance is the minimum over everything
/// already evaluated, so a revisit can never improve it. Neighbor
/// evaluations go through the 4-wide batched kernel like [`beam_search`].
///
/// With a quant view attached to `space`, the descent runs on quantized
/// distances and the final best is re-scored exactly (one `f32`
/// evaluation), so the returned distance is always exact.
pub fn greedy_search_with<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    entry: u32,
    visited: &mut VisitedSet,
) -> (Neighbor, SearchStats) {
    greedy_search_budgeted(graph, space, query, entry, visited, 0)
}

/// [`greedy_search_with`] under a hard `max_dists` evaluation budget
/// (`0` = unlimited, exactly [`greedy_search_with`]). The budget is
/// checked once per hop — before the neighbor list is touched — so an
/// exhausted descent returns the best node found so far instead of
/// finishing the climb. Routing (HNSW's upper-layer descent) degrades
/// gracefully: a mid-quality entry point costs recall far less than a
/// dropped query.
pub fn greedy_search_budgeted<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    entry: u32,
    visited: &mut VisitedSet,
    max_dists: usize,
) -> (Neighbor, SearchStats) {
    if space.quant().is_some() {
        return greedy_search_quantized(graph, space, query, entry, visited, max_dists);
    }
    let mut stats = SearchStats::default();
    visited.resize(graph.num_nodes());
    visited.clear();
    visited.insert(entry);
    let mut best = Neighbor::new(entry, space.dist_to(query, entry));
    stats.evaluated += 1;
    loop {
        if max_dists > 0 && stats.evaluated >= max_dists {
            return (best, stats);
        }
        stats.hops += 1;
        let mut improved = false;
        let mut pending = [0u32; 4];
        let mut fill = 0usize;
        for &nb in graph.neighbors(best.id) {
            if visited.insert(nb) {
                space.prefetch(nb);
                pending[fill] = nb;
                fill += 1;
                if fill == 4 {
                    let ds = space.dist_to_batch(query, pending);
                    stats.evaluated += 4;
                    for (&id, &d) in pending.iter().zip(ds.iter()) {
                        if d < best.dist {
                            best = Neighbor::new(id, d);
                            improved = true;
                        }
                    }
                    fill = 0;
                }
            }
        }
        for &id in &pending[..fill] {
            let d = space.dist_to(query, id);
            stats.evaluated += 1;
            if d < best.dist {
                best = Neighbor::new(id, d);
                improved = true;
            }
        }
        if !improved {
            return (best, stats);
        }
    }
}

/// Quantized greedy descent (see [`greedy_search_with`]): same hill-climb,
/// `u8` distances, exact re-score of the final best.
fn greedy_search_quantized<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    entry: u32,
    visited: &mut VisitedSet,
    max_dists: usize,
) -> (Neighbor, SearchStats) {
    let qv = space.quant().expect("quantized greedy search without a quant view");
    let mut stats = SearchStats::default();
    visited.resize(graph.num_nodes());
    visited.clear();
    visited.insert(entry);
    let mut pq = PreparedQuery::default();
    qv.store().prepare_into(query, &mut pq);
    let mut best = Neighbor::new(entry, space.qdist_to(&pq, entry));
    stats.evaluated += 1;
    loop {
        if max_dists > 0 && stats.evaluated >= max_dists {
            // Exhausted mid-climb: re-score the running best exactly so
            // the returned distance stays exact like the converged path.
            let exact = space.dist_to(query, best.id);
            stats.evaluated += 1;
            return (Neighbor::new(best.id, exact), stats);
        }
        stats.hops += 1;
        let mut improved = false;
        let mut pending = [0u32; 4];
        let mut fill = 0usize;
        for &nb in graph.neighbors(best.id) {
            if visited.insert(nb) {
                space.qprefetch(nb);
                pending[fill] = nb;
                fill += 1;
                if fill == 4 {
                    let ds = space.qdist_to_batch(&pq, pending);
                    stats.evaluated += 4;
                    for (&id, &d) in pending.iter().zip(ds.iter()) {
                        if d < best.dist {
                            best = Neighbor::new(id, d);
                            improved = true;
                        }
                    }
                    fill = 0;
                }
            }
        }
        for &id in &pending[..fill] {
            let d = space.qdist_to(&pq, id);
            stats.evaluated += 1;
            if d < best.dist {
                best = Neighbor::new(id, d);
                improved = true;
            }
        }
        if !improved {
            let exact = space.dist_to(query, best.id);
            stats.evaluated += 1;
            return (Neighbor::new(best.id, exact), stats);
        }
    }
}

/// Exhaustive scan: evaluates the query against *every* vector and returns
/// the exact `k` nearest. The paper's serial-scan baseline (Figure 1) and
/// the reference answer for recall. Runs four vectors at a time through the
/// batched kernel (bit-identical to one-at-a-time evaluation) with a scalar
/// tail, so the exact baseline benefits from the SIMD kernels too.
pub fn serial_scan(space: Space<'_>, query: &[f32], k: usize) -> Vec<Neighbor> {
    let mut heap = crate::neighbor::BoundedMaxHeap::new(k.max(1));
    let n = space.len() as u32;
    let mut id = 0u32;
    while id + 4 <= n {
        let ids = [id, id + 1, id + 2, id + 3];
        let ds = space.dist_to_batch(query, ids);
        for (&i, &d) in ids.iter().zip(ds.iter()) {
            heap.push(Neighbor::new(i, d));
        }
        id += 4;
    }
    while id < n {
        heap.push(Neighbor::new(id, space.dist_to(query, id)));
        id += 1;
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistCounter;
    use crate::graph::AdjacencyGraph;
    use crate::store::VectorStore;

    /// A 1-d line of points 0..10 chained left-right: beam search from one
    /// end must walk to the true nearest neighbor.
    fn line_world() -> (VectorStore, AdjacencyGraph) {
        let store = VectorStore::from_flat(1, (0..10).map(|i| i as f32).collect());
        let mut g = AdjacencyGraph::new(10);
        for i in 0..9u32 {
            g.add_undirected(i, i + 1);
        }
        (store, g)
    }

    #[test]
    fn beam_search_walks_to_true_nn() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[7.2], &[0], 3, 4, &mut scratch);
        assert_eq!(res.neighbors[0].id, 7);
        assert_eq!(res.neighbors[1].id, 8); // |8-7.2|=0.8 < |6-7.2|=1.2
        assert_eq!(res.neighbors[2].id, 6);
        assert!(res.stats.evaluated >= 8, "must traverse the chain");
        assert_eq!(counter.get(), res.stats.evaluated as u64);
    }

    #[test]
    fn larger_beam_never_reduces_result_quality() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 8);
        let narrow = beam_search(&g, space, &[4.4], &[0], 2, 2, &mut scratch);
        let wide = beam_search(&g, space, &[4.4], &[0], 2, 8, &mut scratch);
        assert!(wide.neighbors[0].dist <= narrow.neighbors[0].dist);
        assert_eq!(wide.neighbors[0].id, 4);
    }

    #[test]
    fn empty_seeds_return_empty() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[1.0], &[], 3, 4, &mut scratch);
        assert!(res.neighbors.is_empty());
    }

    #[test]
    fn sink_records_every_evaluation() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 16);
        let mut sink = Vec::new();
        let res = beam_search_with_sink(
            &g,
            space,
            &[9.0],
            &[0],
            1,
            16,
            &mut scratch,
            Some(&mut sink),
        );
        assert_eq!(sink.len(), res.stats.evaluated);
        // With beam width >= n on a connected chain, everything is visited.
        assert_eq!(sink.len(), 10);
    }

    #[test]
    fn greedy_descends_to_local_minimum() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let (best, stats) = greedy_search(&g, space, &[6.1], 0);
        assert_eq!(best.id, 6);
        assert!(stats.hops >= 6);
        // The visited filter caps evaluations at one per node: walking
        // 0->6 on the chain touches nodes 0..=7 exactly once each.
        assert_eq!(stats.evaluated, 8);
        assert_eq!(counter.get(), stats.evaluated as u64);
    }

    #[test]
    fn greedy_with_reused_scratch_matches_fresh() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut visited = crate::visited::VisitedSet::new(10);
        for q in [0.4f32, 8.7, 3.2] {
            let fresh = greedy_search(&g, space, &[q], 0);
            let reused = greedy_search_with(&g, space, &[q], 0, &mut visited);
            assert_eq!(fresh.0, reused.0);
            assert_eq!(fresh.1.evaluated, reused.1.evaluated);
        }
    }

    #[test]
    fn serial_scan_is_exact() {
        let (store, _) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let exact = serial_scan(space, &[3.3], 2);
        assert_eq!(exact[0].id, 3);
        assert_eq!(exact[1].id, 4);
        assert_eq!(counter.get(), 10);
    }

    #[test]
    fn beam_search_duplicate_seeds_counted_once() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[0.0], &[5, 5, 5], 1, 4, &mut scratch);
        assert_eq!(res.neighbors[0].id, 0);
        // Seed 5 evaluated exactly once despite triplication.
        let evaluated_seed_phase = 1;
        assert!(res.stats.evaluated >= evaluated_seed_phase);
    }

    #[test]
    fn quantized_beam_search_matches_exact_on_line() {
        let (store, g) = line_world();
        let qs = crate::quant::QuantizedStore::from_store(&store);
        let counter = DistCounter::new();
        let space =
            Space::new(&store, &counter).with_quant(Some(crate::QuantView::new(&qs, 2)));
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[7.2], &[0], 3, 4, &mut scratch);
        assert_eq!(res.neighbors[0].id, 7);
        // Rerank restores exact distances: |7 - 7.2|^2.
        assert!((res.neighbors[0].dist - 0.04).abs() < 1e-5, "{}", res.neighbors[0].dist);
        // Both phases counted, total still matches the stats.
        assert_eq!(counter.get(), res.stats.evaluated as u64);
        assert!(counter.get_u8() > 0, "traversal must run on u8 distances");
        assert!(counter.get_f32() > 0, "rerank must run on f32 distances");
    }

    #[test]
    fn quantized_buffer_holds_the_rerank_pool() {
        let (store, g) = line_world();
        let qs = crate::quant::QuantizedStore::from_store(&store);
        let counter = DistCounter::new();
        let space =
            Space::new(&store, &counter).with_quant(Some(crate::QuantView::new(&qs, 3)));
        let mut scratch = SearchScratch::new(10, 2);
        // beam_width 2 < rerank_factor * k = 6: the pool must widen.
        let res = beam_search(&g, space, &[9.0], &[0], 2, 2, &mut scratch);
        assert_eq!(res.neighbors.len(), 2);
        assert_eq!(res.neighbors[0].id, 9);
    }

    #[test]
    fn quantized_greedy_returns_exact_distance() {
        let (store, g) = line_world();
        let qs = crate::quant::QuantizedStore::from_store(&store);
        let counter = DistCounter::new();
        let space =
            Space::new(&store, &counter).with_quant(Some(crate::QuantView::new(&qs, 2)));
        let (best, stats) = greedy_search(&g, space, &[6.1], 0);
        assert_eq!(best.id, 6);
        assert!((best.dist - 0.01).abs() < 1e-4, "{}", best.dist);
        assert_eq!(counter.get(), stats.evaluated as u64);
        assert_eq!(counter.get_f32(), 1, "exactly one exact re-score");
    }

    #[test]
    fn coalesced_search_is_bit_identical_to_sequential() {
        // A 16-d random-ish world big enough that lanes traverse distinct
        // regions, with a connected ring plus chords.
        let n = 400usize;
        let dim = 16usize;
        let mut flat = Vec::with_capacity(n * dim);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..n * dim {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            flat.push((state >> 40) as f32 / 1024.0 - 8.0);
        }
        let store = VectorStore::from_flat(dim, flat);
        let mut g = AdjacencyGraph::new(n);
        for i in 0..n as u32 {
            g.add_undirected(i, (i + 1) % n as u32);
            g.add_undirected(i, (i * 7 + 13) % n as u32);
            g.add_undirected(i, (i * 31 + 5) % n as u32);
        }
        let qs = crate::quant::QuantizedStore::from_store(&store);

        let queries: Vec<Vec<f32>> = (0..7)
            .map(|q| (0..dim).map(|d| ((q * dim + d) % 17) as f32 - 8.0).collect())
            .collect();
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let seeds: Vec<Vec<u32>> = (0..7u32).map(|q| vec![q * 53 % n as u32, 0]).collect();

        let counter_seq = DistCounter::new();
        let space_seq =
            Space::new(&store, &counter_seq).with_quant(Some(crate::QuantView::new(&qs, 3)));
        let mut scratch = SearchScratch::new(n, 12);
        let seq: Vec<SearchResult> = query_refs
            .iter()
            .zip(&seeds)
            .map(|(q, s)| beam_search(&g, space_seq, q, s, 4, 12, &mut scratch))
            .collect();

        let counter_co = DistCounter::new();
        let space_co =
            Space::new(&store, &counter_co).with_quant(Some(crate::QuantView::new(&qs, 3)));
        let mut lane_scratch: Vec<SearchScratch> =
            (0..7).map(|_| SearchScratch::new(n, 12)).collect();
        let co = beam_search_coalesced(
            &g,
            space_co,
            &query_refs,
            &seeds,
            4,
            12,
            &mut lane_scratch,
            Termination::FIXED,
        );

        assert_eq!(seq.len(), co.len());
        for (s, c) in seq.iter().zip(&co) {
            assert_eq!(s.neighbors, c.neighbors, "ids and exact distances must match bitwise");
            assert_eq!(s.stats, c.stats, "traversal work must be identical");
        }
        assert_eq!(counter_seq.get(), counter_co.get());
        assert_eq!(counter_seq.get_u8(), counter_co.get_u8());
        assert_eq!(counter_seq.get_f32(), counter_co.get_f32());
    }

    /// PQ codes that score one row per kernel call: the reference for the
    /// batched and paired scoring of the quantized traversals.
    #[derive(Clone, Debug)]
    struct OneRowAtATime(crate::quant::PqStore);

    impl crate::quant::CodecStore for OneRowAtATime {
        fn spec(&self) -> crate::quant::CodecSpec {
            crate::quant::CodecStore::spec(&self.0)
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
        fn permute(&self, map: &crate::reorder::IdRemap) -> Box<dyn crate::quant::CodecStore> {
            Box::new(Self(self.0.permute(map)))
        }
        fn heap_bytes(&self) -> usize {
            self.0.heap_bytes()
        }
        fn clone_box(&self) -> Box<dyn crate::quant::CodecStore> {
            Box::new(self.clone())
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn quantized_tails_scored_in_pairs_match_one_row_at_a_time() {
        // Out-degrees 1..=7 around a ring, so expansions leave pending
        // tails of one, two and three candidates after the 4-wide batches.
        let (n, dim) = (300usize, 24usize);
        let mut state = 0x51_7cc1_b727_220au64;
        let flat: Vec<f32> = (0..n * dim)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 40) as f32 / 4096.0 - 2048.0
            })
            .collect();
        let store = VectorStore::from_flat(dim, flat);
        let mut g = AdjacencyGraph::new(n);
        for u in 0..n as u32 {
            g.add_edge(u, (u + 1) % n as u32);
            for j in 0..(u % 7) {
                g.add_edge(u, (u * 37 + j * 101 + 7) % n as u32);
            }
        }
        let pq = crate::quant::PqStore::from_store(&store, Some(6));
        let reference = OneRowAtATime(pq.clone());
        let queries: Vec<Vec<f32>> = (0..6).map(|q| store.get(q * 47 + 3).to_vec()).collect();
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let seeds: Vec<Vec<u32>> = (0..6u32).map(|q| vec![q * 29 % n as u32]).collect();
        let run = |codec: &dyn crate::quant::CodecStore| {
            let counter = DistCounter::new();
            let space =
                Space::new(&store, &counter).with_quant(Some(crate::QuantView::new(codec, 3)));
            let mut scratch = SearchScratch::new(n, 24);
            let seq: Vec<SearchResult> = query_refs
                .iter()
                .zip(&seeds)
                .map(|(q, s)| beam_search(&g, space, q, s, 5, 24, &mut scratch))
                .collect();
            let mut lanes: Vec<SearchScratch> =
                (0..6).map(|_| SearchScratch::new(n, 24)).collect();
            let co = beam_search_coalesced(
                &g,
                space,
                &query_refs,
                &seeds,
                5,
                24,
                &mut lanes,
                Termination::FIXED,
            );
            (seq, co, counter.get_u8(), counter.get_f32())
        };
        let (seq, co, u8s, f32s) = run(&pq);
        let (want, _, want_u8s, want_f32s) = run(&reference);
        assert_eq!((u8s, f32s), (want_u8s, want_f32s), "u8 / f32 evaluation counts");
        for ((s, c), w) in seq.iter().zip(&co).zip(&want) {
            assert_eq!(s.neighbors, w.neighbors, "sequential: ids and distance bits");
            assert_eq!(s.stats, w.stats, "sequential: traversal work");
            assert_eq!(c.neighbors, w.neighbors, "coalesced: ids and distance bits");
            assert_eq!(c.stats, w.stats, "coalesced: traversal work");
        }
    }

    #[test]
    fn coalesced_without_quant_falls_back_per_lane() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let queries: Vec<Vec<f32>> = vec![vec![7.2], vec![1.4]];
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let seeds = vec![vec![0u32], vec![9u32]];
        let mut lane_scratch: Vec<SearchScratch> =
            (0..2).map(|_| SearchScratch::new(10, 4)).collect();
        let res = beam_search_coalesced(
            &g,
            space,
            &query_refs,
            &seeds,
            2,
            4,
            &mut lane_scratch,
            Termination::FIXED,
        );
        assert_eq!(res[0].neighbors[0].id, 7);
        assert_eq!(res[1].neighbors[0].id, 1);
    }

    #[test]
    fn coalesced_handles_empty_and_out_of_range_lanes() {
        let (store, g) = line_world();
        let qs = crate::quant::QuantizedStore::from_store(&store);
        let counter = DistCounter::new();
        let space =
            Space::new(&store, &counter).with_quant(Some(crate::QuantView::new(&qs, 2)));
        let queries: Vec<Vec<f32>> = vec![vec![3.3], vec![5.0], vec![8.0]];
        let query_refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        // Lane 1 has no seeds; lane 2 only an out-of-range seed.
        let seeds = vec![vec![0u32], vec![], vec![99u32]];
        let mut lane_scratch: Vec<SearchScratch> =
            (0..3).map(|_| SearchScratch::new(10, 4)).collect();
        let res = beam_search_coalesced(
            &g,
            space,
            &query_refs,
            &seeds,
            2,
            4,
            &mut lane_scratch,
            Termination::FIXED,
        );
        assert_eq!(res[0].neighbors[0].id, 3);
        assert!(res[1].neighbors.is_empty());
        assert!(res[2].neighbors.is_empty());
    }

    #[test]
    fn terminated_fixed_is_bit_identical_to_beam_search() {
        let (store, g) = line_world();
        let c1 = DistCounter::new();
        let mut scratch = SearchScratch::new(10, 8);
        let base = beam_search(&g, Space::new(&store, &c1), &[6.3], &[0], 3, 8, &mut scratch);
        let c2 = DistCounter::new();
        let fixed = beam_search_terminated(
            &g,
            Space::new(&store, &c2),
            &[6.3],
            &[0],
            3,
            8,
            &mut scratch,
            Termination::FIXED,
        );
        assert_eq!(base.neighbors, fixed.neighbors);
        assert_eq!(base.stats, fixed.stats);
        assert_eq!(c1.get(), c2.get());
    }

    #[test]
    fn budget_caps_traversal_work() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 8);
        // From node 0 toward 9.0: a budget of 3 stops the walk long
        // before the far end; the partial result is the best prefix.
        let term = Termination { policy: crate::term::TerminationPolicy::Fixed, max_dists: 3 };
        let res = beam_search_terminated(&g, space, &[9.0], &[0], 2, 8, &mut scratch, term);
        assert!(res.stats.evaluated <= 4, "budget overshoot is at most one expansion");
        assert!(!res.neighbors.is_empty(), "budgeted search still returns its best prefix");
    }

    #[test]
    fn saturation_stops_after_convergence() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 10);
        let fixed = beam_search(&g, space, &[0.1], &[0], 1, 10, &mut scratch);
        let c2 = DistCounter::new();
        let space2 = Space::new(&store, &c2);
        let term = Termination {
            policy: crate::term::TerminationPolicy::Saturation { patience: 2 },
            max_dists: 0,
        };
        let sat = beam_search_terminated(&g, space2, &[0.1], &[0], 1, 10, &mut scratch, term);
        // Query sits on node 0: the top-1 never changes, so saturation
        // stops after `patience` expansions while fixed walks the beam out.
        assert_eq!(sat.neighbors[0], fixed.neighbors[0]);
        assert!(sat.stats.evaluated < fixed.stats.evaluated);
    }

    #[test]
    fn greedy_budget_returns_partial_descent() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut visited = crate::visited::VisitedSet::new(10);
        let (full, full_stats) = greedy_search_with(&g, space, &[6.1], 0, &mut visited);
        assert_eq!(full.id, 6);
        let (capped, capped_stats) =
            greedy_search_budgeted(&g, space, &[6.1], 0, &mut visited, 3);
        assert!(capped_stats.evaluated <= full_stats.evaluated);
        assert!(capped_stats.evaluated <= 4, "budget stops the climb early");
        assert!(capped.dist >= full.dist, "partial descent can only be farther");
        // Unlimited budget is exactly the plain descent.
        let (unlimited, unlimited_stats) =
            greedy_search_budgeted(&g, space, &[6.1], 0, &mut visited, 0);
        assert_eq!(unlimited, full);
        assert_eq!(unlimited_stats, full_stats);
    }

    #[test]
    fn out_of_range_seeds_are_ignored() {
        let (store, g) = line_world();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut scratch = SearchScratch::new(10, 4);
        let res = beam_search(&g, space, &[0.0], &[99], 1, 4, &mut scratch);
        assert!(res.neighbors.is_empty());
    }
}
