//! Beam search — Algorithm 1 of the paper — plus the greedy 1-NN descent
//! used by hierarchical seed selection.
//!
//! Every state-of-the-art graph method answers queries with the *same*
//! best-first beam search; they differ only in the graph they traverse and
//! the seeds they start from. This module is therefore the single search
//! implementation shared by all methods in `gass-graphs`, which is exactly
//! the normalization the paper performs across its twelve baselines.

use crate::distance::{
    l2_sq, l2_sq_batch, prefetch_enabled, prefetch_slice, DistCounter, Space,
};
use crate::graph::GraphView;
use crate::neighbor::{Neighbor, SortedBuffer};
use crate::quant::{CodecStore, PqStore, PreparedQuery, QuantizedStore, Sq4Store};
use crate::term::{TermState, Termination};
use crate::visited::VisitedSet;

/// Evaluates `$body` with `$c` bound to the concrete codec behind the
/// `&dyn CodecStore` `$codec` — SQ8, SQ4 or PQ, resolved once per search
/// through [`CodecStore::as_any`] — so the traversal the body runs is
/// instantiated per codec and every scoring and prefetch call inside its
/// loop is static and inlinable. Any other codec runs the same traversal
/// instantiated at `dyn CodecStore`.
macro_rules! with_concrete_codec {
    ($codec:expr, |$c:ident| $body:expr) => {{
        let codec: &dyn CodecStore = $codec;
        let any = codec.as_any();
        if let Some($c) = any.downcast_ref::<QuantizedStore>() {
            $body
        } else if let Some($c) = any.downcast_ref::<Sq4Store>() {
            $body
        } else if let Some($c) = any.downcast_ref::<PqStore>() {
            $body
        } else {
            let $c = codec;
            $body
        }
    }};
}

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
    /// The seeds a [`crate::seed::SeedProvider`] selected for the search
    /// this scratch serves (reused, like `prepared`).
    pub seeds: Vec<u32>,
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
        Self {
            visited: VisitedSet::new(n),
            buffer,
            prepared: PreparedQuery::default(),
            seeds: Vec::new(),
        }
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
    search_gated(graph, space, query, seeds, k, beam_width, scratch, term, |_, _| true)
}

/// [`beam_search_frozen`] with a `gate` on the traversal: each neighbour
/// that passes the visited filter is offered to `gate(id, bound)` before
/// it is scored, where `bound` is the buffer's [`SortedBuffer::bound`]
/// read once at the start of the hop. A rejected neighbour stays visited
/// and is never scored, counted or admitted; seeds are not gated.
/// Everything else — scoring kernels, codec dispatch, prefetch,
/// termination, the exact rerank and the counter publish — is the same
/// loop every other search runs. LSHAPG's probabilistic routing (a sketch
/// estimate against the bound) is this gate.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_gated<G: GraphView + ?Sized>(
    graph: &G,
    csr: Option<&crate::graph::CsrGraph>,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
    gate: impl FnMut(u32, f32) -> bool,
) -> SearchResult {
    match csr {
        Some(c) => search_gated(c, space, query, seeds, k, beam_width, scratch, term, gate),
        None => search_gated(graph, space, query, seeds, k, beam_width, scratch, term, gate),
    }
}

/// The one codec dispatch of the beam search: [`beam_search_gated`]
/// passes its caller's gate, [`beam_search_terminated`] an always-true one.
/// The second copy `beam_search_terminated` used to keep showed no
/// measurable gain when folded here (DESIGN.md §8 has the runs).
#[allow(clippy::too_many_arguments)]
fn search_gated<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
    gate: impl FnMut(u32, f32) -> bool,
) -> SearchResult {
    match space.quant() {
        Some(qv) => with_concrete_codec!(qv.store(), |codec| {
            beam_search_quantized(
                graph,
                space,
                codec,
                qv.rerank_factor(),
                query,
                seeds,
                k,
                beam_width,
                scratch,
                term,
                gate,
            )
        }),
        None => beam_search_full(
            graph, space, query, seeds, k, beam_width, scratch, None, term, gate,
        ),
    }
}

/// How the one traversal loop ([`traverse`]) scores candidates. Each
/// scorer keeps its own kernels and charges its own counter precision;
/// every method is bit-identical to one-at-a-time [`Scorer::score`] calls
/// in the same order, so the loop's evaluation order and buffer content
/// do not depend on how a scorer batches.
///
/// Scoring does not count: a search tallies its evaluations in a local
/// and hands the total to [`Scorer::publish`] once, when it returns — one
/// shared-counter update per search instead of one per scored batch.
trait Scorer {
    /// Distance to vector `id`.
    fn score(&self, id: u32) -> f32;
    /// Distances to four vectors at once.
    fn score4(&self, ids: [u32; 4]) -> [f32; 4];
    /// Scores a pending tail (fewer than four ids), calling `emit` in
    /// `ids` order.
    fn score_tail(&self, ids: &[u32], emit: impl FnMut(u32, f32));
    /// Hints the CPU to pull vector `id`'s row (or code row) toward L1.
    fn prefetch(&self, id: u32);
    /// Adds `n` evaluations to the search's [`DistCounter`] at this
    /// scorer's precision.
    fn publish(&self, n: usize);
}

/// Full-precision rows of [`Space`]'s store: the batched `l2_sq_batch`
/// kernel, a tail of singles, `f32` counts.
struct FullRows<'a> {
    space: Space<'a>,
    query: &'a [f32],
}

impl Scorer for FullRows<'_> {
    #[inline]
    fn score(&self, id: u32) -> f32 {
        l2_sq(self.query, self.space.store().get(id))
    }

    #[inline]
    fn score4(&self, ids: [u32; 4]) -> [f32; 4] {
        let store = self.space.store();
        l2_sq_batch(self.query, ids.map(|id| store.get(id)))
    }

    #[inline]
    fn score_tail(&self, ids: &[u32], mut emit: impl FnMut(u32, f32)) {
        for &id in ids {
            emit(id, self.score(id));
        }
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        self.space.store().prefetch(id);
    }

    fn publish(&self, n: usize) {
        self.space.counter().add(n as u64);
    }
}

/// Code rows of a concrete codec against a prepared query, `u8` counts.
struct CodeRows<'a, C: CodecStore + ?Sized> {
    codec: &'a C,
    prepared: &'a PreparedQuery,
    counter: &'a DistCounter,
}

impl<C: CodecStore + ?Sized> Scorer for CodeRows<'_, C> {
    #[inline]
    fn score(&self, id: u32) -> f32 {
        self.codec.dist_prepared(self.prepared, id)
    }

    #[inline]
    fn score4(&self, ids: [u32; 4]) -> [f32; 4] {
        self.codec.dist_prepared_batch(self.prepared, ids)
    }

    /// Pairs — one pair-kernel call where the codec has one — then a last
    /// single.
    #[inline]
    fn score_tail(&self, ids: &[u32], mut emit: impl FnMut(u32, f32)) {
        let mut pairs = ids.chunks_exact(2);
        for pair in &mut pairs {
            let ds = self.codec.dist_prepared_pair(self.prepared, [pair[0], pair[1]]);
            emit(pair[0], ds[0]);
            emit(pair[1], ds[1]);
        }
        for &id in pairs.remainder() {
            emit(id, self.score(id));
        }
    }

    #[inline]
    fn prefetch(&self, id: u32) {
        self.codec.prefetch(id);
    }

    fn publish(&self, n: usize) {
        self.counter.add_u8(n as u64);
    }
}

/// Scores `fresh` (ids already visited-filtered) four at a time through
/// [`Scorer::score4`], the tail through [`Scorer::score_tail`], calling
/// `emit` in `fresh` order. Returns how many were scored.
#[inline(always)]
fn score_in_fours<S: Scorer>(
    scorer: &S,
    fresh: impl Iterator<Item = u32>,
    mut emit: impl FnMut(u32, f32),
) -> usize {
    let mut pending = [0u32; 4];
    let mut fill = 0usize;
    let mut scored = 0usize;
    for id in fresh {
        pending[fill] = id;
        fill += 1;
        if fill == 4 {
            let ds = scorer.score4(pending);
            for (&id, &d) in pending.iter().zip(ds.iter()) {
                emit(id, d);
            }
            scored += 4;
            fill = 0;
        }
    }
    scorer.score_tail(&pending[..fill], emit);
    scored + fill
}

/// Records one evaluated candidate: into `sink` when there is one, and
/// offered to the buffer.
#[inline]
fn admit(buffer: &mut SortedBuffer, sink: &mut Option<&mut Vec<Neighbor>>, n: Neighbor) {
    if let Some(sink) = sink.as_deref_mut() {
        sink.push(n);
    }
    buffer.insert(n);
}

/// The beam-search loop (Algorithm 1) every traversal in this module runs:
/// visited-filter the in-range seeds and score them through
/// [`score_in_fours`], then repeatedly pop the closest unexpanded
/// candidate, check `term`, visited-filter its neighbour list, offer each
/// fresh neighbour to `gate` (with the buffer's bound as it stood when the
/// hop began) and score the admitted ones four at a time, the tail through
/// [`Scorer::score_tail`]. Every scored id is admitted in list order.
/// `visited` and `buffer` must be prepared. The evaluation count is
/// published once, when the loop ends.
///
/// With prefetch on (read once per search), every in-range seed's row is
/// prefetched before the first seed is scored, so the warm-up's loads
/// overlap each other. Each hop first prefetches the neighbour list of the
/// *next* unexpanded candidate — it is what the next hop reads unless this
/// hop inserts a closer one — and each fresh neighbour's row as it passes
/// the filter: the filter work on the rest of the list overlaps both
/// fetches.
#[allow(clippy::too_many_arguments)]
fn traverse<G: GraphView + ?Sized, S: Scorer>(
    graph: &G,
    scorer: &S,
    seeds: &[u32],
    k: usize,
    visited: &mut VisitedSet,
    buffer: &mut SortedBuffer,
    mut sink: Option<&mut Vec<Neighbor>>,
    term: Termination,
    mut gate: impl FnMut(u32, f32) -> bool,
) -> SearchStats {
    let n = graph.num_nodes();
    let prefetch = prefetch_enabled();
    let mut stats = SearchStats::default();
    let mut tstate = TermState::new(term, k);
    let in_range = seeds.iter().copied().filter(|&s| (s as usize) < n);
    if prefetch {
        in_range.clone().for_each(|s| scorer.prefetch(s));
    }
    stats.evaluated +=
        score_in_fours(scorer, in_range.filter(|&s| visited.insert(s)), |id, d| {
            admit(buffer, &mut sink, Neighbor::new(id, d))
        });

    while let Some(current) = buffer.next_unexpanded() {
        // Emission-time termination: `current` is the closest unexpanded
        // candidate, so the DistRatio margin and the budget are checked
        // once per expansion, never per distance.
        if tstate.should_stop(current.dist, buffer, stats.evaluated) {
            break;
        }
        stats.hops += 1;
        let bound = buffer.bound();
        if prefetch {
            if let Some(next) = buffer.peek_unexpanded() {
                prefetch_slice(graph.neighbors(next));
            }
        }
        let mut pending = [0u32; 4];
        let mut fill = 0usize;
        for &nb in graph.neighbors(current.id) {
            if visited.insert(nb) {
                if prefetch {
                    scorer.prefetch(nb);
                }
                if !gate(nb, bound) {
                    continue;
                }
                pending[fill] = nb;
                fill += 1;
                if fill == 4 {
                    let ds = scorer.score4(pending);
                    stats.evaluated += 4;
                    for (&id, &d) in pending.iter().zip(ds.iter()) {
                        admit(buffer, &mut sink, Neighbor::new(id, d));
                    }
                    fill = 0;
                }
            }
        }
        scorer.score_tail(&pending[..fill], |id, d| {
            admit(buffer, &mut sink, Neighbor::new(id, d))
        });
        stats.evaluated += fill;
        tstate.note_expansion(buffer);
    }
    scorer.publish(stats.evaluated);
    stats
}

/// Two-phase quantized beam search: [`traverse`] with every candidate
/// scored in code space by `codec`; the candidate buffer is widened to
/// hold at least `rerank * k` entries, and the leading `rerank * k`
/// candidates are re-scored with exact `f32` distances before the final
/// top-`k` cut. Returned distances are therefore always exact; only the
/// traversal ranking is approximate.
///
/// `stats.evaluated` (and the [`DistCounter`] total) counts both phases —
/// the `u8`/`f32` split is on the counter, published once per phase.
#[allow(clippy::too_many_arguments)]
fn beam_search_quantized<G: GraphView + ?Sized, C: CodecStore + ?Sized>(
    graph: &G,
    space: Space<'_>,
    codec: &C,
    rerank: usize,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    term: Termination,
    gate: impl FnMut(u32, f32) -> bool,
) -> SearchResult {
    if graph.num_nodes() == 0 || seeds.is_empty() {
        return SearchResult::default();
    }
    scratch.prepare(graph.num_nodes(), beam_width.max(k.saturating_mul(rerank)));
    codec.prepare_into(query, &mut scratch.prepared);
    let SearchScratch { visited, buffer, prepared, .. } = scratch;
    let rows = CodeRows { codec, prepared, counter: space.counter() };
    let mut stats = traverse(graph, &rows, seeds, k, visited, buffer, None, term, gate);

    // Phase 2: exact rerank. Re-score the `rerank_factor * k` best
    // quantized candidates with full-precision distances (4-wide batched)
    // and return the exact top `k` of that pool. The pool's rows are cold
    // (the traversal read codes), so with prefetch on they are all
    // requested before the first is scored.
    let cands = buffer.top_k(k.saturating_mul(rerank));
    let exact_rows = FullRows { space, query };
    if prefetch_enabled() {
        cands.iter().for_each(|c| exact_rows.prefetch(c.id));
    }
    let mut exact = Vec::with_capacity(cands.len());
    let scored = score_in_fours(&exact_rows, cands.iter().map(|c| c.id), |id, d| {
        exact.push(Neighbor::new(id, d))
    });
    exact_rows.publish(scored);
    stats.evaluated += scored;
    exact.sort_unstable();
    exact.truncate(k);
    SearchResult { neighbors: exact, stats }
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
        |_, _| true,
    )
}

/// Full-precision search shared by [`beam_search_with_sink`] (always
/// Fixed) and the non-quantized arms of [`beam_search_terminated`] and
/// [`search_gated`]: [`traverse`] over the `f32` rows of `space`.
#[allow(clippy::too_many_arguments)]
fn beam_search_full<G: GraphView + ?Sized>(
    graph: &G,
    space: Space<'_>,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    beam_width: usize,
    scratch: &mut SearchScratch,
    sink: Option<&mut Vec<Neighbor>>,
    term: Termination,
    gate: impl FnMut(u32, f32) -> bool,
) -> SearchResult {
    if graph.num_nodes() == 0 || seeds.is_empty() {
        return SearchResult::default();
    }
    scratch.prepare(graph.num_nodes(), beam_width.max(k));
    let rows = FullRows { space, query };
    let stats = traverse(
        graph,
        &rows,
        seeds,
        k,
        &mut scratch.visited,
        &mut scratch.buffer,
        sink,
        term,
        gate,
    );
    SearchResult { neighbors: scratch.buffer.top_k(k), stats }
}

/// [`beam_search`] over an index that may have been frozen into CSR form:
/// traverses `csr` when present, `graph` otherwise — a frozen index's
/// `graph` is the empty placeholder its build graph left, and is never
/// read. Both arms are
/// statically dispatched — this is the one `match` every index's `search`
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
    match space.quant() {
        Some(qv) => with_concrete_codec!(qv.store(), |codec| {
            greedy_search_quantized(graph, space, codec, query, entry, visited, max_dists)
        }),
        None => descend(graph, &FullRows { space, query }, entry, visited, max_dists),
    }
}

/// Quantized greedy descent (see [`greedy_search_with`]): [`descend`] on
/// code-space distances from `codec`, then an exact re-score of the final
/// best — on a budget stop as on convergence, so the returned distance is
/// always exact.
fn greedy_search_quantized<G: GraphView + ?Sized, C: CodecStore + ?Sized>(
    graph: &G,
    space: Space<'_>,
    codec: &C,
    query: &[f32],
    entry: u32,
    visited: &mut VisitedSet,
    max_dists: usize,
) -> (Neighbor, SearchStats) {
    let mut prepared = PreparedQuery::default();
    codec.prepare_into(query, &mut prepared);
    let rows = CodeRows { codec, prepared: &prepared, counter: space.counter() };
    let (best, mut stats) = descend(graph, &rows, entry, visited, max_dists);
    stats.evaluated += 1;
    (Neighbor::new(best.id, space.dist_to(query, best.id)), stats)
}

/// The greedy hill-climb every descent runs: score `entry`, then
/// repeatedly visited-filter the best node's neighbour list, score the
/// fresh neighbours four at a time through `scorer` (the tail through
/// [`Scorer::score_tail`]) and move to the closest, until a hop improves
/// nothing or `max_dists` (`0` = unlimited) is spent.
/// The budget is checked once per hop, before the list is touched; the
/// prefetch switch is read once per descent. Distances are `scorer`'s;
/// the evaluation count is published on either exit.
fn descend<G: GraphView + ?Sized, S: Scorer>(
    graph: &G,
    scorer: &S,
    entry: u32,
    visited: &mut VisitedSet,
    max_dists: usize,
) -> (Neighbor, SearchStats) {
    let prefetch = prefetch_enabled();
    let mut stats = SearchStats::default();
    visited.resize(graph.num_nodes());
    visited.clear();
    visited.insert(entry);
    let mut best = Neighbor::new(entry, scorer.score(entry));
    stats.evaluated += 1;
    loop {
        if max_dists > 0 && stats.evaluated >= max_dists {
            scorer.publish(stats.evaluated);
            return (best, stats);
        }
        stats.hops += 1;
        let list = graph.neighbors(best.id);
        let mut improved = false;
        let mut offer = |id: u32, d: f32| {
            if d < best.dist {
                best = Neighbor::new(id, d);
                improved = true;
            }
        };
        let mut pending = [0u32; 4];
        let mut fill = 0usize;
        for &nb in list {
            if visited.insert(nb) {
                if prefetch {
                    scorer.prefetch(nb);
                }
                pending[fill] = nb;
                fill += 1;
                if fill == 4 {
                    let ds = scorer.score4(pending);
                    stats.evaluated += 4;
                    for (&id, &d) in pending.iter().zip(ds.iter()) {
                        offer(id, d);
                    }
                    fill = 0;
                }
            }
        }
        scorer.score_tail(&pending[..fill], &mut offer);
        stats.evaluated += fill;
        if !improved {
            scorer.publish(stats.evaluated);
            return (best, stats);
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
        let mut scratch = SearchScratch::new(10, 4);
        let (c1, c3) = (DistCounter::new(), DistCounter::new());
        let once = beam_search(&g, Space::new(&store, &c1), &[0.0], &[5], 1, 4, &mut scratch);
        let thrice =
            beam_search(&g, Space::new(&store, &c3), &[0.0], &[5, 5, 5], 1, 4, &mut scratch);
        assert_eq!(once.neighbors[0].id, 0);
        // Seed 5 is scored once despite triplication: the same walk, the
        // same evaluations, the same counter total.
        assert_eq!(thrice.neighbors, once.neighbors);
        assert_eq!(thrice.stats, once.stats);
        assert_eq!(c3.get(), c1.get());
    }

    #[test]
    fn a_gated_neighbour_stays_visited_and_unscored() {
        let (store, g) = line_world();
        let mut scratch = SearchScratch::new(10, 4);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let all = beam_search_gated(
            &g,
            None,
            space,
            &[9.0],
            &[4],
            1,
            4,
            &mut scratch,
            Termination::FIXED,
            |_, _| true,
        );
        let plain = beam_search(&g, space, &[9.0], &[4], 1, 4, &mut scratch);
        assert_eq!((all.neighbors, all.stats), (plain.neighbors, plain.stats));

        // Rejecting node 5 cuts the chain: 6..=9 are never reached, 5 is
        // offered once and never scored, and only 0..=4 are counted.
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut offered = Vec::new();
        let gated = beam_search_gated(
            &g,
            None,
            space,
            &[9.0],
            &[4],
            1,
            4,
            &mut scratch,
            Termination::FIXED,
            |id, bound| {
                offered.push((id, bound));
                id != 5
            },
        );
        assert_eq!(gated.neighbors[0].id, 4);
        assert_eq!(gated.stats.evaluated, 5);
        assert_eq!(counter.get(), 5);
        assert_eq!(offered.iter().filter(|&&(id, _)| id == 5).count(), 1);
        assert!(!offered.iter().any(|&(id, _)| id == 4), "seeds are not gated");
        // The bound is the buffer's, read at the start of each hop: +inf
        // until the 4-wide buffer holds four candidates.
        assert_eq!(offered[..2], [(3, f32::INFINITY), (5, f32::INFINITY)]);
        assert!(offered.iter().any(|&(_, b)| b.is_finite()), "{offered:?}");
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
