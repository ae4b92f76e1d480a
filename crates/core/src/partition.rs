//! One partitioned search: the paper's divide-and-conquer query (ELPIS)
//! and IVF-style sharded serving ([`crate::ShardedIndex`]) are the same
//! loop over different routers.
//!
//! A [`Partitioned`] index holds parts — each a full per-part graph index
//! plus the table from its local ids to dataset ids — and a [`Router`] that
//! ranks the parts for a query. A search ranks the parts, probes them in
//! rank order up to `nprobe`, and merges every probe's top-`k` through one
//! bounded neighbor heap:
//!
//! * a router whose keys lower-bound every distance inside their part
//!   ([`Router::prunes`], ELPIS's EAPCA bounds) stops at the first part
//!   whose key is `>=` the merged k-th distance — it cannot improve the
//!   answer;
//! * under an adaptive [`crate::term::TerminationPolicy`] routing is
//!   adaptive (`DistRatio` compares a part's key with the nearest key,
//!   `Saturation` counts probes that retained nothing) and each probe's
//!   traversal runs `Fixed`;
//! * a `max_dists` budget covers the whole query: each probe receives what
//!   the earlier probes left;
//! * with more than one fan-out executor ([`crate::fanout`]) a `Fixed`
//!   query runs its planned probes on the resident pool. A pruning router
//!   first runs its best part, plans the parts still under that probe's
//!   k-th distance, and re-checks the bound at each merge in rank order;
//!   a speculative probe the bound no longer admits is discarded, but its
//!   distances stay counted (in the counter and in `evaluated`). Answers
//!   are identical at every width.
//!
//! Coalesced batches of a router that cannot prune are bucketed by part:
//! each part answers its visitors in one call, and every query merges in
//! its own rank order.

use crate::distance::DistCounter;
use crate::fanout;
use crate::index::{AnnIndex, BuildReport, IndexStats, QueryParams};
use crate::neighbor::{BoundedMaxHeap, Neighbor};
use crate::par::par_for_each_mut;
use crate::search::{SearchResult, SearchScratch, SearchStats};
use crate::term::TerminationPolicy;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// One reusable probe scratch per executor thread. Both the
    /// sequential probe loop and every fan-out worker search through this
    /// slot, so the visited-set/candidate allocations persist across
    /// probes, parts, and batches instead of being re-borrowed from (or
    /// freshly allocated by) each part's own scratch pool per probe.
    static PROBE_SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new(0, 1));
}

/// The index of one part: any [`AnnIndex`] that can search through a
/// caller-owned scratch. Results report the part's *original* local ids.
pub trait PartIndex: AnnIndex {
    /// [`AnnIndex::search`] through `scratch` instead of the index's own
    /// scratch pool. Scratch contents never influence the answer.
    fn search_with_scratch(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
        scratch: &mut SearchScratch,
    ) -> SearchResult;
}

/// Ranks the parts of a [`Partitioned`] index for one query.
pub trait Router: Send + Sync {
    /// Every part as `(key, part)`, in probe order: ascending key, ties by
    /// part number. Distances the ranking evaluates go through `counter`.
    fn rank(&self, query: &[f32], counter: &DistCounter) -> Vec<(f32, usize)>;

    /// The distance evaluations one [`Self::rank`] counts; every search's
    /// `evaluated` starts here.
    fn rank_cost(&self) -> usize;

    /// `true` when a key lower-bounds every distance inside its part, so a
    /// part whose key is `>=` the merged k-th distance is not probed.
    fn prunes(&self) -> bool;

    /// The index name ("ELPIS", "Sharded(6x)").
    fn name(&self) -> String;

    /// Heap bytes of the routing structure, counted in `aux_bytes`.
    fn heap_bytes(&self) -> usize;
}

/// One part: its index plus the translation from local ids back to
/// dataset ids.
pub(crate) struct Part<P> {
    pub(crate) index: P,
    /// `to_global[local] = global`. A local id past the table is a padding
    /// copy of a vector already in the part, and is dropped at the merge.
    pub(crate) to_global: Vec<u32>,
}

/// Parts of type `P` behind a router of type `R`, searched through one
/// probe loop — see the module docs.
pub struct Partitioned<P, R> {
    pub(crate) parts: Vec<Part<P>>,
    pub(crate) router: R,
    pub(crate) dim: usize,
    pub(crate) total: usize,
    /// Parts searched per query. Atomic so serving threads can share the
    /// index immutably while benches sweep the recall/QPS ladder without
    /// rebuilding.
    nprobe: AtomicUsize,
    /// Width of the per-part ladder steps (freeze, quantize, reorder).
    threads: usize,
    build: BuildReport,
}

impl<P: PartIndex, R: Router> Partitioned<P, R> {
    /// Assembles `parts` (each index with its `to_global` table) behind
    /// `router`, probing `nprobe` parts per query (clamped to
    /// `1..=parts`) and running ladder steps `threads` parts at a time
    /// (`0` = all cores).
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn new(parts: Vec<(P, Vec<u32>)>, router: R, nprobe: usize, threads: usize) -> Self {
        assert!(!parts.is_empty(), "a partitioned index needs at least one part");
        let dim = parts[0].0.dim();
        let total = parts.iter().map(|(_, ids)| ids.len()).sum();
        let nprobe = AtomicUsize::new(nprobe.clamp(1, parts.len()));
        let parts =
            parts.into_iter().map(|(index, to_global)| Part { index, to_global }).collect();
        Self { parts, router, dim, total, nprobe, threads, build: BuildReport::default() }
    }

    /// Records what construction cost.
    pub fn with_build_report(mut self, build: BuildReport) -> Self {
        self.build = build;
        self
    }

    /// Construction cost (zero where none was recorded).
    pub fn build_report(&self) -> BuildReport {
        self.build
    }

    /// Number of parts (shards, or ELPIS leaves).
    pub fn num_shards(&self) -> usize {
        self.parts.len()
    }

    /// Parts searched per query.
    pub fn nprobe(&self) -> usize {
        self.nprobe.load(Ordering::Relaxed)
    }

    /// Sets the parts searched per query (clamped to `1..=parts`). Takes
    /// `&self`: serving threads may share the index while a controller
    /// sweeps the recall/QPS ladder.
    pub fn set_nprobe(&self, nprobe: usize) {
        self.nprobe.store(nprobe.clamp(1, self.parts.len()), Ordering::Relaxed);
    }

    /// The router.
    pub fn router(&self) -> &R {
        &self.router
    }

    /// The global ids part `s` holds, in part-local order.
    pub fn shard_ids(&self, s: usize) -> &[u32] {
        &self.parts[s].to_global
    }

    /// Part `s`'s index (the full per-part ladder applies through the
    /// [`AnnIndex`] forwarding methods; this accessor serves inspection
    /// and per-part rebuild flows).
    pub fn shard(&self, s: usize) -> &P {
        &self.parts[s].index
    }

    /// One ladder step over every part, `threads` parts at a time.
    pub(crate) fn for_each_shard_mut(&mut self, step: impl Fn(&mut P) + Sync) {
        par_for_each_mut(self.threads, &mut self.parts, |part| step(&mut part.index));
    }

    /// Parts in rank order, cut to the current `nprobe`.
    fn probe_plan(&self, query: &[f32], counter: &DistCounter) -> Vec<usize> {
        let mut ranked = self.router.rank(query, counter);
        ranked.truncate(self.nprobe());
        ranked.into_iter().map(|(_, s)| s).collect()
    }

    /// One part probe through the calling thread's reusable scratch slot
    /// (see [`PROBE_SCRATCH`]).
    fn probe(
        &self,
        s: usize,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        PROBE_SCRATCH.with(|cell| {
            self.parts[s].index.search_with_scratch(
                query,
                params,
                counter,
                &mut cell.borrow_mut(),
            )
        })
    }

    /// Runs `f` once per part in `plan`, returning results in plan order.
    /// With a configured fan-out pool and more than one planned part, the
    /// jobs run concurrently; otherwise this is the plain sequential loop.
    /// Either way the output order (and therefore every downstream merge)
    /// is identical — per-part work is independent and deterministic, and
    /// `DistCounter` totals commute.
    fn for_each_planned<T, F>(&self, plan: &[usize], f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if plan.len() > 1 {
            if let Some(pool) = fanout::shared_pool() {
                return pool
                    .map(vec![(0..plan.len()).collect()], plan.len(), |rank| f(plan[rank]))
                    .into_iter()
                    .map(|r| r.expect("every planned part job ran"))
                    .collect();
            }
        }
        plan.iter().map(|&s| f(s)).collect()
    }

    /// Counts one probe's work and merges its answers into the shared
    /// heap, translating local ids to dataset ids. Returns `true` when the
    /// probe improved the merged top-`k` (any push was retained) — the
    /// saturation signal adaptive routing watches across probes.
    fn merge(
        &self,
        s: usize,
        res: SearchResult,
        heap: &mut BoundedMaxHeap,
        stats: &mut SearchStats,
    ) -> bool {
        stats.hops += res.stats.hops;
        stats.evaluated += res.stats.evaluated;
        let to_global = &self.parts[s].to_global;
        let mut improved = false;
        for n in res.neighbors {
            if let Some(&id) = to_global.get(n.id as usize) {
                improved |= heap.push(Neighbor::new(id, n.dist));
            }
        }
        improved
    }

    /// [`AnnIndex::search`] also reporting how many parts were merged.
    ///
    /// `nprobe` caps the probes. Before each probe after the first the
    /// loop stops when
    ///
    /// * the router prunes and the part's key is `>=` the merged k-th
    ///   distance, or
    /// * `max_dists` is spent (each probe receives the remaining budget,
    ///   floor 1 so it can at least seed, so the cap holds across parts),
    ///   or
    /// * `DistRatio { eps }` — the part's key is farther than `(1+eps)×`
    ///   the nearest key (the IVF routing margin), or
    /// * `Saturation { patience }` — `patience` consecutive probes
    ///   retained nothing in the merged heap.
    ///
    /// The policy governs **routing**: each probed part runs its
    /// traversal under `Fixed` (plus any remaining budget), so every probe
    /// contributes its full-quality slice answer. Adaptive routing is
    /// inherently sequential, so only `Fixed` queries without a budget fan
    /// out.
    pub fn search_with_probes(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> (SearchResult, usize) {
        let term = params.termination();
        let prunes = self.router.prunes();
        let pruned = |key: f32, heap: &BoundedMaxHeap| prunes && key >= heap.bound();
        let mut heap = BoundedMaxHeap::new(params.k);
        let mut stats = SearchStats { hops: 0, evaluated: self.router.rank_cost() };
        let mut ranked = self.router.rank(query, counter);
        ranked.truncate(self.nprobe());
        let mut probes = 0usize;

        if term.is_fixed() && fanout::fanout_workers() > 1 {
            // A pruning router plans from its best part's k-th distance.
            let head = usize::from(prunes).min(ranked.len());
            for &(_, s) in &ranked[..head] {
                self.merge(s, self.probe(s, query, params, counter), &mut heap, &mut stats);
                probes += 1;
            }
            let plan: Vec<(f32, usize)> = ranked[head..]
                .iter()
                .copied()
                .take_while(|&(key, _)| !pruned(key, &heap))
                .collect();
            let parts: Vec<usize> = plan.iter().map(|&(_, s)| s).collect();
            let results =
                self.for_each_planned(&parts, |s| self.probe(s, query, params, counter));
            for (&(key, s), res) in plan.iter().zip(results) {
                if pruned(key, &heap) {
                    stats.hops += res.stats.hops;
                    stats.evaluated += res.stats.evaluated;
                } else {
                    self.merge(s, res, &mut heap, &mut stats);
                    probes += 1;
                }
            }
            return (SearchResult { neighbors: heap.into_sorted(), stats }, probes);
        }

        let nearest = ranked.first().map_or(0.0, |&(key, _)| key);
        let mut stale = 0usize;
        for &(key, s) in &ranked {
            if probes > 0 {
                let stop = match term.policy {
                    TerminationPolicy::DistRatio { eps } => key > (1.0 + eps) * nearest,
                    TerminationPolicy::Saturation { patience } => stale >= patience.max(1),
                    TerminationPolicy::Fixed => false,
                };
                if stop
                    || pruned(key, &heap)
                    || (term.max_dists > 0 && stats.evaluated >= term.max_dists)
                {
                    break;
                }
            }
            let mut sub = *params;
            sub.term = TerminationPolicy::Fixed;
            sub.max_dists = 0;
            if term.max_dists > 0 {
                sub.max_dists = term.max_dists.saturating_sub(stats.evaluated).max(1);
            }
            let res = self.probe(s, query, &sub, counter);
            stale = if self.merge(s, res, &mut heap, &mut stats) { 0 } else { stale + 1 };
            probes += 1;
        }
        (SearchResult { neighbors: heap.into_sorted(), stats }, probes)
    }
}

impl<P: PartIndex, R: Router> AnnIndex for Partitioned<P, R> {
    fn name(&self) -> String {
        self.router.name()
    }

    fn num_vectors(&self) -> usize {
        self.total
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn search(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        self.search_with_probes(query, params, counter).0
    }

    fn search_coalesced(
        &self,
        queries: &[&[f32]],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> Vec<SearchResult> {
        if queries.len() < 2 || !params.termination().is_fixed() || self.router.prunes() {
            // Adaptive routing and bound pruning decide each query's next
            // probe from its own merged heap — there is no shared plan to
            // bucket by, so these batches run the per-query loop.
            return queries.iter().map(|q| self.search(q, params, counter)).collect();
        }
        // Bucket queries by probed part so each part answers its own
        // visitors in one call, then merge per query in that query's rank
        // order — bit-identical to the sequential loop (each part search
        // is, and the heap sees pushes in the same order).
        let ranked: Vec<Vec<usize>> =
            queries.iter().map(|q| self.probe_plan(q, counter)).collect();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.parts.len()];
        for (qi, probes) in ranked.iter().enumerate() {
            for &s in probes {
                buckets[s].push(qi);
            }
        }
        // Each non-empty bucket is an independent per-part batch; the
        // fan-out pool runs them part-affine, and results scatter back into
        // rank slots exactly as the serial bucket loop would.
        let active: Vec<usize> =
            (0..buckets.len()).filter(|&s| !buckets[s].is_empty()).collect();
        let per_part = self.for_each_planned(&active, |s| {
            let qs: Vec<&[f32]> = buckets[s].iter().map(|&qi| queries[qi]).collect();
            self.parts[s].index.search_coalesced(&qs, params, counter)
        });
        let mut slots: Vec<Vec<Option<SearchResult>>> =
            ranked.iter().map(|r| vec![None; r.len()]).collect();
        for (&s, res) in active.iter().zip(per_part) {
            for (&qi, r) in buckets[s].iter().zip(res) {
                let rank = ranked[qi].iter().position(|&x| x == s).unwrap();
                slots[qi][rank] = Some(r);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(qi, per_part)| {
                let mut heap = BoundedMaxHeap::new(params.k);
                let mut stats = SearchStats { hops: 0, evaluated: self.router.rank_cost() };
                for (rank, res) in per_part.into_iter().enumerate() {
                    let res = res.expect("every probed part answered");
                    self.merge(ranked[qi][rank], res, &mut heap, &mut stats);
                }
                SearchResult { neighbors: heap.into_sorted(), stats }
            })
            .collect()
    }

    fn freeze(&mut self) {
        self.for_each_shard_mut(P::freeze);
    }

    fn is_frozen(&self) -> bool {
        self.parts.iter().all(|p| p.index.is_frozen())
    }

    fn quantize(&mut self, spec: crate::quant::CodecSpec) {
        self.for_each_shard_mut(|index| index.quantize(spec));
    }

    fn is_quantized(&self) -> bool {
        self.parts.iter().all(|p| p.index.is_quantized())
    }

    fn reorder(&mut self, strategy: crate::reorder::ReorderStrategy) {
        // Each part relabels independently and keeps reporting original
        // local ids, so the `to_global` tables stay valid untouched.
        self.for_each_shard_mut(|index| index.reorder(strategy));
    }

    fn is_reordered(&self) -> bool {
        self.parts.iter().all(|p| p.index.is_reordered())
    }

    fn reorder_strategy(&self) -> crate::reorder::ReorderStrategy {
        self.parts[0].index.reorder_strategy()
    }

    fn stats(&self) -> IndexStats {
        let mut out = IndexStats { nodes: self.total, ..Default::default() };
        for part in &self.parts {
            let s = part.index.stats();
            out.edges += s.edges;
            out.max_degree = out.max_degree.max(s.max_degree);
            out.graph_bytes += s.graph_bytes;
            out.aux_bytes += s.aux_bytes;
            // The routing structures are auxiliary state.
            out.aux_bytes += part.to_global.capacity() * std::mem::size_of::<u32>();
        }
        out.aux_bytes += self.router.heap_bytes();
        out.avg_degree = out.edges as f64 / out.nodes.max(1) as f64;
        out
    }
}
