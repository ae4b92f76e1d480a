//! The common index interface every method answers through, the one
//! index type every graph-plus-seeds method is served by
//! ([`PrebuiltIndex`]), and the scratch pool that makes concurrent
//! querying allocation-free.
//!
//! The paper evaluates twelve methods under one procedure: build, then
//! answer k-NN queries at a given beam width while counting distance
//! calculations. [`AnnIndex`] is that procedure's contract; the evaluation
//! harness (`gass-eval`) and every figure/table bin are generic over it.

use crate::distance::{DistCounter, Space};
use crate::graph::GraphView;
use crate::partition::PartIndex;
use crate::search::{Gate, Open, SearchResult, SearchScratch};
use crate::seed::SeedProvider;
use std::sync::Mutex;

/// Per-query parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryParams {
    /// Number of nearest neighbors to return.
    pub k: usize,
    /// Beam width `L` (candidate buffer size); must be `>= k`.
    pub beam_width: usize,
    /// Number of seeds to request from the seed-selection strategy
    /// (meaningful for KS/KD/KM/LSH; structure-determined for SN/MD/SF).
    pub seed_count: usize,
    /// When the index is quantized ([`AnnIndex::quantize`]), the exact
    /// rerank pool is `rerank_factor * k` candidates (values below 1
    /// behave as 1). Ignored on full-precision indexes.
    pub rerank_factor: usize,
    /// When the traversal stops expanding candidates
    /// ([`crate::term::TerminationPolicy::Fixed`] = the paper's fixed-beam
    /// behavior, bit-identical by construction). Adaptive policies let
    /// easy queries stop as soon as their own top-`k` converges, so
    /// `beam_width` becomes a cap instead of a constant cost.
    pub term: crate::term::TerminationPolicy,
    /// Hard per-query distance-evaluation budget (`0` = unlimited); see
    /// [`crate::term::Termination::max_dists`].
    pub max_dists: usize,
}

impl QueryParams {
    /// `k`-NN with beam width `l`, `k` seeds and a 4× rerank pool.
    /// Termination is `Fixed` with no distance budget.
    pub fn new(k: usize, l: usize) -> Self {
        Self {
            k,
            beam_width: l.max(k),
            seed_count: k,
            rerank_factor: 4,
            term: crate::term::TerminationPolicy::Fixed,
            max_dists: 0,
        }
    }

    /// Overrides the seed count.
    pub fn with_seed_count(mut self, seeds: usize) -> Self {
        self.seed_count = seeds;
        self
    }

    /// Overrides the quantized-serving rerank pool multiplier.
    pub fn with_rerank_factor(mut self, rerank_factor: usize) -> Self {
        self.rerank_factor = rerank_factor;
        self
    }

    /// Overrides the termination policy.
    pub fn with_term(mut self, term: crate::term::TerminationPolicy) -> Self {
        self.term = term;
        self
    }

    /// Overrides the hard distance-evaluation budget (`0` = unlimited).
    pub fn with_max_dists(mut self, max_dists: usize) -> Self {
        self.max_dists = max_dists;
        self
    }

    /// The policy + budget pair the traversal variants consume.
    pub fn termination(&self) -> crate::term::Termination {
        crate::term::Termination { policy: self.term, max_dists: self.max_dists }
    }
}

/// Structural statistics of a built index (Figures 8–9 inputs).
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexStats {
    /// Number of graph nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Average out-degree.
    pub avg_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Heap bytes used by graph structures.
    pub graph_bytes: usize,
    /// Heap bytes used by auxiliary structures (seed trees, hash tables,
    /// hierarchical layers, summarizations).
    pub aux_bytes: usize,
}

/// What a build cost: wall-clock seconds and counted distance calls
/// (Figures 7–8 and Table 2 inputs).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildReport {
    /// Wall-clock construction time in seconds.
    pub seconds: f64,
    /// Distance evaluations performed during construction.
    pub dist_calcs: u64,
}

/// A built approximate-nearest-neighbor index.
///
/// Implementations own their `VectorStore`; the query-time distance counter
/// is passed per call so experiments can account per-phase.
pub trait AnnIndex: Send + Sync {
    /// Method name as it appears in the paper's tables ("HNSW", "NSG", ...).
    fn name(&self) -> String;

    /// Number of indexed vectors.
    fn num_vectors(&self) -> usize;

    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Answers one k-NN query.
    fn search(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult;

    /// Answers a group of k-NN queries sharing `params`, in query order.
    ///
    /// The default is the sequential per-query loop, which is what every
    /// monolithic index runs: interleaving several queries' traversals in
    /// lockstep on one thread measured slower than running them one after
    /// another (DESIGN.md §12). [`crate::ShardedIndex`] overrides it to
    /// route the whole group first and send each shard its bucket. Every
    /// implementation must answer bit-identically to the sequential
    /// loop: grouping is an execution strategy, not a semantic change.
    fn search_coalesced(
        &self,
        queries: &[&[f32]],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> Vec<SearchResult> {
        queries.iter().map(|q| self.search(q, params, counter)).collect()
    }

    /// Structural statistics.
    fn stats(&self) -> IndexStats;

    /// Total heap bytes of the index *excluding* the raw vectors (graph +
    /// auxiliary structures). The harness adds the store separately, as the
    /// paper reports footprints "including the raw data".
    fn index_bytes(&self) -> usize {
        let s = self.stats();
        s.graph_bytes + s.aux_bytes
    }

    /// Freezes the index for serving: moves its traversal graph(s) into
    /// the contiguous CSR layout ([`crate::graph::CsrGraph`]) so queries
    /// stop chasing per-node `Vec` pointers, and drops the build layout —
    /// a frozen index holds one graph, and `stats().graph_bytes` drops to
    /// the CSR's. Idempotent, and a no-op for indexes with nothing to
    /// freeze (e.g. the serial scan). Search results and the structural
    /// stats are identical before and after — only memory layout (and
    /// hence speed and footprint) changes.
    fn freeze(&mut self) {}

    /// `true` once [`Self::freeze`] has taken effect (always `false` for
    /// indexes with nothing to freeze).
    fn is_frozen(&self) -> bool {
        false
    }

    /// Builds a compressed [`crate::quant::CodecStore`] (SQ8, SQ4 or PQ
    /// per `spec`) over the index's vectors and routes subsequent
    /// traversals through code-space distances with an exact
    /// `rerank_factor * k` re-scoring pool (see
    /// [`QueryParams::rerank_factor`]). Idempotent when the installed
    /// codec already matches the resolved spec — a different family or PQ
    /// geometry re-encodes — and a no-op for indexes without a quantizable
    /// traversal (e.g. the serial scan). Returned distances stay exact
    /// either way.
    fn quantize(&mut self, _spec: crate::quant::CodecSpec) {}

    /// `true` once [`Self::quantize`] has taken effect (always `false`
    /// for indexes with nothing to quantize).
    fn is_quantized(&self) -> bool {
        false
    }

    /// Relabels the serving state with a locality-preserving permutation
    /// (see [`crate::reorder`]): forces a [`Self::freeze`], permutes the
    /// CSR graph, the vector rows, and the codes of whichever codec is
    /// installed (SQ8, SQ4 or PQ) together, and remaps the method's seed
    /// structures. Search results keep reporting
    /// *original* ids; with [`crate::reorder::ReorderStrategy::None`] the
    /// call is a no-op and the index stays bit-identical. A no-op for
    /// indexes with nothing to reorder (e.g. the serial scan).
    fn reorder(&mut self, _strategy: crate::reorder::ReorderStrategy) {}

    /// `true` once a non-`None` [`Self::reorder`] has taken effect.
    fn is_reordered(&self) -> bool {
        false
    }

    /// The strategy last applied through [`Self::reorder`]
    /// ([`crate::reorder::ReorderStrategy::None`] if never reordered).
    fn reorder_strategy(&self) -> crate::reorder::ReorderStrategy {
        crate::reorder::ReorderStrategy::None
    }
}

/// Minimum shard count in a [`ScratchPool`]: the historical default, kept
/// as a floor so small hosts still spread borrow traffic across several
/// mutexes.
const SCRATCH_SHARDS_MIN: usize = 8;

/// Lock-striped pool of [`SearchScratch`] buffers so concurrent searches
/// do not allocate an `O(n)` visited set per query — and do not serialize
/// on a single lock while borrowing one.
///
/// The stripe count is sized from the host's worker count (every core may
/// host a serving thread), with a floor of 8 — a fixed stripe count would
/// re-introduce borrow contention as soon as `--threads` exceeds it.
///
/// Each thread hashes its id to a *home shard* and borrows/returns there,
/// so concurrent searches from distinct threads almost always touch
/// distinct mutexes; the serve-crate executors pin distinct home stripes
/// instead ([`pin_scratch_home`]). Borrowing falls back to scanning the
/// other shards (`try_lock`, never blocking) before allocating fresh
/// scratch.
#[derive(Debug)]
pub struct ScratchPool {
    shards: Vec<Mutex<Vec<SearchScratch>>>,
}

impl Default for ScratchPool {
    fn default() -> Self {
        Self::new()
    }
}

/// The calling thread's id hash (computed once, cached); each pool
/// reduces it modulo its own stripe count.
fn thread_hash() -> usize {
    use std::hash::{Hash, Hasher};
    thread_local! {
        static HASH: usize = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish() as usize
        };
    }
    HASH.with(|&s| s)
}

thread_local! {
    static HOME_OVERRIDE: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Pins the calling thread's [`ScratchPool`] home shard to `shard`
/// (reduced modulo each pool's stripe count) instead of the default
/// thread-id hash. Long-lived executor threads (the `gass-serve` workers)
/// call this once at startup with their worker index, guaranteeing
/// distinct home stripes — the hash only makes collisions unlikely.
pub fn pin_scratch_home(shard: usize) {
    HOME_OVERRIDE.with(|c| c.set(Some(shard)));
}

impl ScratchPool {
    /// A pool striped for the host's worker count (at least 8 stripes).
    pub fn new() -> Self {
        let n = crate::par::effective_threads(0).max(SCRATCH_SHARDS_MIN);
        Self { shards: (0..n).map(|_| Mutex::new(Vec::new())).collect() }
    }

    /// Number of stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrows a scratch (allocating one for `n` nodes and beam width `l`
    /// only when every shard is busy or empty), runs `f`, and returns the
    /// scratch to the calling thread's home shard. The scratch comes back
    /// as the last search left it: every `beam_search_*` entry prepares it
    /// for its own graph and beam.
    pub fn with<R>(&self, n: usize, l: usize, f: impl FnOnce(&mut SearchScratch) -> R) -> R {
        let shards = self.shards.len();
        let home = HOME_OVERRIDE.with(|c| c.get()).unwrap_or_else(thread_hash) % shards;
        let mut scratch = None;
        for off in 0..shards {
            if let Ok(mut shard) = self.shards[(home + off) % shards].try_lock() {
                if let Some(s) = shard.pop() {
                    scratch = Some(s);
                    break;
                }
            }
        }
        let mut scratch = scratch.unwrap_or_else(|| SearchScratch::new(n, l));
        let out = f(&mut scratch);
        // Return to the home shard; the critical sections are a push/pop,
        // so blocking here (only if try_lock loses a race) is momentary.
        match self.shards[home].try_lock() {
            Ok(mut shard) => shard.push(scratch),
            Err(_) => self.shards[home].lock().unwrap().push(scratch),
        }
        out
    }
}

/// A trivial exact index: serial scan. Implements [`AnnIndex`] so the
/// figure harnesses can include the exact baseline uniformly.
pub struct SerialScanIndex {
    store: crate::store::VectorStore,
}

impl SerialScanIndex {
    /// Wraps a store.
    pub fn new(store: crate::store::VectorStore) -> Self {
        Self { store }
    }
}

impl AnnIndex for SerialScanIndex {
    fn name(&self) -> String {
        "SerialScan".to_string()
    }

    fn num_vectors(&self) -> usize {
        self.store.len()
    }

    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn search(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        let space = Space::new(&self.store, counter);
        let neighbors = crate::search::serial_scan(space, query, params.k);
        let n = self.store.len();
        SearchResult { neighbors, stats: crate::search::SearchStats { hops: 0, evaluated: n } }
    }

    fn stats(&self) -> IndexStats {
        IndexStats { nodes: self.store.len(), ..Default::default() }
    }
}

/// The index every graph-plus-seeds method serves through: a vector store,
/// a graph, a seed provider and a gate. The paper's normalisation is that
/// methods differ only in the graph they build and the seeds they start
/// from, and answer with the same beam search (Algorithm 1); so HNSW (its
/// hierarchy as the provider), KGraph, NSW, NSG, SSG, DPG, EFANNA, HCNNG,
/// NGT, SPTAG, Vamana, IEH, HVS, LSHAPG and the II baseline are builders
/// that return one of these, and a persisted graph is served again through
/// [`PrebuiltIndex::new`] without re-running construction.
///
/// `G` is the graph as built: [`crate::graph::FlatGraph`] for the
/// slot-layout methods (and loaded files), [`crate::graph::AdjacencyGraph`]
/// for the unbounded-degree ones, so Figures 8–9 report each method's own
/// layout. [`AnnIndex::freeze`] moves it into CSR either way. `S` is the
/// seed provider, boxed: `dyn SeedProvider` by default, or a concrete type
/// when the owner needs it back (HNSW's hierarchy, LSHAPG's LSH tables).
/// `F` is the [`Gate`] on the traversal: [`Open`], which admits every
/// neighbour, for every method but LSHAPG, whose sketch gate
/// ([`Self::with_gate`]) is its probabilistic routing.
///
/// Seed selection is charged once, in [`Self::search_with`]: what the
/// provider spends is added to `stats.evaluated`, and under a `max_dists`
/// budget the traversal gets the rest.
pub struct PrebuiltIndex<
    G: GraphView + Default = crate::graph::FlatGraph,
    S: SeedProvider + ?Sized = dyn SeedProvider,
    F: Gate = Open,
> {
    store: crate::store::VectorStore,
    serving: crate::reorder::ServingState<G>,
    seeds: Box<S>,
    gate: F,
    /// Entry nodes that seed the BFS / RCM relabelling (HNSW's top entry,
    /// NSG's and Vamana's medoid), in the current id space.
    entries: Vec<u32>,
    label: String,
    build: BuildReport,
    scratch: ScratchPool,
}

impl<G: GraphView + Default> PrebuiltIndex<G> {
    /// Wraps the parts. `label` names the method the graph came from. The
    /// build report is zero and there are no reorder entries until
    /// [`Self::with_build_report`] / [`Self::with_entries`] set them.
    ///
    /// # Panics
    /// Panics if the graph and store disagree on the number of vectors.
    pub fn new(
        store: crate::store::VectorStore,
        graph: G,
        seeds: Box<dyn SeedProvider>,
        label: impl Into<String>,
    ) -> Self {
        Self::with_provider(store, graph, seeds, label)
    }
}

impl<G: GraphView + Default, S: SeedProvider + ?Sized> PrebuiltIndex<G, S> {
    /// [`PrebuiltIndex::new`] keeping the provider's own type, so the owner
    /// can reach it through [`Self::seed_provider`] (HNSW's hierarchy).
    ///
    /// # Panics
    /// Panics if the graph and store disagree on the number of vectors.
    pub fn with_provider(
        store: crate::store::VectorStore,
        graph: G,
        seeds: Box<S>,
        label: impl Into<String>,
    ) -> Self {
        assert_eq!(
            store.len(),
            graph.num_nodes(),
            "store and graph must cover the same vectors"
        );
        Self {
            store,
            serving: crate::reorder::ServingState::new(graph),
            seeds,
            entries: Vec::new(),
            label: label.into(),
            build: BuildReport::default(),
            scratch: ScratchPool::new(),
            gate: Open,
        }
    }

    /// Puts `gate` on the traversal in place of [`Open`].
    pub fn with_gate<F: Gate>(self, gate: F) -> PrebuiltIndex<G, S, F> {
        let Self { store, serving, seeds, entries, label, build, scratch, gate: Open } = self;
        PrebuiltIndex { store, serving, seeds, gate, entries, label, build, scratch }
    }
}

impl<G: GraphView + Default, S: SeedProvider + ?Sized, F: Gate> PrebuiltIndex<G, S, F> {
    /// Records what construction cost.
    pub fn with_build_report(mut self, build: BuildReport) -> Self {
        self.build = build;
        self
    }

    /// Sets the entry nodes a BFS / RCM [`AnnIndex::reorder`] starts from.
    pub fn with_entries(mut self, entries: Vec<u32>) -> Self {
        self.entries = entries;
        self
    }

    /// Construction cost (zero for an index assembled from loaded parts).
    pub fn build_report(&self) -> BuildReport {
        self.build
    }

    /// The reorder entry nodes, in the current id space (HNSW's top entry,
    /// NSG's and Vamana's medoid; empty for the other methods).
    pub fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// The index's own seed provider.
    pub fn seed_provider(&self) -> &S {
        &self.seeds
    }

    /// The gate on the index's traversal.
    pub fn gate(&self) -> &F {
        &self.gate
    }

    /// Installs a previously loaded code store (the persisted form),
    /// replacing any present one.
    ///
    /// # Panics
    /// Panics if it does not match the wrapped store's shape.
    pub fn set_quantized(&mut self, quant: Box<dyn crate::quant::CodecStore>) {
        assert_eq!(quant.len(), self.store.len(), "quantized store length mismatch");
        assert_eq!(quant.dim(), self.store.dim(), "quantized store dimension mismatch");
        self.serving.set_quant(quant);
    }

    /// The code store, once [`AnnIndex::quantize`] (or
    /// [`Self::set_quantized`]) has run.
    pub fn quantized(&self) -> Option<&dyn crate::quant::CodecStore> {
        self.serving.quant()
    }

    /// The shared serving state (the graph, as built or moved into CSR /
    /// compressed codes / id remap).
    pub fn serving(&self) -> &crate::reorder::ServingState<G> {
        &self.serving
    }

    /// The wrapped store.
    pub fn store(&self) -> &crate::store::VectorStore {
        &self.store
    }

    /// Re-lays the wrapped store out cache-line aligned (see
    /// [`crate::store::VectorStore::to_aligned`]).
    pub fn align_store(&mut self) {
        if !self.store.is_aligned() {
            self.store = self.store.to_aligned();
        }
    }

    /// The graph as built (construction ids). Empty once frozen: the CSR
    /// in [`Self::serving`] is then the only graph the index holds.
    pub fn graph(&self) -> &G {
        self.serving.graph()
    }

    /// Answers one query seeded by `provider` instead of the index's own
    /// (the seed-selection experiments run every strategy on one graph).
    /// `provider` must emit ids of this index's store, in its current id
    /// space. This is the one search every [`PrebuiltIndex`] runs:
    /// [`AnnIndex::search`] and the partitioned probe pass the index's own
    /// provider.
    pub fn search_with<P: SeedProvider + ?Sized>(
        &self,
        provider: &P,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        self.scratch.with(self.store.len(), params.beam_width, |scratch| {
            self.search_in(provider, query, params, counter, scratch)
        })
    }

    /// [`Self::search_with`] through a caller's scratch. Seed selection
    /// spends first; under a budget the traversal gets what is left (at
    /// least 1, so it can score a seed), and `evaluated` reports both. The
    /// gate prepares its per-query state in the scratch and filters the
    /// traversal's neighbours.
    fn search_in<P: SeedProvider + ?Sized>(
        &self,
        provider: &P,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
        scratch: &mut SearchScratch,
    ) -> SearchResult {
        let space =
            Space::new(&self.store, counter).with_quant(self.serving.quant_view(params));
        let mut seeds = std::mem::take(&mut scratch.seeds);
        seeds.clear();
        let spent =
            provider.select(space, query, params.seed_count, params.max_dists, &mut seeds);
        let mut term = params.termination();
        if term.max_dists > 0 {
            term.max_dists = term.max_dists.saturating_sub(spent).max(1);
        }
        let mut state = std::mem::take(&mut scratch.gate);
        self.gate.prepare(query, &mut state);
        let mut res = crate::search::beam_search_gated(
            self.serving.graph(),
            self.serving.csr(),
            space,
            query,
            &seeds,
            params.k,
            params.beam_width,
            scratch,
            term,
            |id, bound| self.gate.admits(&state, id, bound),
        );
        scratch.seeds = seeds;
        scratch.gate = state;
        res.stats.evaluated += spent;
        self.serving.finish(res)
    }
}

/// A part of a [`crate::partition::Partitioned`] index searches through the
/// prober's per-thread scratch instead of the index's [`ScratchPool`]: no
/// pool borrow/return per probe, and identical results (scratch contents
/// never influence the traversal — the beam search prepares it for this
/// graph and beam).
impl<G, S, F> PartIndex for PrebuiltIndex<G, S, F>
where
    G: GraphView + Default + Send + Sync,
    S: SeedProvider + ?Sized,
    F: Gate,
{
    fn search_with_scratch(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
        scratch: &mut SearchScratch,
    ) -> SearchResult {
        self.search_in(self.seeds.as_ref(), query, params, counter, scratch)
    }
}

impl<G, S, F> AnnIndex for PrebuiltIndex<G, S, F>
where
    G: GraphView + Default + Send + Sync,
    S: SeedProvider + ?Sized,
    F: Gate,
{
    fn name(&self) -> String {
        self.label.clone()
    }

    fn num_vectors(&self) -> usize {
        self.store.len()
    }

    fn dim(&self) -> usize {
        self.store.dim()
    }

    fn search(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        self.search_with(self.seeds.as_ref(), query, params, counter)
    }

    fn freeze(&mut self) {
        self.serving.freeze();
    }

    fn is_frozen(&self) -> bool {
        self.serving.is_frozen()
    }

    fn quantize(&mut self, spec: crate::quant::CodecSpec) {
        self.serving.quantize(&self.store, spec);
    }

    fn is_quantized(&self) -> bool {
        self.serving.is_quantized()
    }

    /// Relabels the serving state, then the seed provider, the gate and
    /// the reorder entries through the same map.
    fn reorder(&mut self, strategy: crate::reorder::ReorderStrategy) {
        let Some(map) = self.serving.reorder(&mut self.store, strategy, &self.entries) else {
            return;
        };
        self.seeds.reorder(&map);
        self.gate.reorder(&map);
        for entry in &mut self.entries {
            *entry = map.to_new(*entry);
        }
    }

    fn is_reordered(&self) -> bool {
        self.serving.is_reordered()
    }

    fn reorder_strategy(&self) -> crate::reorder::ReorderStrategy {
        self.serving.strategy()
    }

    fn stats(&self) -> IndexStats {
        let mut s = self.serving.stats();
        s.aux_bytes += self.seeds.heap_bytes() + self.gate.heap_bytes();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::VectorStore;

    #[test]
    fn query_params_enforce_l_ge_k() {
        let p = QueryParams::new(10, 3);
        assert_eq!(p.beam_width, 10);
        let p2 = QueryParams::new(2, 50).with_seed_count(7);
        assert_eq!(p2.beam_width, 50);
        assert_eq!(p2.seed_count, 7);
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let pool = ScratchPool::new();
        let cap1 = pool.with(100, 8, |s| {
            s.prepare(100, 8);
            s.visited.insert(3);
            s.visited.capacity()
        });
        // Second borrow gets the same buffers back: at least the same
        // capacity, cleared by the search's own `prepare`.
        pool.with(50, 8, |s| {
            assert!(s.visited.capacity() >= cap1.min(100));
            s.prepare(50, 8);
            assert!(!s.visited.contains(3));
        });
    }

    #[test]
    fn serial_scan_index_is_exact() {
        let store = VectorStore::from_flat(1, vec![0.0, 5.0, 10.0, 2.0]);
        let idx = SerialScanIndex::new(store);
        let counter = DistCounter::new();
        let res = idx.search(&[1.4], &QueryParams::new(2, 2), &counter);
        assert_eq!(res.neighbors[0].id, 3); // 2.0 is closest to 1.4
        assert_eq!(res.neighbors[1].id, 0);
        assert_eq!(counter.get(), 4);
        assert_eq!(idx.name(), "SerialScan");
        assert_eq!(idx.num_vectors(), 4);
        assert_eq!(idx.dim(), 1);
    }

    #[test]
    fn prebuilt_index_serves_a_frozen_graph() {
        let store = VectorStore::from_flat(1, (0..20).map(|i| i as f32).collect());
        let mut adj = crate::graph::AdjacencyGraph::new(20);
        for i in 0..19u32 {
            adj.add_undirected(i, i + 1);
        }
        let graph = crate::graph::FlatGraph::from_adjacency(&adj, None);
        let idx = PrebuiltIndex::new(
            store,
            graph,
            Box::new(crate::seed::StaticSeeds::new(vec![0])),
            "chain",
        );
        let counter = DistCounter::new();
        let res = idx.search(&[13.4], &QueryParams::new(2, 20), &counter);
        assert_eq!(res.neighbors[0].id, 13);
        assert_eq!(idx.name(), "chain");
        assert_eq!(idx.stats().edges, 38);
    }

    #[test]
    #[should_panic(expected = "same vectors")]
    fn prebuilt_index_rejects_mismatched_parts() {
        let store = VectorStore::from_flat(1, vec![0.0, 1.0]);
        let adj = crate::graph::AdjacencyGraph::new(5);
        let graph = crate::graph::FlatGraph::from_adjacency(&adj, None);
        let _ = PrebuiltIndex::new(
            store,
            graph,
            Box::new(crate::seed::StaticSeeds::new(vec![0])),
            "bad",
        );
    }

    #[test]
    fn scratch_pool_striping_survives_concurrent_borrows() {
        let pool = ScratchPool::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for i in 0..100u32 {
                        pool.with(64, 8, |s| {
                            s.prepare(64, 8);
                            assert!(s.visited.insert(i % 64));
                            assert!(!s.visited.insert(i % 64));
                        });
                    }
                });
            }
        });
        // Everything was returned: a prepared borrow sees cleared scratch.
        pool.with(64, 8, |s| {
            s.prepare(64, 8);
            assert!(!s.visited.contains(0));
        });
    }

    #[test]
    fn scratch_pool_stripes_scale_with_workers() {
        // The historical fixed 8 shards serialized borrows past 8 threads;
        // stripes now track the host's worker count (floored at 8).
        let host = crate::par::effective_threads(0);
        assert_eq!(ScratchPool::new().num_shards(), host.max(8));
    }

    #[test]
    fn prebuilt_index_reorder_reports_original_ids() {
        let store = VectorStore::from_flat(1, (0..20).map(|i| i as f32).collect());
        let mut adj = crate::graph::AdjacencyGraph::new(20);
        for i in 0..19u32 {
            adj.add_undirected(i, i + 1);
        }
        let graph = crate::graph::FlatGraph::from_adjacency(&adj, None);
        let mut idx = PrebuiltIndex::new(
            store,
            graph,
            Box::new(crate::seed::StaticSeeds::new(vec![0])),
            "chain",
        );
        let params = QueryParams::new(2, 20);
        let counter = DistCounter::new();
        let before = idx.search(&[13.4], &params, &counter);
        for strategy in crate::reorder::ReorderStrategy::ALL {
            idx.reorder(strategy);
            let after = idx.search(&[13.4], &params, &counter);
            assert_eq!(before.neighbors, after.neighbors, "{strategy}");
        }
        assert!(idx.is_reordered());
        assert!(idx.is_frozen(), "reorder must force a freeze");
        assert!(idx.stats().aux_bytes > 0, "remap tables must be accounted");
    }

    #[test]
    fn prebuilt_index_quantized_serving_stays_exact_distance() {
        let store = VectorStore::from_flat(1, (0..20).map(|i| i as f32).collect());
        let mut adj = crate::graph::AdjacencyGraph::new(20);
        for i in 0..19u32 {
            adj.add_undirected(i, i + 1);
        }
        let graph = crate::graph::FlatGraph::from_adjacency(&adj, None);
        let mut idx = PrebuiltIndex::new(
            store,
            graph,
            Box::new(crate::seed::StaticSeeds::new(vec![0])),
            "chain",
        );
        assert!(!idx.is_quantized());
        idx.quantize(crate::quant::CodecSpec::Sq8);
        idx.quantize(crate::quant::CodecSpec::Sq8); // idempotent per family
        assert!(idx.is_quantized());
        let counter = DistCounter::new();
        let res = idx.search(&[13.4], &QueryParams::new(2, 20), &counter);
        assert_eq!(res.neighbors[0].id, 13);
        assert!((res.neighbors[0].dist - 0.16).abs() < 1e-4, "{}", res.neighbors[0].dist);
        assert!(counter.get_u8() > counter.get_f32(), "traversal work must be quantized");
        assert!(idx.stats().aux_bytes > 0, "codes must be accounted in the footprint");
    }
}
