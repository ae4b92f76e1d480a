//! **HNSW** — Hierarchical Navigable Small World graphs: NSW made scalable
//! by (i) RND diversification of every neighborhood and (ii) the stacked
//! hierarchy (**SN**) that shortens search paths during both construction
//! and query answering.
//!
//! The base layer holds all points with maximum out-degree `2M`; upper
//! layers (in [`crate::hierarchy`]) hold exponentially thinning samples
//! with out-degree `M`. Insertion descends the hierarchy to find its
//! entry, beam-searches the base layer with `ef_construction`, selects `M`
//! neighbors via RND, and re-prunes overflowing reverse lists.

use crate::common::{add_reverse_edges, add_reverse_edges_concurrent, BuildReport};
use crate::hierarchy::{draw_level, Hierarchy};
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, CsrGraph, FlatGraph, GraphView};
use gass_core::index::{AnnIndex, IndexStats, QueryParams, ScratchPool};
use gass_core::nd::NdStrategy;
use gass_core::par::ConcurrentAdjacency;
use gass_core::partition::PartIndex;
use gass_core::reorder::{IdRemap, ReorderStrategy, ServingState};
use gass_core::search::{beam_search, beam_search_frozen, SearchResult, SearchScratch};
use gass_core::store::VectorStore;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Parallel batches are capped at 1/8 of the already-built prefix: batch
/// members don't see each other, and bounding that blindness keeps the
/// batched build's recall within noise of the serial build.
const BATCH_FRAC: usize = 8;

/// HNSW construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct HnswParams {
    /// Out-degree `M` of hierarchy layers; the base layer allows `2M`.
    pub m: usize,
    /// Construction beam width (`efConstruction`).
    pub ef_construction: usize,
    /// RNG seed (level draws).
    pub seed: u64,
    /// Construction worker threads (0 = all available cores). At `1` the
    /// build runs the exact sequential insertion — bit-for-bit the serial
    /// result. Above 1 it switches to ParlayANN-style prefix-doubling
    /// batches: each batch's members search the graph of all previous
    /// batches in parallel, then apply edges under striped locks.
    pub threads: usize,
}

impl HnswParams {
    /// Small-scale defaults: `M=12`, `ef=80`, serial build.
    pub fn small() -> Self {
        Self { m: 12, ef_construction: 80, seed: 42, threads: 1 }
    }
}

/// A built HNSW index.
pub struct HnswIndex {
    store: VectorStore,
    serving: ServingState,
    hierarchy: Hierarchy,
    params: HnswParams,
    scratch: ScratchPool,
    build: BuildReport,
}

/// Search + diversify for one insertion against the graph so far. Pure
/// with respect to the graph (reads only), so the parallel path runs it
/// concurrently against a frozen batch prefix.
fn prepare_insertion<G: GraphView + ?Sized>(
    store: &VectorStore,
    space: Space<'_>,
    graph: &G,
    hierarchy: &Hierarchy,
    params: &HnswParams,
    scratch: &mut SearchScratch,
    id: u32,
) -> Vec<gass_core::Neighbor> {
    let query = store.get(id);
    // SN descent over the current hierarchy gives the base entry point.
    let entry = hierarchy.descend(space, query).unwrap_or(0);
    let res = beam_search(
        graph,
        space,
        query,
        &[entry],
        params.ef_construction,
        params.ef_construction,
        scratch,
    );
    let cands = if res.neighbors.is_empty() {
        // Base graph may still be edgeless around the entry.
        vec![gass_core::Neighbor::new(entry, space.dist_to(query, entry))]
    } else {
        res.neighbors
    };
    NdStrategy::Rnd.diversify(space, id, &cands, params.m)
}

impl HnswIndex {
    /// Builds the index by incremental insertion. `params.threads <= 1`
    /// runs the exact sequential algorithm; higher values insert
    /// prefix-doubling batches in parallel (see [`HnswParams::threads`]).
    pub fn build(store: VectorStore, params: HnswParams) -> Self {
        assert!(store.len() >= 2, "need at least two vectors");
        assert!(params.m >= 2, "M must be at least 2");
        let counter = DistCounter::new();
        let start = std::time::Instant::now();
        let n = store.len();
        let m0 = params.m * 2;
        let mut hierarchy = Hierarchy::new(n, params.m, params.ef_construction);
        let threads = gass_core::effective_threads(params.threads.max(1));
        let base = {
            let space = Space::new(&store, &counter);
            // Levels are pre-drawn so serial and parallel builds consume
            // the identical RNG stream (one draw per node, in id order —
            // the only RNG use in the insertion loop).
            let mut rng = SmallRng::seed_from_u64(params.seed);
            let levels: Vec<usize> = (0..n).map(|_| draw_level(params.m, &mut rng)).collect();
            if threads <= 1 {
                Self::build_serial(&store, space, &mut hierarchy, &params, m0, &levels)
            } else {
                Self::build_parallel(
                    &store,
                    space,
                    &mut hierarchy,
                    &params,
                    m0,
                    &levels,
                    threads,
                )
            }
        };
        let build =
            BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
        let base = FlatGraph::from_adjacency(&base, Some(m0));
        Self {
            store,
            serving: ServingState::new(base),
            hierarchy,
            params,
            scratch: ScratchPool::new(),
            build,
        }
    }

    fn build_serial(
        store: &VectorStore,
        space: Space<'_>,
        hierarchy: &mut Hierarchy,
        params: &HnswParams,
        m0: usize,
        levels: &[usize],
    ) -> AdjacencyGraph {
        let n = store.len();
        let mut base = AdjacencyGraph::with_degree_hint(n, m0 + 1);
        let mut scratch = SearchScratch::new(n, params.ef_construction);
        // First node: hierarchy entry only.
        hierarchy.insert(space, 0, levels[0]);
        for id in 1..n as u32 {
            let selected =
                prepare_insertion(store, space, &base, hierarchy, params, &mut scratch, id);
            base.set_neighbors(id, selected.iter().map(|s| s.id).collect());
            add_reverse_edges(space, &mut base, id, &selected, m0, NdStrategy::Rnd);
            hierarchy.insert(space, id, levels[id as usize]);
        }
        base
    }

    /// ParlayANN-style batch insertion: a serial prefix seeds the graph,
    /// then batch sizes double. Within a batch: (A) every member searches
    /// the frozen prefix graph concurrently, (B) forward + reverse edges
    /// are applied under striped locks, (C) hierarchy insertions run
    /// serially in id order. Batch members do not see same-batch inserts,
    /// which is the one semantic difference from the serial build.
    fn build_parallel(
        store: &VectorStore,
        space: Space<'_>,
        hierarchy: &mut Hierarchy,
        params: &HnswParams,
        m0: usize,
        levels: &[usize],
        threads: usize,
    ) -> AdjacencyGraph {
        let n = store.len();
        let ef = params.ef_construction;
        let batches = gass_core::bounded_prefix_batches(ef.max(64).min(n), BATCH_FRAC, n);
        let prefix_end = batches.first().map_or(n, |b| b.start);

        // Serial seed prefix — identical to the serial build over these ids.
        let mut base = AdjacencyGraph::with_degree_hint(n, m0 + 1);
        let mut scratch = SearchScratch::new(n, ef);
        hierarchy.insert(space, 0, levels[0]);
        for id in 1..prefix_end as u32 {
            let selected =
                prepare_insertion(store, space, &base, hierarchy, params, &mut scratch, id);
            base.set_neighbors(id, selected.iter().map(|s| s.id).collect());
            add_reverse_edges(space, &mut base, id, &selected, m0, NdStrategy::Rnd);
            hierarchy.insert(space, id, levels[id as usize]);
        }

        let conc = ConcurrentAdjacency::from_adjacency(base);
        for batch in batches {
            // Phase A: read-only searches against the frozen prefix. No
            // writer is active, so unlocked GraphView reads are safe.
            let prepared: Vec<(u32, Vec<gass_core::Neighbor>)> = gass_core::par_map_with(
                threads,
                batch.len(),
                || SearchScratch::new(n, ef),
                |scratch, i| {
                    let id = (batch.start + i) as u32;
                    let selected =
                        prepare_insertion(store, space, &conc, hierarchy, params, scratch, id);
                    (id, selected)
                },
            );
            // Phase B: apply edges under the stripe locks.
            gass_core::par_for(threads, prepared.len(), |range| {
                for (id, selected) in &prepared[range] {
                    conc.set_neighbors(*id, selected.iter().map(|s| s.id).collect());
                    add_reverse_edges_concurrent(
                        space,
                        &conc,
                        *id,
                        selected,
                        m0,
                        NdStrategy::Rnd,
                    );
                }
            });
            // Phase C: hierarchy updates are serial (upper layers are
            // cheap: ~1/M of nodes appear above the base layer).
            for (id, _) in &prepared {
                hierarchy.insert(space, *id, levels[*id as usize]);
            }
        }
        conc.freeze()
    }

    /// Construction cost report.
    pub fn build_report(&self) -> BuildReport {
        self.build
    }

    /// The base-layer graph as built. Empty once frozen: the CSR
    /// ([`Self::csr`]) is then the only base layer the index holds.
    pub fn base_graph(&self) -> &FlatGraph {
        self.serving.graph()
    }

    /// The frozen CSR form of the base layer, once
    /// [`AnnIndex::freeze`] has run.
    pub fn csr(&self) -> Option<&CsrGraph> {
        self.serving.csr()
    }

    /// The compressed codes, once [`AnnIndex::quantize`] has run.
    pub fn quantized(&self) -> Option<&dyn gass_core::CodecStore> {
        self.serving.quant()
    }

    /// The serving state (base layer as built or as CSR + codes +
    /// reorder map).
    pub fn serving(&self) -> &ServingState {
        &self.serving
    }

    /// Applies a cache-locality reordering and returns the incremental
    /// `old → new` permutation so wrappers (LSHAPG) can relabel their own
    /// auxiliary structures through the same map. Freezes first; `None`
    /// when `strategy` is [`ReorderStrategy::None`].
    pub fn reorder_with(&mut self, strategy: ReorderStrategy) -> Option<IdRemap> {
        let entries: Vec<u32> = self.hierarchy.entry_node().into_iter().collect();
        let map = self.serving.reorder(&mut self.store, strategy, &entries)?;
        self.hierarchy.reorder(&map);
        Some(map)
    }

    /// The seed-selection hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// Construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// The vector store.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// Converts the vector store to the cache-aligned, padded layout
    /// (idempotent; search results are unaffected — only memory layout
    /// changes).
    pub fn align_store(&mut self) {
        if !self.store.is_aligned() {
            self.store = self.store.to_aligned();
        }
    }
}

impl AnnIndex for HnswIndex {
    fn name(&self) -> String {
        "HNSW".to_string()
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
        self.scratch.with(self.store.len(), params.beam_width, |scratch| {
            self.search_with_scratch(query, params, counter, scratch)
        })
    }

    fn freeze(&mut self) {
        self.serving.freeze();
    }

    fn is_frozen(&self) -> bool {
        self.serving.is_frozen()
    }

    fn quantize(&mut self, spec: gass_core::CodecSpec) {
        self.serving.quantize(&self.store, spec);
    }

    fn is_quantized(&self) -> bool {
        self.serving.is_quantized()
    }

    fn reorder(&mut self, strategy: ReorderStrategy) {
        self.reorder_with(strategy);
    }

    fn is_reordered(&self) -> bool {
        self.serving.is_reordered()
    }

    fn reorder_strategy(&self) -> ReorderStrategy {
        self.serving.strategy()
    }

    fn stats(&self) -> IndexStats {
        let mut s = self.serving.stats();
        s.aux_bytes += self.hierarchy.heap_bytes();
        s
    }
}

/// An HNSW is also an ELPIS leaf: the partitioned probe loop searches it
/// through the prober's scratch.
impl PartIndex for HnswIndex {
    fn search_with_scratch(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
        scratch: &mut SearchScratch,
    ) -> SearchResult {
        let space =
            Space::new(&self.store, counter).with_quant(self.serving.quant_view(params));
        // The SN descent stays at full precision (upper layers are a few
        // dozen nodes; quantizing them saves nothing and costs accuracy).
        // A `max_dists` budget covers routing too: the descent spends from
        // it, a budget-squeezed descent hands the base search its best node
        // so far, the base search gets what is left (at least 1, so it can
        // seed), and `evaluated` reports both — the counter and `evaluated`
        // agree under a budget. Unbudgeted, `evaluated` counts the base
        // search alone, as the pinned answers record (ROADMAP item 9).
        let (entry, descent) = self
            .hierarchy
            .descend_counted(space, query, params.max_dists)
            .unwrap_or_else(|| (self.serving.to_new(0), 0));
        let mut term = params.termination();
        if term.max_dists > 0 {
            term.max_dists = term.max_dists.saturating_sub(descent).max(1);
        }
        let mut res = beam_search_frozen(
            self.serving.graph(),
            self.serving.csr(),
            space,
            query,
            &[entry],
            params.k,
            params.beam_width,
            scratch,
            term,
        );
        if params.max_dists > 0 {
            res.stats.evaluated += descent;
        }
        self.serving.finish(res)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::{deep_like, seismic_like};

    fn recall(idx: &HnswIndex, base: &VectorStore, queries: &VectorStore, l: usize) -> f64 {
        let gt = ground_truth(base, queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, l);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        hit as f64 / (10 * gt.len()) as f64
    }

    #[test]
    fn hnsw_high_recall_on_easy_data() {
        let base = deep_like(800, 1);
        let queries = deep_like(20, 2);
        let idx = HnswIndex::build(base.clone(), HnswParams::small());
        let r = recall(&idx, &base, &queries, 64);
        assert!(r > 0.95, "HNSW recall too low: {r}");
    }

    #[test]
    fn recall_grows_with_beam_width() {
        let base = seismic_like(600, 3);
        let queries = seismic_like(15, 4);
        let idx = HnswIndex::build(base.clone(), HnswParams::small());
        let narrow = recall(&idx, &base, &queries, 10);
        let wide = recall(&idx, &base, &queries, 120);
        assert!(wide >= narrow, "wider beam lost recall: {narrow} -> {wide}");
        assert!(wide > 0.6, "hard-data recall too low even at L=120: {wide}");
    }

    #[test]
    fn base_degree_bounded_by_2m() {
        let base = deep_like(500, 5);
        let idx = HnswIndex::build(base, HnswParams::small());
        assert!(idx.stats().max_degree <= 24);
        assert!(idx.hierarchy().num_layers() >= 1);
        assert!(idx.stats().aux_bytes > 0);
    }

    #[test]
    fn exact_member_query_finds_itself() {
        let base = deep_like(300, 7);
        let idx = HnswIndex::build(base.clone(), HnswParams::small());
        let counter = DistCounter::new();
        let res = idx.search(base.get(123), &QueryParams::new(1, 32), &counter);
        assert_eq!(res.neighbors[0].id, 123);
        assert_eq!(res.neighbors[0].dist, 0.0);
    }
}
