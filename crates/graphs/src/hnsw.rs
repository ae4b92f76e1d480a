//! **HNSW** — Hierarchical Navigable Small World graphs: NSW made scalable
//! by (i) RND diversification of every neighborhood and (ii) the stacked
//! hierarchy (**SN**) that shortens search paths during both construction
//! and query answering.
//!
//! The base layer holds all points with maximum out-degree `2M`; upper
//! layers (in [`crate::hierarchy`]) hold exponentially thinning samples
//! with out-degree `M`. Insertion descends the hierarchy to find its
//! entry, beam-searches the base layer with `ef_construction`, selects `M`
//! neighbors via RND, and re-prunes overflowing reverse lists. A query
//! descends the hierarchy — the index's seed provider — and beam-searches
//! the base layer from the node it reaches, through the one
//! [`PrebuiltIndex`] search every graph-plus-seeds method answers with.

use crate::common::{add_reverse_edges, add_reverse_edges_concurrent, BuildReport};
use crate::hierarchy::{draw_level, Hierarchy};
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, CsrGraph, FlatGraph, GraphView};
use gass_core::index::{AnnIndex, IndexStats, PrebuiltIndex, QueryParams};
use gass_core::nd::NdStrategy;
use gass_core::par::ConcurrentAdjacency;
use gass_core::reorder::{ReorderStrategy, ServingState};
use gass_core::search::{beam_search, SearchResult, SearchScratch};
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
    let entry = hierarchy.descend_budgeted(space, query, 0).unwrap_or(0);
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

/// Builds HNSW by incremental insertion and serves it as what it is: the
/// base layer behind the hierarchy as seed provider (the descent's node is
/// the one seed, and its top entry starts a BFS / RCM reorder).
/// `params.threads <= 1` runs the exact sequential algorithm; higher values
/// insert prefix-doubling batches in parallel (see [`HnswParams::threads`]).
///
/// # Panics
/// Panics if `store` holds fewer than two vectors or `params.m < 2`.
pub fn build(store: VectorStore, params: HnswParams) -> PrebuiltIndex<FlatGraph, Hierarchy> {
    let (base, hierarchy, build) = build_layers(&store, params);
    let entries = hierarchy.entry_node().into_iter().collect();
    PrebuiltIndex::with_provider(store, base, Box::new(hierarchy), "HNSW")
        .with_entries(entries)
        .with_build_report(build)
}

/// What [`build`] serves: the base layer, the hierarchy above it and the
/// construction cost. LSHAPG routes over the base layer alone.
pub(crate) fn build_layers(
    store: &VectorStore,
    params: HnswParams,
) -> (FlatGraph, Hierarchy, BuildReport) {
    assert!(store.len() >= 2, "need at least two vectors");
    assert!(params.m >= 2, "M must be at least 2");
    let counter = DistCounter::new();
    let start = std::time::Instant::now();
    let n = store.len();
    let m0 = params.m * 2;
    let mut hierarchy = Hierarchy::new(params.m, params.ef_construction);
    let threads = gass_core::effective_threads(params.threads.max(1));
    let base = {
        let space = Space::new(store, &counter);
        // Levels are pre-drawn so serial and parallel builds consume
        // the identical RNG stream (one draw per node, in id order —
        // the only RNG use in the insertion loop).
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let levels: Vec<usize> = (0..n).map(|_| draw_level(params.m, &mut rng)).collect();
        if threads <= 1 {
            build_serial(store, space, &mut hierarchy, &params, m0, &levels)
        } else {
            build_parallel(store, space, &mut hierarchy, &params, m0, &levels, threads)
        }
    };
    let build =
        BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
    (FlatGraph::from_adjacency(&base, Some(m0)), hierarchy, build)
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
    hierarchy.insert(space, 0, levels[0], &mut scratch);
    for id in 1..n as u32 {
        let selected =
            prepare_insertion(store, space, &base, hierarchy, params, &mut scratch, id);
        base.set_neighbors(id, selected.iter().map(|s| s.id).collect());
        add_reverse_edges(space, &mut base, id, &selected, m0, NdStrategy::Rnd);
        hierarchy.insert(space, id, levels[id as usize], &mut scratch);
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
    hierarchy.insert(space, 0, levels[0], &mut scratch);
    for id in 1..prefix_end as u32 {
        let selected =
            prepare_insertion(store, space, &base, hierarchy, params, &mut scratch, id);
        base.set_neighbors(id, selected.iter().map(|s| s.id).collect());
        add_reverse_edges(space, &mut base, id, &selected, m0, NdStrategy::Rnd);
        hierarchy.insert(space, id, levels[id as usize], &mut scratch);
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
                add_reverse_edges_concurrent(space, &conc, *id, selected, m0, NdStrategy::Rnd);
            }
        });
        // Phase C: hierarchy updates are serial (upper layers are
        // cheap: ~1/M of nodes appear above the base layer).
        for (id, _) in &prepared {
            hierarchy.insert(space, *id, levels[*id as usize], &mut scratch);
        }
    }
    conc.freeze()
}

/// A built HNSW: [`build`]'s [`PrebuiltIndex`] under the name the benchmark
/// and the serving tests use. It forwards everything and goes when they
/// name the index type directly (ROADMAP item 5).
pub struct HnswIndex {
    index: PrebuiltIndex<FlatGraph, Hierarchy>,
    params: HnswParams,
}

impl HnswIndex {
    /// [`build`], kept under its historical name.
    pub fn build(store: VectorStore, params: HnswParams) -> Self {
        Self { index: build(store, params), params }
    }

    /// Construction cost report.
    pub fn build_report(&self) -> BuildReport {
        self.index.build_report()
    }

    /// The base-layer graph as built. Empty once frozen: the CSR
    /// ([`Self::csr`]) is then the only base layer the index holds.
    pub fn base_graph(&self) -> &FlatGraph {
        self.index.graph()
    }

    /// The frozen CSR form of the base layer, once
    /// [`AnnIndex::freeze`] has run.
    pub fn csr(&self) -> Option<&CsrGraph> {
        self.index.serving().csr()
    }

    /// The serving state (base layer as built or as CSR + codes +
    /// reorder map).
    pub fn serving(&self) -> &ServingState {
        self.index.serving()
    }

    /// The seed-selection hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        self.index.seed_provider()
    }

    /// Construction parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// The vector store.
    pub fn store(&self) -> &VectorStore {
        self.index.store()
    }

    /// Converts the vector store to the cache-aligned, padded layout
    /// (idempotent; search results are unaffected — only memory layout
    /// changes).
    pub fn align_store(&mut self) {
        self.index.align_store();
    }
}

impl AnnIndex for HnswIndex {
    fn name(&self) -> String {
        self.index.name()
    }

    fn num_vectors(&self) -> usize {
        self.index.num_vectors()
    }

    fn dim(&self) -> usize {
        self.index.dim()
    }

    fn search(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        self.index.search(query, params, counter)
    }

    fn stats(&self) -> IndexStats {
        self.index.stats()
    }

    fn freeze(&mut self) {
        self.index.freeze();
    }

    fn is_frozen(&self) -> bool {
        self.index.is_frozen()
    }

    fn quantize(&mut self, spec: gass_core::CodecSpec) {
        self.index.quantize(spec);
    }

    fn is_quantized(&self) -> bool {
        self.index.is_quantized()
    }

    fn reorder(&mut self, strategy: ReorderStrategy) {
        self.index.reorder(strategy);
    }

    fn is_reordered(&self) -> bool {
        self.index.is_reordered()
    }

    fn reorder_strategy(&self) -> ReorderStrategy {
        self.index.reorder_strategy()
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
