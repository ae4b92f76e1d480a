//! The paper's instrumented baseline: a plain Incremental-Insertion (II)
//! graph with pluggable Neighborhood Diversification and pluggable
//! query-time Seed Selection.
//!
//! Section 4.2 isolates ND by building this graph once per strategy
//! (nodes inserted sequentially; each node's candidates come from a beam
//! search over the partial graph; bi-directional edges; overflow re-pruned
//! with the same strategy). Section 4.3 isolates SS by querying the RND
//! variant of this same graph under different seed providers. This module
//! is that instrument.

use crate::common::{add_reverse_edges, add_reverse_edges_concurrent, BuildReport};
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::{AdjacencyGraph, FlatGraph};
use gass_core::index::{AnnIndex, IndexStats, QueryParams, ScratchPool};
use gass_core::nd::NdStrategy;
use gass_core::par::ConcurrentAdjacency;
use gass_core::reorder::{ReorderStrategy, ServingState};
use gass_core::search::{beam_search, beam_search_frozen, SearchResult, SearchScratch};
use gass_core::seed::{RandomSeeds, SeedProvider};
use gass_core::store::VectorStore;

/// Parallel batches are capped at 1/8 of the already-built prefix (see
/// `gass_core::bounded_prefix_batches`): bounding how much of the graph a
/// batch is blind to keeps recall within noise of the serial build.
const BATCH_FRAC: usize = 8;

/// Construction parameters for the baseline II graph.
#[derive(Clone, Copy, Debug)]
pub struct IiParams {
    /// Maximum out-degree `R` (the paper's ND experiments use 60 at scale;
    /// scale down with dataset size).
    pub max_degree: usize,
    /// Construction beam width `L` (the paper uses 800 at scale).
    pub beam_width: usize,
    /// Diversification strategy applied to candidate lists and overflowing
    /// reverse lists.
    pub nd: NdStrategy,
    /// Seeds per insertion search: how many random already-inserted nodes
    /// warm each construction beam search (the **KS** construction
    /// strategy; Table 2's alternative is the SN-based HNSW).
    pub build_seeds: usize,
    /// RNG seed.
    pub seed: u64,
    /// Construction worker threads (0 = all available cores). At `1` the
    /// build is the exact sequential insertion. Above 1, prefix-doubling
    /// batches insert concurrently: per-batch seed draws stay serial (the
    /// seeder RNG is stateful), searches run in parallel against the
    /// frozen prefix, edges apply under striped locks.
    pub threads: usize,
}

impl IiParams {
    /// Sensible small-scale defaults: `R=24`, `L=96`, RND, 8 build seeds.
    pub fn small(nd: NdStrategy) -> Self {
        Self { max_degree: 24, beam_width: 96, nd, build_seeds: 8, seed: 42, threads: 1 }
    }
}

/// Draws this insertion's construction seeds: entry 0 plus `build_seeds`
/// random nodes folded into the inserted prefix `[0, id)`. Consumes the
/// seeder's RNG, so callers must invoke it in id order.
fn insertion_seeds(
    seeder: &RandomSeeds,
    space: Space<'_>,
    store: &VectorStore,
    build_seeds: usize,
    id: u32,
) -> Vec<u32> {
    let mut seed_buf = vec![0u32];
    let mut raw = Vec::new();
    seeder.seeds(space, store.get(id), build_seeds, &mut raw);
    seed_buf.extend(raw.into_iter().map(|s| s % id));
    seed_buf.sort_unstable();
    seed_buf.dedup();
    seed_buf
}

/// A built baseline II graph.
pub struct IiGraph {
    store: VectorStore,
    serving: ServingState,
    params: IiParams,
    default_seeds: Box<dyn SeedProvider>,
    scratch: ScratchPool,
    build: BuildReport,
    label: String,
}

impl IiGraph {
    /// Builds the graph by sequential insertion. Construction distance
    /// evaluations are counted into an internal counter reported via
    /// [`Self::build_report`].
    pub fn build(store: VectorStore, params: IiParams) -> Self {
        assert!(store.len() >= 2, "need at least two vectors");
        assert!(params.max_degree >= 1 && params.beam_width >= 1);
        let counter = DistCounter::new();
        let start = std::time::Instant::now();
        let n = store.len();
        let threads = gass_core::effective_threads(params.threads.max(1));
        let graph = {
            let space = Space::new(&store, &counter);
            let build_seeder = RandomSeeds::new(n, params.seed ^ 0x5eed);
            let mut scratch = SearchScratch::new(n, params.beam_width);
            // Serial path inserts everything; the parallel path only the
            // seed prefix, then continues in prefix-doubling batches.
            let serial_end = if threads <= 1 {
                n
            } else {
                gass_core::bounded_prefix_batches(
                    params.beam_width.max(64).min(n),
                    BATCH_FRAC,
                    n,
                )
                .first()
                .map_or(n, |b| b.start)
            };
            let mut graph = AdjacencyGraph::with_degree_hint(n, params.max_degree + 1);
            for id in 1..serial_end as u32 {
                // Seeds among the already inserted prefix [0, id).
                let seed_buf =
                    insertion_seeds(&build_seeder, space, &store, params.build_seeds, id);
                let res = beam_search(
                    &graph,
                    space,
                    store.get(id),
                    &seed_buf,
                    params.beam_width,
                    params.beam_width,
                    &mut scratch,
                );
                let selected =
                    params.nd.diversify(space, id, &res.neighbors, params.max_degree);
                graph.set_neighbors(id, selected.iter().map(|s| s.id).collect());
                add_reverse_edges(
                    space,
                    &mut graph,
                    id,
                    &selected,
                    params.max_degree,
                    params.nd,
                );
            }
            if threads <= 1 {
                graph
            } else {
                let batches = gass_core::bounded_prefix_batches(
                    params.beam_width.max(64).min(n),
                    BATCH_FRAC,
                    n,
                );
                let conc = ConcurrentAdjacency::from_adjacency(graph);
                for batch in batches {
                    // Seed draws stay serial, in id order: the seeder RNG
                    // is stateful and its stream must match the serial
                    // build's draw order.
                    let seeds: Vec<Vec<u32>> = batch
                        .clone()
                        .map(|id| {
                            insertion_seeds(
                                &build_seeder,
                                space,
                                &store,
                                params.build_seeds,
                                id as u32,
                            )
                        })
                        .collect();
                    // Phase A: read-only searches against the frozen prefix.
                    let prepared: Vec<(u32, Vec<gass_core::Neighbor>)> =
                        gass_core::par_map_with(
                            threads,
                            batch.len(),
                            || SearchScratch::new(n, params.beam_width),
                            |scratch, i| {
                                let id = (batch.start + i) as u32;
                                let res = beam_search(
                                    &conc,
                                    space,
                                    store.get(id),
                                    &seeds[i],
                                    params.beam_width,
                                    params.beam_width,
                                    scratch,
                                );
                                let selected = params.nd.diversify(
                                    space,
                                    id,
                                    &res.neighbors,
                                    params.max_degree,
                                );
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
                                params.max_degree,
                                params.nd,
                            );
                        }
                    });
                }
                conc.freeze()
            }
        };
        let build =
            BuildReport { seconds: start.elapsed().as_secs_f64(), dist_calcs: counter.get() };
        let flat = FlatGraph::from_adjacency(&graph, Some(params.max_degree));
        let default_seeds: Box<dyn SeedProvider> =
            Box::new(RandomSeeds::new(n, params.seed ^ 0xbeef));
        let label = format!("II+{}", params.nd.label());
        Self {
            store,
            params,
            default_seeds,
            serving: ServingState::new(flat),
            scratch: ScratchPool::new(),
            build,
            label,
        }
    }

    /// Replaces the default query-time seed provider (the SS experiments
    /// swap SN/KD/MD/SF/KS onto the same graph).
    pub fn set_seed_provider(&mut self, provider: Box<dyn SeedProvider>) {
        self.default_seeds = provider;
    }

    /// Searches using an explicit seed provider, leaving the default
    /// untouched.
    pub fn search_with(
        &self,
        provider: &dyn SeedProvider,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        let space =
            Space::new(&self.store, counter).with_quant(self.serving.quant_view(params));
        let mut seeds = Vec::new();
        provider.seeds(space, query, params.seed_count, &mut seeds);
        let res = self.scratch.with(self.store.len(), params.beam_width, |scratch| {
            beam_search_frozen(
                self.serving.graph(),
                self.serving.csr(),
                space,
                query,
                &seeds,
                params.k,
                params.beam_width,
                scratch,
                params.termination(),
            )
        });
        self.serving.finish(res)
    }

    /// Construction cost report.
    pub fn build_report(&self) -> BuildReport {
        self.build
    }

    /// The graph as built (for ablation and inspection). Empty once
    /// frozen: the CSR is then the only graph the index holds.
    pub fn graph(&self) -> &FlatGraph {
        self.serving.graph()
    }

    /// The vector store.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// Construction parameters.
    pub fn params(&self) -> &IiParams {
        &self.params
    }
}

impl AnnIndex for IiGraph {
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
        self.search_with(self.default_seeds.as_ref(), query, params, counter)
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
        if let Some(map) = self.serving.reorder(&mut self.store, strategy, &[]) {
            self.default_seeds.reorder(&map);
        }
    }

    fn is_reordered(&self) -> bool {
        self.serving.is_reordered()
    }

    fn reorder_strategy(&self) -> ReorderStrategy {
        self.serving.strategy()
    }

    fn stats(&self) -> IndexStats {
        let mut s = self.serving.stats();
        s.aux_bytes += self.default_seeds.heap_bytes();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::graph::GraphView;
    use gass_core::seed::StaticSeeds;
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    fn recall_of(
        index: &dyn AnnIndex,
        base: &VectorStore,
        queries: &VectorStore,
        l: usize,
    ) -> f64 {
        let k = 10;
        let gt = ground_truth(base, queries, k);
        let counter = DistCounter::new();
        let params = QueryParams::new(k, l).with_seed_count(8);
        let mut hit = 0usize;
        for (qi, row) in gt.iter().enumerate() {
            let res = index.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        hit as f64 / (gt.len() * k) as f64
    }

    #[test]
    fn rnd_baseline_achieves_high_recall() {
        let base = deep_like(600, 1);
        let queries = deep_like(20, 2);
        let g = IiGraph::build(base.clone(), IiParams::small(NdStrategy::Rnd));
        let r = recall_of(&g, &base, &queries, 64);
        assert!(r > 0.9, "II+RND recall too low: {r}");
        assert!(g.build_report().dist_calcs > 0);
        assert_eq!(g.name(), "II+RND");
    }

    #[test]
    fn degree_bound_holds() {
        let base = deep_like(300, 3);
        let g = IiGraph::build(base, IiParams::small(NdStrategy::Rnd));
        assert!(g.graph().max_degree() <= g.params().max_degree);
        assert!(g.stats().edges > 0);
    }

    #[test]
    fn rnd_sparsifies_without_losing_recall() {
        // Structural half of the Figure-5 claim that is scale-robust: RND
        // keeps strictly fewer edges than NoND on the same insertion
        // sequence, yet matches its recall at a generous beam width. (The
        // behavioural half — NoND needing more distance calls per unit
        // recall — emerges with dataset size and is measured by the
        // fig05_nd harness at release scale.)
        let base = deep_like(500, 4);
        let queries = deep_like(15, 5);
        let rnd = IiGraph::build(base.clone(), IiParams::small(NdStrategy::Rnd));
        let nond = IiGraph::build(base.clone(), IiParams::small(NdStrategy::NoNd));
        assert!(
            rnd.stats().edges < nond.stats().edges,
            "RND ({}) should keep fewer edges than NoND ({})",
            rnd.stats().edges,
            nond.stats().edges
        );
        let r_rnd = recall_of(&rnd, &base, &queries, 80);
        let r_nond = recall_of(&nond, &base, &queries, 80);
        assert!(r_rnd + 0.03 >= r_nond, "RND recall {r_rnd} fell below NoND {r_nond}");
        assert!(r_rnd > 0.9, "RND recall too low: {r_rnd}");
    }

    #[test]
    fn swapping_seed_provider_changes_behavior() {
        let base = deep_like(300, 6);
        let mut g = IiGraph::build(base.clone(), IiParams::small(NdStrategy::Rnd));
        let counter = DistCounter::new();
        let params = QueryParams::new(5, 32);
        let q = base.get(17);
        let default_res = g.search(q, &params, &counter);
        g.set_seed_provider(Box::new(StaticSeeds::new(vec![0])));
        let fixed_res = g.search(q, &params, &counter);
        // Both should find the exact point (it is in the dataset).
        assert_eq!(default_res.neighbors[0].id, 17);
        assert_eq!(fixed_res.neighbors[0].id, 17);
    }

    #[test]
    fn stats_count_the_installed_seed_provider() {
        let base = deep_like(300, 9);
        let mut g = IiGraph::build(base.clone(), IiParams::small(NdStrategy::Rnd));
        let counter = DistCounter::new();
        let providers: Vec<Box<dyn SeedProvider>> = vec![
            Box::new(gass_trees::KdForest::build(&base, 2, 16, 5)),
            Box::new(gass_trees::VpSeeds::build(Space::new(&base, &counter), 16, 5)),
        ];
        for provider in providers {
            let bytes = provider.heap_bytes();
            assert!(bytes > 0, "{} reports no bytes", provider.label());
            g.set_seed_provider(provider);
            assert!(g.stats().aux_bytes >= bytes, "aux_bytes leaves out the seed provider");
        }
    }

    #[test]
    fn search_with_medoid_provider() {
        let base = deep_like(200, 8);
        let g = IiGraph::build(base.clone(), IiParams::small(NdStrategy::Rnd));
        let counter = DistCounter::new();
        let space = Space::new(g.store(), &counter);
        let md = gass_core::seed::MedoidSeed::compute(space);
        let res = g.search_with(&md, base.get(3), &QueryParams::new(3, 32), &counter);
        assert_eq!(res.neighbors[0].id, 3);
    }
}
