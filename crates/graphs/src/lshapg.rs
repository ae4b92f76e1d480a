//! **LSHAPG** — LSH-assisted proximity graph: an HNSW base layer whose
//! queries (i) retrieve seeds from multiple LSH tables instead of the SN
//! descent, and (ii) use *probabilistic routing*: a neighbor's distance is
//! estimated from its LSH projection sketch first, and the exact distance
//! is only computed when the estimate beats the current pruning bound
//! (scaled by a slack factor).
//!
//! The paper finds that this routing can prune *promising* neighbors,
//! forcing larger beam widths for high recall — our implementation
//! reproduces exactly that trade-off (the slack factor trades sketch
//! savings against misrouting).

use crate::common::BuildReport;
use crate::hnsw::{HnswIndex, HnswParams};
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::GraphView;
use gass_core::index::{AnnIndex, IndexStats, QueryParams, ScratchPool};
use gass_core::neighbor::Neighbor;
use gass_core::reorder::ReorderStrategy;
use gass_core::search::{SearchResult, SearchScratch, SearchStats};
use gass_core::seed::SeedProvider;
use gass_core::term::TermState;
use gass_hash::{LshIndex, LshSeeds};

/// LSHAPG construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct LshapgParams {
    /// Base-graph (HNSW) parameters.
    pub hnsw: HnswParams,
    /// Number of LSH tables.
    pub tables: usize,
    /// Projections per table.
    pub projections: usize,
    /// LSH bucket width *factor* (multiplies the data's projection std;
    /// see `LshIndex::build_scaled`).
    pub width: f32,
    /// Routing slack `γ ≥ 1`: evaluate a neighbor exactly only when its
    /// estimated distance is below `γ ·` current bound. `f32::INFINITY`
    /// disables routing (plain HNSW traversal with LSH seeds).
    pub gamma: f32,
}

impl LshapgParams {
    /// Small-scale defaults.
    pub fn small() -> Self {
        Self { hnsw: HnswParams::small(), tables: 4, projections: 8, width: 0.7, gamma: 1.8 }
    }
}

/// A built LSHAPG index.
pub struct LshapgIndex {
    base: HnswIndex,
    lsh: LshSeeds,
    gamma: f32,
    scratch: ScratchPool,
    build: BuildReport,
}

impl LshapgIndex {
    /// Builds the HNSW base and the LSH tables.
    pub fn build(store: gass_core::VectorStore, params: LshapgParams) -> Self {
        let start = std::time::Instant::now();
        let base = HnswIndex::build(store, params.hnsw);
        let lsh_index = LshIndex::build_scaled(
            base.store(),
            params.tables,
            params.projections,
            params.width,
            params.hnsw.seed ^ 0x15b,
        );
        let lsh = LshSeeds::new(lsh_index, 0);
        let build = BuildReport {
            seconds: start.elapsed().as_secs_f64(),
            dist_calcs: base.build_report().dist_calcs,
        };
        Self { base, lsh, gamma: params.gamma, scratch: ScratchPool::new(), build }
    }

    /// Construction cost report.
    pub fn build_report(&self) -> BuildReport {
        self.build
    }

    /// The LSH structure.
    pub fn lsh(&self) -> &LshIndex {
        self.lsh.index()
    }

    /// The probabilistic-routing traversal, generic over the base graph's
    /// layout so the frozen CSR form dispatches statically. It honours
    /// `params.term` and `params.max_dists` as `beam_search_terminated`
    /// does: checked once per expansion, right after the pop and before the
    /// neighbour list is touched; the exact rerank still runs after a stop.
    fn routed_traversal<G: GraphView + ?Sized>(
        &self,
        graph: &G,
        space: Space<'_>,
        query: &[f32],
        seeds: &[u32],
        params: &QueryParams,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        let sketch = self.lsh.index().query_sketch(query);
        let gamma = self.gamma;
        // Quantized serving routes the gated evaluations through the SQ8
        // codes (the "CSR path" carries a quant view on its `Space`); the
        // sketch still decides *whether* a neighbor is scored at all, the
        // codes decide *how cheaply*. The candidate pool is widened to
        // `rerank_factor * k` so the exact phase-2 re-score below can
        // recover from quantization error.
        let quant = space.quant();
        let pool = match quant {
            Some(q) => params.beam_width.max(params.k.saturating_mul(q.rerank_factor())),
            None => params.beam_width,
        };
        self.scratch.with(space.len(), pool, |scratch| {
            if let Some(q) = quant {
                q.store().prepare_into(query, &mut scratch.prepared);
            }
            let SearchScratch { visited, buffer, prepared } = scratch;
            let mut tstate = TermState::new(params.termination(), params.k);
            for &s in seeds {
                if (s as usize) < graph.num_nodes() && visited.insert(s) {
                    let d = match quant {
                        Some(_) => space.qdist_to(prepared, s),
                        None => space.dist_to(query, s),
                    };
                    stats.evaluated += 1;
                    buffer.insert(Neighbor::new(s, d));
                }
            }
            while let Some(cur) = buffer.next_unexpanded() {
                if tstate.should_stop(cur.dist, buffer, stats.evaluated) {
                    break;
                }
                stats.hops += 1;
                let bound = buffer.bound();
                for &nb in graph.neighbors(cur.id) {
                    if !visited.insert(nb) {
                        continue;
                    }
                    // Start pulling the vector (or its code line) while the
                    // sketch estimate is computed; if routing prunes the
                    // neighbor the prefetch is wasted bandwidth, otherwise
                    // it hides the load.
                    if quant.is_some() {
                        space.qprefetch(nb);
                    } else {
                        space.prefetch(nb);
                    }
                    // Probabilistic routing: sketch estimate gates the
                    // (quantized or exact) evaluation.
                    if bound.is_finite() {
                        let est = self.lsh.index().projected_dist_sq(&sketch, nb);
                        if est > gamma * bound {
                            continue;
                        }
                    }
                    let d = match quant {
                        Some(_) => space.qdist_to(prepared, nb),
                        None => space.dist_to(query, nb),
                    };
                    stats.evaluated += 1;
                    buffer.insert(Neighbor::new(nb, d));
                }
                tstate.note_expansion(buffer);
            }
            match quant {
                Some(q) => {
                    // Phase 2: exact re-score of the widened pool, then
                    // keep the true top k.
                    let mut cands = buffer.top_k(params.k.saturating_mul(q.rerank_factor()));
                    for n in &mut cands {
                        n.dist = space.dist_to(query, n.id);
                    }
                    stats.evaluated += cands.len();
                    cands.sort_unstable();
                    cands.truncate(params.k);
                    cands
                }
                None => buffer.top_k(params.k),
            }
        })
    }
}

impl AnnIndex for LshapgIndex {
    fn name(&self) -> String {
        "LSHAPG".to_string()
    }

    fn num_vectors(&self) -> usize {
        self.base.num_vectors()
    }

    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn search(
        &self,
        query: &[f32],
        params: &QueryParams,
        counter: &DistCounter,
    ) -> SearchResult {
        let store = self.base.store();
        let space = Space::new(store, counter).with_quant(
            self.base.quantized().map(|q| gass_core::QuantView::new(q, params.rerank_factor)),
        );
        let mut seeds = Vec::new();
        self.lsh.seeds(space, query, params.seed_count.max(4), &mut seeds);
        let mut stats = SearchStats::default();
        let neighbors = match self.base.csr() {
            Some(csr) => self.routed_traversal(csr, space, query, &seeds, params, &mut stats),
            None => self.routed_traversal(
                self.base.base_graph(),
                space,
                query,
                &seeds,
                params,
                &mut stats,
            ),
        };
        // The routed traversal runs in the base graph's (possibly
        // relabeled) id space; the base serving state owns the new→old
        // translation.
        self.base.serving().finish(SearchResult { neighbors, stats })
    }

    fn freeze(&mut self) {
        self.base.freeze();
    }

    fn is_frozen(&self) -> bool {
        self.base.is_frozen()
    }

    fn quantize(&mut self, spec: gass_core::CodecSpec) {
        // The base HNSW owns the store; its codes serve the routed
        // traversal too.
        self.base.quantize(spec);
    }

    fn is_quantized(&self) -> bool {
        self.base.is_quantized()
    }

    fn reorder(&mut self, strategy: ReorderStrategy) {
        // The LSH buckets and sketch rows must follow the base graph's
        // relabeling so seeds and sketch estimates stay in the same id
        // space as the permuted CSR.
        if let Some(map) = self.base.reorder_with(strategy) {
            self.lsh.reorder(&map);
        }
    }

    fn is_reordered(&self) -> bool {
        self.base.is_reordered()
    }

    fn reorder_strategy(&self) -> ReorderStrategy {
        self.base.reorder_strategy()
    }

    fn stats(&self) -> IndexStats {
        let mut s = self.base.stats();
        s.aux_bytes += self.lsh.heap_bytes();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::{DistCounter, VectorStore};
    use gass_data::ground_truth::ground_truth;
    use gass_data::synth::deep_like;

    fn recall(idx: &LshapgIndex, base: &VectorStore, queries: &VectorStore, l: usize) -> f64 {
        let gt = ground_truth(base, queries, 10);
        let counter = DistCounter::new();
        let params = QueryParams::new(10, l).with_seed_count(12);
        let mut hit = 0;
        for (qi, row) in gt.iter().enumerate() {
            let res = idx.search(queries.get(qi as u32), &params, &counter);
            hit += row.iter().filter(|t| res.neighbors.iter().any(|r| r.id == t.id)).count();
        }
        hit as f64 / (10 * gt.len()) as f64
    }

    #[test]
    fn lshapg_reasonable_recall_with_routing() {
        let base = deep_like(500, 1);
        let queries = deep_like(15, 2);
        let idx = LshapgIndex::build(base.clone(), LshapgParams::small());
        let r = recall(&idx, &base, &queries, 96);
        assert!(r > 0.8, "LSHAPG recall too low: {r}");
    }

    #[test]
    fn routing_prunes_evaluations_but_costs_recall() {
        // The paper's LSHAPG finding: probabilistic routing reduces exact
        // evaluations yet can prune promising neighbors, so at a fixed
        // beam width recall does not exceed the unrouted traversal.
        let base = deep_like(500, 3);
        let queries = deep_like(12, 4);
        let routed = LshapgIndex::build(base.clone(), LshapgParams::small());
        let unrouted = LshapgIndex::build(
            base.clone(),
            LshapgParams { gamma: f32::INFINITY, ..LshapgParams::small() },
        );
        let (c_r, c_u) = (DistCounter::new(), DistCounter::new());
        let params = QueryParams::new(10, 48).with_seed_count(12);
        for (_, q) in queries.iter() {
            routed.search(q, &params, &c_r);
            unrouted.search(q, &params, &c_u);
        }
        assert!(
            c_r.get() < c_u.get(),
            "routing should cut exact evaluations: {} vs {}",
            c_r.get(),
            c_u.get()
        );
        let rr = recall(&routed, &base, &queries, 48);
        let ru = recall(&unrouted, &base, &queries, 48);
        assert!(rr <= ru + 0.05, "routing recall {rr} implausibly above unrouted {ru}");
    }

    /// `--term` and `--max-dists` reach the routed traversal: a budget
    /// stops it within one expansion of the cap, DistRatio stops it
    /// before Fixed does, and Fixed answers what it always answered.
    #[test]
    fn lshapg_honours_termination_and_budget() {
        use gass_core::TerminationPolicy;

        /// FNV-1a over every answer's ids, distance bits, hops and
        /// evaluations, recorded before the routed traversal read `term`.
        const FIXED_ANSWERS: u64 = 0x7233_c4af_37ba_d385;

        let base = deep_like(800, 5);
        let queries = deep_like(10, 6);
        let idx = LshapgIndex::build(base, LshapgParams::small());
        let max_degree = idx.stats().max_degree;
        let fixed = QueryParams::new(10, 160).with_seed_count(12);
        let run = |params: QueryParams| -> Vec<SearchResult> {
            let counter = DistCounter::new();
            (0..queries.len() as u32)
                .map(|q| idx.search(queries.get(q), &params, &counter))
                .collect()
        };

        let fixed_res = run(fixed);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u32| {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in &fixed_res {
            word(r.neighbors.len() as u32);
            for n in &r.neighbors {
                word(n.id);
                word(n.dist.to_bits());
            }
            word(r.stats.hops as u32);
            word(r.stats.evaluated as u32);
        }
        assert_eq!(h, FIXED_ANSWERS, "Fixed LSHAPG answers changed");

        for (r, f) in run(fixed.with_max_dists(50)).iter().zip(&fixed_res) {
            assert!(
                r.stats.evaluated <= 50 + max_degree,
                "budget 50 overshot by more than one expansion: {}",
                r.stats.evaluated
            );
            assert!(
                r.stats.evaluated < f.stats.evaluated,
                "the budget never stopped the search"
            );
            assert_eq!(r.neighbors.len(), 10, "a budget stop still returns its best prefix");
        }
        // Routing at this beam width evaluates little past the buffer's
        // first fill, so DistRatio is checked where the traversal runs on:
        // the same index with routing off.
        let unrouted = LshapgIndex::build(
            deep_like(800, 5),
            LshapgParams { gamma: f32::INFINITY, ..LshapgParams::small() },
        );
        let unrouted_total = |params: QueryParams| -> usize {
            let counter = DistCounter::new();
            (0..queries.len() as u32)
                .map(|q| unrouted.search(queries.get(q), &params, &counter).stats.evaluated)
                .sum()
        };
        let narrow = QueryParams::new(10, 64).with_seed_count(12);
        let (fixed_total, ratio_total) = (
            unrouted_total(narrow),
            unrouted_total(narrow.with_term(TerminationPolicy::DistRatio { eps: 0.1 })),
        );
        assert!(
            ratio_total < fixed_total,
            "DistRatio must evaluate fewer distances than Fixed: {ratio_total} vs {fixed_total}"
        );
    }

    #[test]
    fn stats_account_lsh_tables() {
        let base = deep_like(200, 5);
        let idx = LshapgIndex::build(base, LshapgParams::small());
        assert!(idx.stats().aux_bytes > 0);
        assert_eq!(idx.name(), "LSHAPG");
    }
}
