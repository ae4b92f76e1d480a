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
use crate::hierarchy::Hierarchy;
use crate::hnsw::{self, HnswParams};
use gass_core::distance::{DistCounter, Space};
use gass_core::graph::FlatGraph;
use gass_core::index::{AnnIndex, IndexStats, PrebuiltIndex, QueryParams, ScratchPool};
use gass_core::reorder::ReorderStrategy;
use gass_core::search::{beam_search_gated, SearchResult};
use gass_core::seed::SeedProvider;
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
    /// The HNSW it routes over: its store, serving state and footprint
    /// (the hierarchy included, though LSH replaces it as seed provider).
    base: PrebuiltIndex<FlatGraph, Hierarchy>,
    lsh: LshSeeds,
    gamma: f32,
    scratch: ScratchPool,
    build: BuildReport,
}

impl LshapgIndex {
    /// Builds the HNSW base and the LSH tables.
    pub fn build(store: gass_core::VectorStore, params: LshapgParams) -> Self {
        let start = std::time::Instant::now();
        let base = hnsw::build(store, params.hnsw);
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
        let serving = self.base.serving();
        let space =
            Space::new(self.base.store(), counter).with_quant(serving.quant_view(params));
        // LSH seeds are bucket lookups: they spend no distance evaluation.
        let mut seeds = Vec::new();
        self.lsh.select(space, query, params.seed_count.max(4), 0, &mut seeds);
        // Probabilistic routing: a fresh neighbour is scored (on codes when
        // the base carries them, then reranked exactly) unless its sketch
        // estimate exceeds `γ ·` the buffer's bound at the start of the hop
        // (`+∞` until the buffer fills). The negated `>` scores a NaN
        // estimate, as the rejection test `est > γ · bound` always has.
        let (lsh, gamma) = (self.lsh.index(), self.gamma);
        let sketch = lsh.query_sketch(query);
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let gate = |nb: u32, bound: f32| {
            !bound.is_finite() || !(lsh.projected_dist_sq(&sketch, nb) > gamma * bound)
        };
        let res = self.scratch.with(space.len(), params.beam_width, |scratch| {
            beam_search_gated(
                self.base.graph(),
                serving.csr(),
                space,
                query,
                &seeds,
                params.k,
                params.beam_width,
                scratch,
                params.termination(),
                gate,
            )
        });
        // The traversal runs in the base graph's (possibly relabeled) id
        // space; the base serving state owns the new→old translation.
        serving.finish(res)
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
