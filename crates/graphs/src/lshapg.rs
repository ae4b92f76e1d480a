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
use crate::hnsw::{self, HnswParams};
use gass_core::graph::FlatGraph;
use gass_core::index::PrebuiltIndex;
use gass_hash::{LshIndex, LshSeeds, SketchGate};

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

/// A built LSHAPG index: HNSW's base layer, LSH seeds and the sketch gate.
pub type LshapgIndex = PrebuiltIndex<FlatGraph, LshSeeds, SketchGate>;

/// Fewest LSH seeds a query starts from, whatever `seed_count` asks.
const MIN_SEEDS: usize = 4;

/// Builds HNSW's base layer (its hierarchy is dropped: LSH replaces it as
/// seed provider, keeping only its top entry to start a BFS / RCM reorder),
/// then the LSH tables over the same store and the sketch gate on table 0.
/// LSH seeds are bucket lookups and spend no distance evaluation.
pub fn build(store: gass_core::VectorStore, params: LshapgParams) -> LshapgIndex {
    let start = std::time::Instant::now();
    let (base, hierarchy, hnsw_build) = hnsw::build_layers(&store, params.hnsw);
    let lsh = LshIndex::build_scaled(
        &store,
        params.tables,
        params.projections,
        params.width,
        params.hnsw.seed ^ 0x15b,
    );
    let gate = SketchGate::new(&lsh, &store, params.gamma);
    let build = BuildReport {
        seconds: start.elapsed().as_secs_f64(),
        dist_calcs: hnsw_build.dist_calcs,
    };
    let seeds = LshSeeds::new(lsh, 0, MIN_SEEDS);
    PrebuiltIndex::with_provider(store, base, Box::new(seeds), "LSHAPG")
        .with_gate(gate)
        .with_entries(hierarchy.entry_node().into_iter().collect())
        .with_build_report(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::{AnnIndex, QueryParams};
    use gass_core::search::{Gate, SearchResult};
    use gass_core::seed::SeedProvider;
    use gass_core::{DistCounter, ReorderStrategy, VectorStore};
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
        let idx = build(base.clone(), LshapgParams::small());
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
        let routed = build(base.clone(), LshapgParams::small());
        let unrouted =
            build(base.clone(), LshapgParams { gamma: f32::INFINITY, ..LshapgParams::small() });
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
        /// evaluations, recorded before the routed traversal read `term`,
        /// and re-recorded when the sketch gate's scale became `1 / m`.
        const FIXED_ANSWERS: u64 = 0x449a_987b_b148_3014;

        let base = deep_like(800, 5);
        let queries = deep_like(10, 6);
        let idx = build(base, LshapgParams::small());
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
        let unrouted = build(
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
        let idx = build(base, LshapgParams::small());
        assert!(idx.stats().aux_bytes > 0);
        assert_eq!(idx.name(), "LSHAPG");
    }

    /// LSHAPG's auxiliary bytes are its LSH tables and its gate (the sketch
    /// rows and table 0's projections), plus the remap and the LSH `new →
    /// old` table after a reorder; no hierarchy. IEH's are its LSH tables
    /// alone: it holds no sketch.
    #[test]
    fn hash_methods_count_their_tables_and_gate() {
        let (n, p) = (400, LshapgParams::small());
        let mut idx = build(deep_like(n, 5), p);
        let gate = idx.gate().heap_bytes();
        let sketch_f32s = n * p.projections + p.projections * (idx.dim() + 1);
        assert_eq!(gate, sketch_f32s * std::mem::size_of::<f32>());
        let tables = idx.seed_provider().heap_bytes();
        assert_eq!(idx.stats().aux_bytes, tables + gate);
        idx.reorder(ReorderStrategy::Rcm);
        let ids = n * std::mem::size_of::<u32>();
        let remap = idx.serving().remap().expect("reordered").heap_bytes();
        assert_eq!(remap, 2 * ids);
        assert_eq!(idx.seed_provider().heap_bytes(), tables + ids);
        assert_eq!(idx.stats().aux_bytes, tables + ids + gate + remap);

        let mut ieh = crate::ieh::build(deep_like(n, 5), crate::IehParams::small());
        let tables = ieh.seed_provider().heap_bytes();
        assert_eq!(ieh.stats().aux_bytes, tables);
        ieh.reorder(ReorderStrategy::Rcm);
        assert_eq!(ieh.seed_provider().heap_bytes(), tables + ids);
        assert_eq!(ieh.stats().aux_bytes, tables + ids + 2 * ids);
    }
}
