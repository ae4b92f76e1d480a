//! # GASS — Graph-bAsed Similarity Search
//!
//! A unified Rust library of graph-based approximate nearest-neighbor
//! search, reproducing *"Graph-Based Vector Search: An Experimental
//! Evaluation of the State-of-the-Art"* (SIGMOD 2025): thirteen method
//! implementations (HNSW, NSG, SSG, Vamana, DPG, EFANNA, HCNNG, KGraph,
//! NGT, SPTAG-KDT/BKT, ELPIS, LSHAPG, plus NSW), the five design
//! paradigms they compose (Seed Selection, Neighborhood Propagation,
//! Incremental Insertion, Neighborhood Diversification,
//! Divide-and-Conquer), and the full experimental harness of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use gass::prelude::*;
//!
//! // 1k 96-d vectors from the Deep1B-like generator.
//! let base = gass::data::synth::deep_like(1_000, 42);
//! let queries = gass::data::synth::deep_like(5, 43);
//!
//! // Build an HNSW index and run 10-NN queries.
//! let index = HnswIndex::build(base.clone(), HnswParams::small());
//! let counter = DistCounter::new();
//! let res = index.search(queries.get(0), &QueryParams::new(10, 64), &counter);
//! assert_eq!(res.neighbors.len(), 10);
//!
//! // Exact ground truth and recall.
//! let truth = gass::data::ground_truth(&base, &queries, 10);
//! let r = gass::eval::recall_at_k(&truth[0], &res.neighbors, 10);
//! assert!(r > 0.5);
//! ```
//!
//! ## Crate map
//!
//! * [`core`] — vector store, distances + counting, graphs, beam search,
//!   ND strategies, seed-selection traits;
//! * [`trees`] — K-D/VP/TP/BKT/Hercules trees, k-means, MSTs;
//! * [`hash`] — multi-table Euclidean LSH;
//! * [`graphs`] — the method implementations and the paradigm-composable
//!   baseline;
//! * [`data`] — synthetic dataset analogs, query workloads, ground truth;
//! * [`eval`] — recall sweeps, LID/LRC, memory accounting, reporting.

#![warn(missing_docs)]

pub use gass_core as core;
pub use gass_data as data;
pub use gass_eval as eval;
pub use gass_graphs as graphs;
pub use gass_hash as hash;
pub use gass_trees as trees;

/// Commonly used items for application code.
pub mod prelude {
    pub use gass_core::{
        AnnIndex, DistCounter, NdStrategy, Neighbor, PrebuiltIndex, QueryParams, SeedProvider,
        VectorStore,
    };
    pub use gass_data::DatasetKind;
    pub use gass_graphs::{
        build_method, nsg, vamana, ElpisIndex, ElpisParams, HnswIndex, HnswParams, IiGraph,
        IiParams, MethodKind, NsgParams, VamanaParams,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let base = gass_data::synth::imagenet_like(300, 1);
        let built = build_method(MethodKind::Hnsw, base.clone(), 5);
        let counter = DistCounter::new();
        let res = built.index.search(base.get(7), &QueryParams::new(3, 32), &counter);
        assert_eq!(res.neighbors[0].id, 7);
    }
}
