//! # gass-core
//!
//! Core substrates for graph-based approximate nearest-neighbor (ANN)
//! search, as surveyed and evaluated in *"Graph-Based Vector Search: An
//! Experimental Evaluation of the State-of-the-Art"* (SIGMOD 2025).
//!
//! Everything the twelve state-of-the-art methods share lives here:
//!
//! * [`store::VectorStore`] — contiguous dense `f32` vectors;
//! * [`distance`] — Euclidean kernels and the distance-call accounting that
//!   underpins every experiment;
//! * [`graph`] — adjacency-list and flat contiguous proximity-graph
//!   layouts;
//! * [`search`] — the beam search (the paper's Algorithm 1) used verbatim
//!   by every method, plus greedy descent and the exact serial scan;
//! * [`nd`] — the three Neighborhood Diversification strategies (RND,
//!   RRND, MOND) and the NoND baseline;
//! * [`seed`] — the Seed Selection abstraction with the structure-free
//!   strategies (SF, MD, KS);
//! * [`index`] — the [`index::AnnIndex`] trait all methods answer
//!   through, [`index::PrebuiltIndex`] (graph + seed provider + gate, the
//!   index type of every graph-plus-seeds method), and the scratch pool for
//!   allocation-free querying.
//!
//! Methods themselves live in `gass-graphs`; tree and hash substrates in
//! `gass-trees` and `gass-hash`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod distance;
pub mod fanout;
pub mod graph;
pub mod index;
pub mod kmeans;
pub mod mmap;
pub mod nd;
pub mod neighbor;
pub mod par;
pub mod partition;
pub mod persist;
pub mod quant;
pub mod reorder;
pub mod search;
pub mod seed;
pub mod sharded;
pub mod stats;
pub mod store;
pub mod term;
pub mod visited;

pub use distance::{
    dot, l2, l2_sq, l2_sq_batch, prefetch_enabled, set_prefetch_enabled, set_simd_enabled,
    simd_backend, DistCounter, QuantView, Space,
};
pub use fanout::{
    fanout_workers, num_nodes, set_fanout_enabled, set_fanout_workers, set_numa_enabled,
    FanoutPool,
};
pub use graph::{AdjacencyGraph, CsrGraph, FlatGraph, GraphView};
pub use index::{
    pin_scratch_home, AnnIndex, BuildReport, IndexStats, PrebuiltIndex, QueryParams,
    ScratchPool, SerialScanIndex,
};
pub use kmeans::{balanced_kmeans, kmeans as kmeans_cluster, maximin_lloyd, Clustering};
pub use mmap::{mmap_enabled, MmapBuf, MmapRegion};
pub use nd::NdStrategy;
pub use neighbor::{BoundedMaxHeap, Neighbor, SortedBuffer};
pub use par::{
    bounded_prefix_batches, effective_threads, par_for, par_map, par_map_with, par_workers,
    prefix_doubling_batches, ConcurrentAdjacency,
};
pub use partition::{PartIndex, Partitioned, Router};
pub use persist::{
    load_flat_graph, load_shard_table, load_store, open_store, peek_kind, save_flat_graph,
    save_shard_table, save_store, save_store_mapped, MappedStoreWriter, PersistError,
    ShardTable,
};
pub use quant::{
    l2_sq_u4, l2_sq_u4_batch, l2_sq_u8, l2_sq_u8_batch, pq_auto_m, pq_scan, pq_scan_batch,
    CodecSpec, CodecStore, PqStore, PreparedQuery, QuantizedStore, Sq4Store,
};
pub use reorder::{
    compute_permutation, mean_edge_span, IdRemap, ReorderStrategy, ServingState,
};
pub use search::{
    beam_search, beam_search_frozen, beam_search_gated, beam_search_terminated,
    beam_search_with_sink, greedy_search, serial_scan, Gate, Open, SearchResult, SearchScratch,
    SearchStats,
};
pub use seed::{FixedSeed, MedoidSeed, OriginalIds, RandomSeeds, SeedProvider, StaticSeeds};
pub use sharded::{CentroidRouter, ShardedIndex, ShardedParams};
pub use stats::Histogram;
pub use store::VectorStore;
pub use term::{TermState, Termination, TerminationPolicy};
pub use visited::VisitedSet;
