//! Batch execution: the compute half of the server, separated from the
//! socket half so tests can drive it directly.
//!
//! A drained micro-batch is answered inline on the worker's core, one
//! [`AnnIndex::search_coalesced`] call per run of consecutive jobs with
//! equal [`QueryParams`] (in practice the whole batch): the sequential
//! per-query loop on a monolithic index (DESIGN.md §12), routed
//! per-shard buckets on a [`gass_core::ShardedIndex`] (DESIGN.md §13).
//!
//! Batching is observationally invisible: a batch of N returns
//! bit-identical neighbors, distances, and counter totals to N individual
//! `index.search` calls (property-tested in `tests/batch_invisibility.rs`).

use gass_core::distance::DistCounter;
use gass_core::index::{AnnIndex, QueryParams};
use gass_core::search::SearchResult;

/// Answers `jobs` (query vector + params each) against `index`, one
/// `search_coalesced` call per run of consecutive equal-params jobs.
/// Results are returned in job order.
///
/// # Panics
/// Panics if any query's dimensionality differs from the index's — the
/// connection layer rejects those as `BadRequest` before enqueueing.
pub fn execute_coalesced(
    index: &dyn AnnIndex,
    jobs: &[(Vec<f32>, QueryParams)],
    counter: &DistCounter,
) -> Vec<SearchResult> {
    let dim = index.dim();
    assert!(jobs.iter().all(|(q, _)| q.len() == dim), "engine fed a dim-mismatched query");
    let mut results = Vec::with_capacity(jobs.len());
    for run in jobs.chunk_by(|a, b| a.1 == b.1) {
        let queries: Vec<&[f32]> = run.iter().map(|(q, _)| q.as_slice()).collect();
        results.extend(index.search_coalesced(&queries, &run[0].1, counter));
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::SerialScanIndex;
    use gass_core::store::VectorStore;

    #[test]
    fn empty_batch_is_fine() {
        let store = VectorStore::from_flat(1, vec![0.0]);
        let index = SerialScanIndex::new(store);
        let counter = DistCounter::new();
        assert!(execute_coalesced(&index, &[], &counter).is_empty());
    }
}
