//! Concurrent query-throughput measurement: QPS and latency percentiles
//! across a thread pool.
//!
//! The paper times queries sequentially ("mimicking a real-world scenario
//! where queries are unpredictable"); production deployments also care
//! about aggregate throughput under concurrency, which the `AnnIndex`
//! contract supports (`Send + Sync`, per-thread scratch via the pool).
//! This module measures both.

use gass_core::distance::DistCounter;
use gass_core::index::{AnnIndex, QueryParams};
use gass_core::store::VectorStore;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Latency/throughput summary for one run.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// Queries executed.
    pub queries: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Aggregate queries per second.
    pub qps: f64,
    /// Mean per-query latency in microseconds.
    pub mean_us: f64,
    /// 50th / 95th / 99th percentile latencies in microseconds.
    pub p50_us: f64,
    /// 95th percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th percentile latency in microseconds.
    pub p99_us: f64,
    /// Total distance calculations.
    pub dist_calcs: u64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Runs every query in `queries` (each `rounds` times) across `threads`
/// workers pulling from a shared work queue, and reports QPS plus latency
/// percentiles.
pub fn measure_throughput(
    index: &dyn AnnIndex,
    queries: &VectorStore,
    params: &QueryParams,
    threads: usize,
    rounds: usize,
) -> ThroughputReport {
    assert!(!queries.is_empty(), "throughput over empty query set");
    let threads = threads.max(1);
    let total = queries.len() * rounds.max(1);
    let counter = DistCounter::new();
    let next = AtomicUsize::new(0);
    let collected = std::sync::Mutex::new(Vec::with_capacity(total));

    let wall = std::time::Instant::now();
    gass_core::par::par_workers(threads, |_worker| {
        let mut lat = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                break;
            }
            let q = queries.get((i % queries.len()) as u32);
            let t = std::time::Instant::now();
            let res = index.search(q, params, &counter);
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(res);
        }
        collected.lock().unwrap().extend(lat);
    });
    let wall_s = wall.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = collected.into_inner().unwrap();
    latencies.sort_by(f64::total_cmp);
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    ThroughputReport {
        queries: total,
        threads,
        qps: total as f64 / wall_s.max(1e-12),
        mean_us: mean,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        dist_calcs: counter.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::index::SerialScanIndex;
    use gass_data::synth::deep_like;

    #[test]
    fn throughput_runs_all_queries() {
        let base = deep_like(300, 1);
        let queries = deep_like(12, 2);
        let idx = SerialScanIndex::new(base);
        let rep = measure_throughput(&idx, &queries, &QueryParams::new(5, 5), 4, 3);
        assert_eq!(rep.queries, 36);
        assert_eq!(rep.threads, 4);
        assert!(rep.qps > 0.0);
        assert!(rep.p50_us <= rep.p95_us && rep.p95_us <= rep.p99_us);
        // Every query scans all 300 vectors.
        assert_eq!(rep.dist_calcs, 36 * 300);
    }

    #[test]
    fn single_thread_matches_total_work() {
        let base = deep_like(100, 3);
        let queries = deep_like(5, 4);
        let idx = SerialScanIndex::new(base);
        let rep = measure_throughput(&idx, &queries, &QueryParams::new(3, 3), 1, 1);
        assert_eq!(rep.queries, 5);
        assert!(rep.mean_us > 0.0);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }
}
