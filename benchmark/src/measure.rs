//! The two ways a run looks at the program: one deterministic pass that
//! yields the counted metrics and the checked reference answers, and timed
//! rounds bracketed by calibration slices that yield `qps_norm`.

use crate::calib::Calib;
use crate::client::Reply;
use crate::paths::{Decomposed, PathScratch};
use crate::stats::quantile_sorted;
use crate::trace::Tracer;
use crate::workload::{setup, Data, Engine, Spec, K};
use gass_core::distance::l2_sq;
use gass_core::index::{AnnIndex, QueryParams};
use gass_core::neighbor::Neighbor;
use gass_core::{DistCounter, VectorStore};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// The checked answers of the deterministic pass, and what they cost.
pub struct Reference {
    /// `nq × K` entries, `id << 32 | distance bits`.
    packed: Vec<u64>,
    /// Per-query `DistCounter` delta.
    pub dists: Vec<u64>,
    /// Per-query recall@K hits (0..=K).
    pub hits: Vec<u8>,
    pub u8_dists: u64,
    pub f32_dists: u64,
    pub hops: u64,
    pub attempted: u64,
    pub failed: u64,
}

fn pack(id: u32, dist: f32) -> u64 {
    (u64::from(id) << 32) | u64::from(dist.to_bits())
}

/// An answer is well formed when it has `K` distinct in-range ids in
/// ascending distance order and every distance is bit-for-bit the exact
/// `l2_sq` to that base vector.
fn well_formed(ns: &[Neighbor], query: &[f32], data: &Data) -> bool {
    ns.len() == K
        && ns.iter().all(|n| (n.id as usize) < data.base.len())
        && ns.windows(2).all(|w| w[0].dist <= w[1].dist)
        && (1..ns.len()).all(|i| ns[..i].iter().all(|m| m.id != ns[i].id))
        && ns.iter().all(|n| n.dist.to_bits() == l2_sq(query, data.base.get(n.id)).to_bits())
}

impl Reference {
    /// One single-thread pass over the whole query set, in order.
    pub fn build(index: &dyn AnnIndex, params: &QueryParams, data: &Data) -> Reference {
        let nq = data.queries.len();
        let counter = DistCounter::new();
        let mut r = Reference {
            packed: Vec::with_capacity(nq * K),
            dists: Vec::with_capacity(nq),
            hits: Vec::with_capacity(nq),
            u8_dists: 0,
            f32_dists: 0,
            hops: 0,
            attempted: nq as u64,
            failed: 0,
        };
        for qi in 0..nq {
            let q = data.queries.get(qi as u32);
            let before = counter.get();
            let res = index.search(q, params, &counter);
            r.dists.push(counter.get() - before);
            r.hops += res.stats.hops as u64;
            if !well_formed(&res.neighbors, q, data) {
                r.failed += 1;
            }
            let truth = &data.truth[qi];
            r.hits.push(res.neighbors.iter().filter(|n| truth.contains(&n.id)).count() as u8);
            for slot in 0..K {
                // A short answer already failed; pad so indexing stays valid.
                r.packed.push(res.neighbors.get(slot).map_or(u64::MAX, |n| pack(n.id, n.dist)));
            }
        }
        r.u8_dists = counter.get_u8();
        r.f32_dists = counter.get_f32();
        r
    }

    pub fn len(&self) -> usize {
        self.dists.len()
    }

    pub fn recall(&self) -> f64 {
        self.hits.iter().map(|&h| u64::from(h)).sum::<u64>() as f64 / (self.len() * K) as f64
    }

    pub fn dists_per_query(&self) -> f64 {
        self.dists.iter().sum::<u64>() as f64 / self.len() as f64
    }

    pub fn dists_p99(&self) -> u64 {
        let mut s = self.dists.clone();
        s.sort_unstable();
        quantile_sorted(&s, 0.99)
    }

    /// A later answer to query `qi` passes when it is the reference answer,
    /// bit for bit (the reference itself was checked in full).
    pub fn matches(&self, qi: usize, ns: &[Neighbor]) -> bool {
        ns.len() == K
            && ns
                .iter()
                .zip(&self.packed[qi * K..])
                .all(|(n, &want)| pack(n.id, n.dist) == want)
    }

    pub fn matches_wire(&self, qi: usize, reply: &Reply) -> bool {
        match reply {
            Reply::Neighbors(ns) => {
                ns.len() == K
                    && ns
                        .iter()
                        .zip(&self.packed[qi * K..])
                        .all(|(&(id, d), &want)| pack(id, d) == want)
            }
            Reply::Refused => false,
        }
    }
}

/// One set-up, timed.
pub struct SetupTime {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Seconds the set-up would take with the host at its reference speed:
    /// `wall_s × calibration rate bracketing it ÷ the workload's reference
    /// rate`. Set-up and calibration slow down together in the host's slow
    /// phases (README, "Why the timings are normalised"), so this repeats
    /// where `wall_s` does not, and equals it on a calm host.
    pub ref_s: f64,
}

/// Runs the workload's set-up between two calibration slices (four times
/// the usual length: two readings have to normalise seconds of work).
pub fn timed_setup(
    spec: &Spec,
    base: &VectorStore,
    out: &Path,
    tag: &str,
    calib: &mut Calib,
    tr: &mut Tracer,
) -> io::Result<(Engine, SetupTime)> {
    let slice = 4 * spec.calib_queries;
    let before = calib.run(slice);
    let t = Instant::now();
    let engine = setup(spec, base, out, tag, tr)?;
    let wall_s = t.elapsed().as_secs_f64();
    let after = calib.run(slice);
    let ref_s = wall_s * (before + after) / 2.0 / spec.calib_ref_qps;
    Ok((engine, SetupTime { wall_s, ref_s }))
}

/// A latency sample: nanoseconds, saturating.
pub fn ns_u32(d: Duration) -> u32 {
    d.as_nanos().min(u128::from(u32::MAX)) as u32
}

/// One timed round's outcome.
pub struct RoundOut {
    pub qps: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Closed loop, one caller: the next query starts when the previous one
/// returned. `lat` receives per-query latencies in nanoseconds.
pub fn inproc_round(
    count: usize,
    data: &Data,
    reference: &Reference,
    lat: &mut Vec<u32>,
    mut search: impl FnMut(usize, &[f32]) -> Vec<Neighbor>,
) -> RoundOut {
    let nq = data.queries.len();
    let mut failed = 0u64;
    let t0 = Instant::now();
    let mut prev = t0;
    for i in 0..count {
        let qi = i % nq;
        let ns = search(i, data.queries.get(qi as u32));
        failed += u64::from(!reference.matches(qi, &ns));
        let now = Instant::now();
        lat.push(ns_u32(now - prev));
        prev = now;
    }
    RoundOut {
        qps: count as f64 / (prev - t0).as_secs_f64().max(1e-9),
        attempted: count as u64,
        failed,
    }
}

/// What a round asks and what it checks the answers against.
#[derive(Clone, Copy)]
pub struct RoundJob<'a> {
    pub params: &'a QueryParams,
    pub count: usize,
    pub data: &'a Data,
    pub reference: &'a Reference,
    pub counter: &'a DistCounter,
}

/// One round of `job.count` queries against `engine` the way its users meet it:
/// `AnnIndex::search` in process, or the pipelined TCP connection.
/// `decomposed` switches the in-process call to the layer-by-layer path
/// (spans are recorded when `tr` is on).
pub fn engine_round(
    engine: &mut Engine,
    job: &RoundJob,
    decomposed: bool,
    tr: &mut Tracer,
    lat: &mut Vec<u32>,
) -> io::Result<RoundOut> {
    let RoundJob { params, count, data, reference, counter } = *job;
    let nq = data.queries.len();
    if let Engine::Served { conn, .. } = engine {
        let mut failed = 0u64;
        let t0 = Instant::now();
        conn.pipelined(
            count,
            params,
            |i| data.queries.get((i % nq) as u32),
            tr,
            |i, reply, took| {
                failed += u64::from(!reference.matches_wire(i % nq, &reply));
                lat.push(ns_u32(took));
            },
        )?;
        let qps = count as f64 / t0.elapsed().as_secs_f64().max(1e-9);
        return Ok(RoundOut { qps, attempted: count as u64, failed });
    }
    if !decomposed {
        let index = engine.index();
        return Ok(inproc_round(count, data, reference, lat, |_, q| {
            index.search(q, params, counter).neighbors
        }));
    }
    let path = match engine {
        Engine::Hnsw(idx) => Decomposed::Hnsw(idx),
        Engine::Sharded { index, .. } => Decomposed::sharded(index),
        Engine::Served { .. } => unreachable!("handled above"),
    };
    let mut ps = PathScratch::new();
    Ok(inproc_round(count, data, reference, lat, |i, q| {
        path.query(q, (i % nq) as u32, params, counter, tr, &mut ps).neighbors
    }))
}

/// The rounds of one mode of a timed window.
#[derive(Default)]
pub struct Series {
    pub qps: Vec<f64>,
    /// `qps_i ÷ mean(calibration rate before, after)`.
    pub norm: Vec<f64>,
    pub lat_ns: Vec<u32>,
}

#[derive(Default)]
pub struct WindowOut {
    pub series: Vec<Series>,
    pub calib: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl WindowOut {
    pub fn absorb(&mut self, other: WindowOut) {
        if self.series.len() < other.series.len() {
            self.series.resize_with(other.series.len(), Series::default);
        }
        for (mine, theirs) in self.series.iter_mut().zip(other.series) {
            mine.qps.extend(theirs.qps);
            mine.norm.extend(theirs.norm);
            mine.lat_ns.extend(theirs.lat_ns);
        }
        self.calib.extend(other.calib);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Runs `round(mode, lat)` for about `seconds`, cycling through `modes`
/// (interleaving is what makes two modes comparable on a drifting host),
/// with one calibration slice between consecutive rounds. Each mode's first
/// round is a discarded warm-up; its answers are still checked.
pub fn window(
    seconds: f64,
    modes: usize,
    calib: &mut Calib,
    calib_queries: usize,
    mut round: impl FnMut(usize, &mut Vec<u32>) -> io::Result<RoundOut>,
) -> io::Result<WindowOut> {
    let mut out = WindowOut::default();
    out.series.resize_with(modes, Series::default);
    let mut discard = Vec::new();
    for mode in 0..modes {
        let r = round(mode, &mut discard)?;
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
    let start = Instant::now();
    let mut before = calib.run(calib_queries);
    out.calib.push(before);
    loop {
        for mode in 0..modes {
            let r = round(mode, &mut out.series[mode].lat_ns)?;
            let after = calib.run(calib_queries);
            out.calib.push(after);
            out.attempted += r.attempted;
            out.failed += r.failed;
            out.series[mode].qps.push(r.qps);
            out.series[mode].norm.push(r.qps / ((before + after) / 2.0));
            before = after;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(out);
        }
    }
}

/// `(p50, p99)` in microseconds of nanosecond samples.
pub fn latency_us(lat_ns: &mut [u32]) -> (f64, f64) {
    if lat_ns.is_empty() {
        return (0.0, 0.0);
    }
    lat_ns.sort_unstable();
    (
        f64::from(quantile_sorted(lat_ns, 0.50)) / 1e3,
        f64::from(quantile_sorted(lat_ns, 0.99)) / 1e3,
    )
}
