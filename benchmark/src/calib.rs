//! The benchmark-owned calibration loop that turns wall-clock throughput
//! into `qps_norm`.
//!
//! This host's speed drifts by a multiplicative factor that lasts seconds
//! to minutes (README, "Why normalise"), so raw QPS of identical code spreads
//! by tens of percent between runs. Each timed round is therefore bracketed
//! by two slices of this loop and reported as `qps ÷ mean(calib rate)`.
//!
//! The loop must see the same host factor as graph search and nothing a
//! later PR can change, so it owns everything it runs: a packed copy of the
//! workload's base vectors, its own scalar L2, its own LCG. One calibration
//! query is a greedy walk of [`HOPS`] hops over [`FANOUT`] pseudo-neighbours
//! — the gather-then-branch shape of beam search over the same working set
//! — where the next hop depends on the comparison results of this one.
//! After [`Calib::new`] no `gass-*` type is touched.

use std::time::Instant;

const HOPS: usize = 26;
const FANOUT: usize = 16;

/// Knuth's MMIX multiplier; the generator only has to scatter node ids.
#[inline(always)]
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407)
}

/// Squared L2 over eight independent accumulators. `inline(never)` keeps
/// the call boundary (and so the cost) fixed regardless of how the caller
/// is compiled.
#[inline(never)]
fn l2_sq_8acc(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = a.len() / 8;
    for c in 0..chunks {
        let (x, y) = (&a[c * 8..c * 8 + 8], &b[c * 8..c * 8 + 8]);
        for l in 0..8 {
            let d = x[l] - y[l];
            acc[l] += d * d;
        }
    }
    for i in chunks * 8..a.len() {
        let d = a[i] - b[i];
        acc[i % 8] += d * d;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// The calibration working set and generator state.
pub struct Calib {
    data: Vec<f32>,
    dim: usize,
    n: u64,
    state: u64,
    /// Accumulates every walk's end point so the optimiser cannot drop the
    /// work; read by [`Calib::sink`].
    sink: u64,
}

impl Calib {
    /// Takes a packed row-major copy of the base vectors (`dim` floats per
    /// row).
    pub fn new(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0 && data.len() >= dim, "calibration needs at least one row");
        let n = (data.len() / dim) as u64;
        Self { data, dim, n, state: 0x9e37_79b9_7f4a_7c15, sink: 0 }
    }

    #[inline(always)]
    fn row(&self, id: u64) -> &[f32] {
        let s = id as usize * self.dim;
        &self.data[s..s + self.dim]
    }

    fn one_query(&mut self) {
        self.state = lcg(self.state);
        let q = (self.state >> 33) % self.n;
        self.state = lcg(self.state);
        let mut cur = (self.state >> 33) % self.n;
        for hop in 0..HOPS {
            let mut best = f32::INFINITY;
            let mut best_id = cur;
            let mut s = lcg(cur ^ ((hop as u64) << 40) ^ self.state);
            for _ in 0..FANOUT {
                s = lcg(s);
                let nb = (s >> 33) % self.n;
                let d = l2_sq_8acc(self.row(q), self.row(nb));
                if d < best {
                    best = d;
                    best_id = nb;
                }
            }
            cur = best_id;
        }
        self.sink = self.sink.wrapping_add(cur);
    }

    /// Runs `queries` calibration queries and returns their rate in
    /// queries per second.
    pub fn run(&mut self, queries: usize) -> f64 {
        let t = Instant::now();
        for _ in 0..queries {
            self.one_query();
        }
        queries as f64 / t.elapsed().as_secs_f64().max(1e-9)
    }

    /// The accumulated walk end points (print it: keeps the loop live).
    pub fn sink(&self) -> u64 {
        self.sink
    }
}
