//! Log-bucketed latency histogram for serving-path measurement.
//!
//! The serving layer (`gass-serve`) needs latency quantiles over millions
//! of samples without keeping the samples: a fixed-size histogram whose
//! buckets grow geometrically, so relative error is bounded (~4% per
//! bucket) across nine orders of magnitude of latency. Recording is a single counter
//! increment — cheap enough for the per-request hot path — and histograms
//! recorded independently by worker threads [`Histogram::merge`] into one
//! distribution for the stats endpoint, exactly like HdrHistogram-style
//! aggregation in production servers (the workspace builds offline, so
//! this is the zero-dependency equivalent).

/// Sub-buckets per power of two: each bucket spans a `2^(1/16)` ratio, so
/// a reported quantile is within ~4.4% of the true sample value.
const SUBS_PER_OCTAVE: usize = 16;
/// Octaves covered: values in `[1, 2^40)` resolve to a real bucket;
/// larger values clamp into the final bucket.
const OCTAVES: usize = 40;
const BUCKETS: usize = SUBS_PER_OCTAVE * OCTAVES;

/// A log-bucketed histogram over `u64` samples (microseconds, by
/// convention, though the scale is the caller's choice).
///
/// ```
/// use gass_core::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for us in [100u64, 200, 300, 400, 10_000] {
///     h.record(us);
/// }
/// assert_eq!(h.count(), 5);
/// // p50 lands in the bucket holding 300 (within the ~4% bucket width).
/// let p50 = h.quantile(0.50);
/// assert!((280..=320).contains(&p50), "{p50}");
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index for a sample: `floor(log2(v) * 16)`, computed from the
/// bit width plus a 4-bit sub-octave mantissa slice. Zero maps to the
/// first bucket.
fn bucket_of(v: u64) -> usize {
    if v < 2 {
        return 0;
    }
    let octave = 63 - v.leading_zeros() as usize; // floor(log2 v) >= 1
                                                  // The 4 mantissa bits right below the leading bit pick the sub-bucket.
    let sub = ((v >> octave.saturating_sub(4)) & 0xF) as usize;
    let idx = octave * SUBS_PER_OCTAVE + if octave >= 4 { sub } else { 0 };
    idx.min(BUCKETS - 1)
}

/// Representative value (geometric lower edge) of a bucket, the value
/// reported for quantiles resolving to it.
fn bucket_value(idx: usize) -> u64 {
    let octave = idx / SUBS_PER_OCTAVE;
    let sub = idx % SUBS_PER_OCTAVE;
    if octave < 4 {
        // Low octaves have one populated sub-bucket; value is 2^octave.
        return 1u64 << octave;
    }
    (1u64 << octave) + ((sub as u64) << (octave - 4))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` in `[0, 1]`: the representative value of
    /// the first bucket whose cumulative count reaches `ceil(q * count)`.
    /// Exact recorded extremes are used for `q = 0` and `q = 1`; an empty
    /// histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp into the true recorded range: bucket edges can
                // stick out past min/max for sparse histograms.
                return bucket_value(idx).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self` (worker-local histograms
    /// fold into the shared one).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Non-empty buckets as `(representative_value, count)` pairs in
    /// ascending value order — the export shape for stats endpoints.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_value(i), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut prev = 0;
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1000, 65_535, 65_536, 1 << 30] {
            let b = bucket_of(v);
            assert!(b >= prev, "bucket_of must be monotone at {v}");
            prev = b;
            // The representative value is within one bucket ratio below v:
            // ~4.4% once sub-buckets kick in (v >= 16), a full octave below.
            let rep = bucket_value(b);
            assert!(rep <= v.max(1), "rep {rep} > {v}");
            let ratio = if v >= 16 { 1.08 } else { 2.0 };
            assert!((rep as f64) >= v as f64 / ratio, "rep {rep} too far below {v}");
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        for (q, want) in [(0.50, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q) as f64;
            assert!((got - want).abs() / want < 0.05, "q={q}: got {got}, want ~{want}");
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 10_000);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 17, 170, 1_700, 42] {
            a.record(v);
            all.record(v);
        }
        for v in [9u64, 90, 900, 1 << 20] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn single_sample_pins_all_quantiles() {
        let mut h = Histogram::new();
        h.record(777);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let got = h.quantile(q);
            assert!((720..=777).contains(&got), "q={q}: {got}");
        }
        assert_eq!(h.max(), 777);
    }

    #[test]
    fn reset_empties() {
        let mut h = Histogram::new();
        h.record(5);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.9), 0);
    }

    #[test]
    fn nonzero_buckets_export() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(100);
        h.record(1_000_000);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].1, 2);
        assert_eq!(buckets[1].1, 1);
        assert!(buckets[0].0 < buckets[1].0);
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.quantile(0.5) > 0);
    }
}
