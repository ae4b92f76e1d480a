//! The workspace's single k-means implementation.
//!
//! Three consumers share these loops, each with a different contract that
//! this module preserves exactly:
//!
//! * [`kmeans`] — Lloyd's over an id subset of a [`VectorStore`]
//!   (`gass-trees` re-exports it for BKT seed selection); every point ↔
//!   centroid distance is counted through the provided [`DistCounter`] so
//!   clustering cost shows up in construction accounting.
//! * [`balanced_kmeans`] — the capacity-capped greedy variant (Malinen &
//!   Fränti style) used by SPTAG-BKT and by [`crate::sharded::ShardedIndex`]
//!   partitioning: each cluster accepts at most `ceil(n/k)` points per
//!   round, points claim clusters in order of assignment confidence.
//! * [`maximin_lloyd`] — the fully deterministic (seed-free) variant behind
//!   PQ codebook training: maximin seeding from the data mean, fixed
//!   iteration count, strict-`<` assignment, f64 sums in row order, empty
//!   clusters reseeded at the farthest assigned point. Bit-identical to the
//!   trainer PQ shipped with (guarded by the PQ proptests).

use crate::distance::{l2_sq, nearest8, to_blocks8, DistCounter, POINTS8};
use crate::store::VectorStore;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Result of a clustering run.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// `k` centroid vectors (row-major, `dim` floats each).
    pub centroids: Vec<Vec<f32>>,
    /// For each input id (parallel to the `ids` argument), the index of its
    /// assigned cluster.
    pub assignment: Vec<usize>,
}

impl Clustering {
    /// Groups the input ids by cluster.
    pub fn groups(&self, ids: &[u32]) -> Vec<Vec<u32>> {
        let k = self.centroids.len();
        let mut groups = vec![Vec::new(); k];
        for (pos, &c) in self.assignment.iter().enumerate() {
            groups[c].push(ids[pos]);
        }
        groups
    }
}

fn init_centroids(
    store: &VectorStore,
    ids: &[u32],
    k: usize,
    rng: &mut SmallRng,
) -> Vec<Vec<f32>> {
    // k-means++ style seeding, but with a fixed candidate sample to keep it
    // O(k·sample) rather than O(k·n).
    let mut picks: Vec<u32> = ids.to_vec();
    picks.shuffle(rng);
    picks.truncate(k.max(1));
    // If fewer ids than k, repeat.
    while picks.len() < k {
        picks.push(ids[rng.random_range(0..ids.len())]);
    }
    picks.iter().map(|&id| store.get(id).to_vec()).collect()
}

/// Standard Lloyd's k-means over `ids`, `iters` refinement rounds.
///
/// # Panics
/// Panics if `ids` is empty or `k == 0`.
pub fn kmeans(
    store: &VectorStore,
    ids: &[u32],
    k: usize,
    iters: usize,
    seed: u64,
    counter: &DistCounter,
) -> Clustering {
    assert!(!ids.is_empty(), "k-means over empty id set");
    assert!(k > 0, "k must be positive");
    let dim = store.dim();
    let k = k.min(ids.len());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids = init_centroids(store, ids, k, &mut rng);
    let mut assignment = vec![0usize; ids.len()];

    for _ in 0..iters.max(1) {
        // Assign.
        for (pos, &id) in ids.iter().enumerate() {
            let v = store.get(id);
            let mut best = 0usize;
            let mut best_d = f32::INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                counter.bump();
                let d = l2_sq(v, cent);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            assignment[pos] = best;
        }
        // Update.
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (pos, &id) in ids.iter().enumerate() {
            let c = assignment[pos];
            counts[c] += 1;
            for (s, x) in sums[c].iter_mut().zip(store.get(id)) {
                *s += *x as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed empty cluster at a random point.
                let id = ids[rng.random_range(0..ids.len())];
                centroids[c] = store.get(id).to_vec();
            } else {
                for (dst, s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *dst = (*s / counts[c] as f64) as f32;
                }
            }
        }
    }

    // Final assignment against the last centroid update.
    for (pos, &id) in ids.iter().enumerate() {
        let v = store.get(id);
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for (c, cent) in centroids.iter().enumerate() {
            counter.bump();
            let d = l2_sq(v, cent);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        assignment[pos] = best;
    }

    Clustering { centroids, assignment }
}

/// Balanced k-means (Malinen & Fränti style, greedy approximation): like
/// Lloyd's, but each cluster accepts at most `ceil(n/k)` points per round.
/// Points are processed in order of assignment confidence (gap between
/// best and second-best centroid), so strongly attached points claim their
/// cluster first.
pub fn balanced_kmeans(
    store: &VectorStore,
    ids: &[u32],
    k: usize,
    iters: usize,
    seed: u64,
    counter: &DistCounter,
) -> Clustering {
    assert!(!ids.is_empty(), "balanced k-means over empty id set");
    assert!(k > 0, "k must be positive");
    let dim = store.dim();
    let k = k.min(ids.len());
    let cap = ids.len().div_ceil(k);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut centroids = init_centroids(store, ids, k, &mut rng);
    let mut assignment = vec![0usize; ids.len()];

    for _ in 0..iters.max(1) {
        balanced_assign_round(store, ids, &centroids, cap, counter, &mut assignment);
        // Update centroids.
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (pos, &id) in ids.iter().enumerate() {
            let c = assignment[pos];
            counts[c] += 1;
            for (s, x) in sums[c].iter_mut().zip(store.get(id)) {
                *s += *x as f64;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for (dst, s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *dst = (*s / counts[c] as f64) as f32;
                }
            }
        }
    }

    Clustering { centroids, assignment }
}

/// One capacity-capped assignment round: every point ranks all centroids,
/// then points claim slots in descending confidence (gap between best and
/// second-best centroid), falling through to their next preference when a
/// cluster is full. Exposed so [`crate::sharded`] can run a final balanced
/// assignment over the full dataset against sample-trained centroids.
pub fn balanced_assign_round(
    store: &VectorStore,
    ids: &[u32],
    centroids: &[Vec<f32>],
    cap: usize,
    counter: &DistCounter,
    assignment: &mut [usize],
) {
    let k = centroids.len();
    // Compute all point->centroid distances and a confidence score:
    // (confidence, position, sorted (distance, centroid) preferences).
    type Pref = (f32, usize, Vec<(f32, usize)>);
    let mut prefs: Vec<Pref> = Vec::with_capacity(ids.len());
    for (pos, &id) in ids.iter().enumerate() {
        let v = store.get(id);
        let mut ds: Vec<(f32, usize)> = centroids
            .iter()
            .enumerate()
            .map(|(c, cent)| {
                counter.bump();
                (l2_sq(v, cent), c)
            })
            .collect();
        ds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let confidence = if ds.len() > 1 { ds[1].0 - ds[0].0 } else { f32::INFINITY };
        prefs.push((confidence, pos, ds));
    }
    // Most-confident points assign first.
    prefs.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut loads = vec![0usize; k];
    for (_, pos, ds) in &prefs {
        let mut placed = false;
        for &(_, c) in ds {
            if loads[c] < cap {
                assignment[*pos] = c;
                loads[c] += 1;
                placed = true;
                break;
            }
        }
        debug_assert!(placed, "capacity sums to >= n, a slot must exist");
    }
}

/// Deterministic maximin-seeded Lloyd's over `train.len() / dsub` flat
/// row-major points of dimension `dsub` — the PQ codebook trainer's core.
///
/// Seeding starts from the point nearest the data mean (index tie-break),
/// then greedily adds the point farthest from every chosen centroid.
/// Assignment uses strict `<` (ties to the lowest centroid index), updates
/// use f64 sums in fixed row order, and empty clusters are reseeded at the
/// farthest assigned point not yet consumed. No RNG anywhere: the same
/// inputs always produce the same centroids.
///
/// Returns `ncent` centroids flattened (`ncent * dsub` floats).
///
/// # Panics
/// Panics if `train` is empty, `dsub == 0`, or `train.len()` is not a
/// multiple of `dsub`.
pub fn maximin_lloyd(train: &[f32], dsub: usize, ncent: usize, iters: usize) -> Vec<f32> {
    assert!(dsub > 0, "point dimension must be positive");
    assert!(!train.is_empty(), "maximin k-means over empty training set");
    assert!(train.len().is_multiple_of(dsub), "training data must be whole rows");
    let n = train.len() / dsub;
    let blocks = to_blocks8(n, dsub, |pos| train[pos * dsub..(pos + 1) * dsub].iter().copied());
    maximin_lloyd_blocks(&blocks, n, dsub, ncent, iters)
}

/// [`maximin_lloyd`] over `n` points already laid out in 8-point blocks
/// ([`to_blocks8`]) — the form PQ gathers its training subvectors into
/// directly. Every point ↔ centroid distance (mean-nearest seed, each
/// farthest-point pass, each assignment) goes through [`nearest8`], eight
/// points per call.
pub(crate) fn maximin_lloyd_blocks(
    blocks: &[f32],
    n: usize,
    dsub: usize,
    ncent: usize,
    iters: usize,
) -> Vec<f32> {
    assert!(
        n > 0 && blocks.len() == n.div_ceil(POINTS8) * POINTS8 * dsub,
        "{n} points of dimension {dsub} in 8-point blocks expected"
    );
    // Point `pos`'s coordinates: a stride-8 column of its block.
    let sub = |pos: usize| {
        let start = pos / POINTS8 * POINTS8 * dsub + pos % POINTS8;
        blocks[start..].iter().step_by(POINTS8).take(dsub).copied()
    };
    // Maximin (farthest-point) seeding: start from the subvector mean's
    // nearest training point, then greedily add the point farthest from
    // every chosen centroid. Deterministic, and far better than uniform
    // index sampling on clustered data.
    let mut centroids: Vec<f32> = Vec::with_capacity(ncent * dsub);
    let mut mean = vec![0.0f64; dsub];
    for pos in 0..n {
        for (m, x) in mean.iter_mut().zip(sub(pos)) {
            *m += x as f64;
        }
    }
    let mean: Vec<f32> = mean.iter().map(|m| (*m / n as f64) as f32).collect();
    let mut seed_d = vec![0.0f32; n];
    each_nearest(blocks, n, &mean, |pos, _, d| seed_d[pos] = d);
    let first =
        (0..n).min_by(|&a, &b| seed_d[a].total_cmp(&seed_d[b]).then(a.cmp(&b))).unwrap_or(0);
    centroids.extend(sub(first));
    each_nearest(blocks, n, &centroids, |pos, _, d| seed_d[pos] = d);
    for _ in 1..ncent {
        let far = seed_d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(pos, _)| pos)
            .unwrap_or(0);
        let chosen: Vec<f32> = sub(far).collect();
        each_nearest(blocks, n, &chosen, |pos, _, d| seed_d[pos] = seed_d[pos].min(d));
        centroids.extend_from_slice(&chosen);
    }
    let mut assigned_d = vec![0.0f32; n];
    for _ in 0..iters {
        // Assign (strict `<`, so ties go to the lowest centroid index) and
        // add each point to its centroid's f64 sum as it is assigned —
        // points arrive in row order, so every sum keeps it.
        let mut sums = vec![0.0f64; ncent * dsub];
        let mut counts = vec![0usize; ncent];
        each_nearest(blocks, n, &centroids, |pos, c, d| {
            let c = c as usize;
            assigned_d[pos] = d;
            counts[c] += 1;
            for (s, x) in sums[c * dsub..(c + 1) * dsub].iter_mut().zip(sub(pos)) {
                *s += x as f64;
            }
        });
        for c in 0..ncent {
            if counts[c] == 0 {
                // Reseed at the farthest assigned point not yet consumed.
                let far = assigned_d
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(pos, _)| pos)
                    .unwrap_or(0);
                assigned_d[far] = -1.0;
                for (dst, x) in centroids[c * dsub..(c + 1) * dsub].iter_mut().zip(sub(far)) {
                    *dst = x;
                }
            } else {
                for (dst, s) in centroids[c * dsub..(c + 1) * dsub]
                    .iter_mut()
                    .zip(&sums[c * dsub..(c + 1) * dsub])
                {
                    *dst = (*s / counts[c] as f64) as f32;
                }
            }
        }
    }
    centroids
}

/// Hands `each` every live point's position, nearest centroid of `cents`
/// and squared distance to it, in point order, eight points per
/// [`nearest8`] call; the repeated tail lanes of the last block are
/// dropped.
fn each_nearest(
    blocks: &[f32],
    n: usize,
    cents: &[f32],
    mut each: impl FnMut(usize, u32, f32),
) {
    let block_len = blocks.len() / n.div_ceil(POINTS8);
    for (b, block) in blocks.chunks_exact(block_len).enumerate() {
        let (idx, d) = nearest8(block, cents);
        for lane in 0..POINTS8.min(n - b * POINTS8) {
            each(b * POINTS8 + lane, idx[lane], d[lane]);
        }
    }
}

/// [`maximin_lloyd`] as it stood before the 16-centroid kernel (one
/// dispatched `l2_sq` per point–centroid pair, a serial strict-`<` scan),
/// kept verbatim as the oracle the kernel-based trainer must reproduce bit
/// for bit.
#[cfg(test)]
pub(crate) fn maximin_lloyd_reference(
    train: &[f32],
    dsub: usize,
    ncent: usize,
    iters: usize,
) -> Vec<f32> {
    assert!(dsub > 0, "point dimension must be positive");
    assert!(!train.is_empty(), "maximin k-means over empty training set");
    assert!(train.len().is_multiple_of(dsub), "training data must be whole rows");
    let n = train.len() / dsub;
    let sub = |pos: usize| -> &[f32] { &train[pos * dsub..(pos + 1) * dsub] };
    // Maximin (farthest-point) seeding: start from the subvector mean's
    // nearest training point, then greedily add the point farthest from
    // every chosen centroid. Deterministic, and far better than uniform
    // index sampling on clustered data.
    let mut centroids: Vec<f32> = Vec::with_capacity(ncent * dsub);
    let mut mean = vec![0.0f64; dsub];
    for pos in 0..n {
        for (m, x) in mean.iter_mut().zip(sub(pos)) {
            *m += *x as f64;
        }
    }
    let mean: Vec<f32> = mean.iter().map(|m| (*m / n as f64) as f32).collect();
    let first = (0..n)
        .min_by(|&a, &b| l2_sq(sub(a), &mean).total_cmp(&l2_sq(sub(b), &mean)).then(a.cmp(&b)))
        .unwrap_or(0);
    centroids.extend_from_slice(sub(first));
    let mut seed_d: Vec<f32> = (0..n).map(|pos| l2_sq(sub(pos), &centroids[..dsub])).collect();
    for _ in 1..ncent {
        let far = seed_d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(pos, _)| pos)
            .unwrap_or(0);
        let chosen: Vec<f32> = sub(far).to_vec();
        for (pos, d) in seed_d.iter_mut().enumerate() {
            *d = d.min(l2_sq(sub(pos), &chosen));
        }
        centroids.extend_from_slice(&chosen);
    }
    let mut assignment = vec![0usize; n];
    let mut assigned_d = vec![0.0f32; n];
    for _ in 0..iters {
        // Assign (strict `<`, so ties go to the lowest centroid index).
        for (pos, slot) in assignment.iter_mut().enumerate() {
            let v = sub(pos);
            let (mut best, mut best_d) = (0usize, f32::INFINITY);
            for c in 0..ncent {
                let d = l2_sq(v, &centroids[c * dsub..(c + 1) * dsub]);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            *slot = best;
            assigned_d[pos] = best_d;
        }
        // Update: f64 sums in fixed row order.
        let mut sums = vec![0.0f64; ncent * dsub];
        let mut counts = vec![0usize; ncent];
        for (pos, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            for (s, x) in sums[c * dsub..(c + 1) * dsub].iter_mut().zip(sub(pos)) {
                *s += *x as f64;
            }
        }
        for c in 0..ncent {
            if counts[c] == 0 {
                // Reseed at the farthest assigned point not yet consumed.
                let far = assigned_d
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                    .map(|(pos, _)| pos)
                    .unwrap_or(0);
                assigned_d[far] = -1.0;
                centroids[c * dsub..(c + 1) * dsub].copy_from_slice(sub(far));
            } else {
                for (dst, s) in centroids[c * dsub..(c + 1) * dsub]
                    .iter_mut()
                    .zip(&sums[c * dsub..(c + 1) * dsub])
                {
                    *dst = (*s / counts[c] as f64) as f32;
                }
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> VectorStore {
        let mut s = VectorStore::new(2);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            s.push(&[rng.random_range(-0.1..0.1f32), rng.random_range(-0.1..0.1f32)]);
        }
        for _ in 0..20 {
            s.push(&[10.0 + rng.random_range(-0.1..0.1f32), rng.random_range(-0.1..0.1f32)]);
        }
        s
    }

    #[test]
    fn maximin_lloyd_is_deterministic() {
        let store = blobs();
        let flat = store.to_flat_vec();
        let a = maximin_lloyd(&flat, 2, 4, 10);
        let b = maximin_lloyd(&flat, 2, 4, 10);
        assert_eq!(a, b, "seed-free trainer must be bit-stable");
        assert_eq!(a.len(), 4 * 2);
    }

    #[test]
    fn maximin_lloyd_matches_the_per_centroid_reference() {
        // Point sets with exact duplicates (ties, empty clusters to reseed)
        // and without; centroid counts below, at and beyond one 16-lane
        // block; point dimensions around the 8-lane chunk boundary.
        let mut state = 7u32;
        let mut next = |levels: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) % levels) as f32 * 0.37 - 3.0
        };
        for (n, dsub, ncent, levels) in [
            (1, 3, 1, 50),
            (5, 6, 5, 50),
            (16, 6, 16, 50),
            (300, 6, 16, 1000),
            (300, 1, 16, 5),
            (200, 2, 16, 3),
            (120, 9, 16, 1000),
            (150, 16, 7, 1000),
            (400, 4, 17, 1000),
            (400, 5, 40, 4),
        ] {
            let train: Vec<f32> = (0..n * dsub).map(|_| next(levels)).collect();
            let got = maximin_lloyd(&train, dsub, ncent, 25);
            let want = maximin_lloyd_reference(&train, dsub, ncent, 25);
            assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "n={n} dsub={dsub} ncent={ncent} levels={levels}"
            );
        }
    }

    #[test]
    fn maximin_lloyd_separates_blobs() {
        let store = blobs();
        let flat = store.to_flat_vec();
        let cents = maximin_lloyd(&flat, 2, 2, 10);
        // One centroid near each blob.
        let near_zero = cents.chunks(2).filter(|c| c[0].abs() < 1.0).count();
        let near_ten = cents.chunks(2).filter(|c| (c[0] - 10.0).abs() < 1.0).count();
        assert_eq!((near_zero, near_ten), (1, 1), "centroids: {cents:?}");
    }

    #[test]
    fn balanced_assign_round_respects_cap() {
        let store = blobs();
        let ids: Vec<u32> = (0..40).collect();
        let counter = DistCounter::new();
        // Both centroids inside the first blob: without the cap every
        // point would pile onto them 40/0; the cap forces a 20/20 split.
        let centroids = vec![vec![0.0, 0.0], vec![0.1, 0.0]];
        let mut assignment = vec![0usize; ids.len()];
        balanced_assign_round(&store, &ids, &centroids, 20, &counter, &mut assignment);
        let ones = assignment.iter().filter(|&&c| c == 1).count();
        assert_eq!(ones, 20);
        assert!(counter.get() >= 80, "routing distances must be counted");
    }
}
