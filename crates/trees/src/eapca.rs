//! EAPCA summarization and the Hercules tree — ELPIS's
//! divide-and-conquer substrate.
//!
//! **EAPCA** (Extended Adaptive Piecewise Constant Approximation) splits a
//! vector into segments and keeps each segment's *mean and standard
//! deviation*. For two vectors summarized over the same segmentation, the
//! squared Euclidean distance is lower-bounded by
//! `Σ_seg len·((Δmean)² + (Δstd)²)` — per segment, the mean term follows
//! from Cauchy–Schwarz and the std term from the reverse triangle
//! inequality on the centered residuals.
//!
//! The **Hercules tree** recursively splits the dataset on the EAPCA
//! feature (a segment's mean or std) with the widest spread, storing per
//! node the min/max envelope of every EAPCA feature. The envelope yields a
//! query-to-subtree lower bound: ELPIS uses the leaves as graph partitions
//! and the bounds to decide which leaf graphs a query must visit.
//!
//! We use equal-length segments (the adaptive segmentation of the original
//! Hercules index is an orthogonal refinement; equal segments preserve the
//! bound and the pruning behaviour — documented in DESIGN.md).

use gass_core::store::VectorStore;

/// Per-vector EAPCA summary: interleaved `(mean, std)` per segment.
#[derive(Clone, Debug, PartialEq)]
pub struct EapcaSummary {
    /// `2 * segments` floats: `[mean_0, std_0, mean_1, std_1, ...]`.
    pub features: Vec<f32>,
}

/// Computes the EAPCA summary of `v` over `segments` equal segments (the
/// last segment absorbs the remainder).
///
/// # Panics
/// Panics if `segments == 0` or `segments > v.len()`.
pub fn summarize(v: &[f32], segments: usize) -> EapcaSummary {
    assert!(segments > 0, "segment count must be positive");
    assert!(segments <= v.len(), "more segments than dimensions");
    let base = v.len() / segments;
    let mut features = Vec::with_capacity(2 * segments);
    for s in 0..segments {
        let start = s * base;
        let end = if s + 1 == segments { v.len() } else { start + base };
        let seg = &v[start..end];
        let mean = seg.iter().sum::<f32>() / seg.len() as f32;
        let var = seg.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / seg.len() as f32;
        features.push(mean);
        features.push(var.sqrt());
    }
    EapcaSummary { features }
}

/// Segment lengths for dimension `dim` split into `segments` parts.
fn segment_lengths(dim: usize, segments: usize) -> Vec<usize> {
    let base = dim / segments;
    let mut lens = vec![base; segments];
    *lens.last_mut().expect("segments > 0") += dim - base * segments;
    lens
}

/// Squared lower bound between two EAPCA summaries over the same
/// segmentation.
pub fn lower_bound_pair(a: &EapcaSummary, b: &EapcaSummary, seg_lens: &[usize]) -> f32 {
    debug_assert_eq!(a.features.len(), b.features.len());
    debug_assert_eq!(a.features.len(), 2 * seg_lens.len());
    let mut lb = 0.0f32;
    for (s, &len) in seg_lens.iter().enumerate() {
        let dm = a.features[2 * s] - b.features[2 * s];
        let ds = a.features[2 * s + 1] - b.features[2 * s + 1];
        lb += len as f32 * (dm * dm + ds * ds);
    }
    lb
}

/// One Hercules leaf: an id subset plus the min/max envelope of its EAPCA
/// features.
#[derive(Clone, Debug)]
pub struct HerculesLeaf {
    /// Dataset ids contained in this leaf.
    pub ids: Vec<u32>,
    min: Vec<f32>,
    max: Vec<f32>,
}

impl HerculesLeaf {
    /// Squared lower bound from a query summary to *any* vector whose
    /// summary lies inside this leaf's envelope.
    pub fn lower_bound(&self, query: &EapcaSummary, seg_lens: &[usize]) -> f32 {
        let mut lb = 0.0f32;
        for (s, &len) in seg_lens.iter().enumerate() {
            for off in 0..2 {
                let f = 2 * s + off;
                let q = query.features[f];
                let gap = if q < self.min[f] {
                    self.min[f] - q
                } else if q > self.max[f] {
                    q - self.max[f]
                } else {
                    0.0
                };
                lb += len as f32 * gap * gap;
            }
        }
        lb
    }
}

/// A flattened Hercules tree: the leaf partition plus everything needed
/// for query-time leaf pruning.
#[derive(Clone, Debug)]
pub struct HerculesTree {
    leaves: Vec<HerculesLeaf>,
    seg_lens: Vec<usize>,
    segments: usize,
    summary_bytes: usize,
}

impl HerculesTree {
    /// Builds the tree over all vectors of `store`, splitting on the widest
    /// EAPCA feature at the median until leaves hold at most `leaf_size`
    /// ids.
    ///
    /// # Panics
    /// Panics if the store is empty, `segments == 0`, `segments > dim`, or
    /// `leaf_size == 0`.
    pub fn build(store: &VectorStore, segments: usize, leaf_size: usize) -> Self {
        assert!(!store.is_empty(), "Hercules tree over empty store");
        assert!(leaf_size > 0, "leaf size must be positive");
        let seg_lens = segment_lengths(store.dim(), segments);
        let summaries: Vec<EapcaSummary> =
            store.iter().map(|(_, v)| summarize(v, segments)).collect();
        let summary_bytes = summaries.len() * 2 * segments * std::mem::size_of::<f32>();
        let ids: Vec<u32> = (0..store.len() as u32).collect();
        let mut leaves = Vec::new();
        split_rec(&summaries, ids, leaf_size, segments, &mut leaves);
        Self { leaves, seg_lens, segments, summary_bytes }
    }

    /// The leaf partition.
    pub fn leaves(&self) -> &[HerculesLeaf] {
        &self.leaves
    }

    /// Moves every leaf's id list out, in leaf order, and leaves the
    /// envelopes: ELPIS keeps the lists as its leaves' id tables, so the
    /// ids are held once.
    pub fn take_leaf_ids(&mut self) -> Vec<Vec<u32>> {
        self.leaves.iter_mut().map(|leaf| std::mem::take(&mut leaf.ids)).collect()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Segment count used by this tree.
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Summarizes a query for use with [`Self::leaf_order`].
    pub fn summarize_query(&self, query: &[f32]) -> EapcaSummary {
        summarize(query, self.segments)
    }

    /// Leaf indices sorted by ascending lower bound to `query`, paired with
    /// the (squared) bounds. The first entry is ELPIS's "initial leaf".
    pub fn leaf_order(&self, query: &EapcaSummary) -> Vec<(usize, f32)> {
        let mut order: Vec<(usize, f32)> = self
            .leaves
            .iter()
            .enumerate()
            .map(|(i, l)| (i, l.lower_bound(query, &self.seg_lens)))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        order
    }

    /// Approximate heap bytes (leaf envelopes + id lists + build-time
    /// summaries amortized out; we report the retained structures).
    pub fn heap_bytes(&self) -> usize {
        let per_leaf: usize = self
            .leaves
            .iter()
            .map(|l| {
                l.ids.capacity() * std::mem::size_of::<u32>()
                    + (l.min.capacity() + l.max.capacity()) * std::mem::size_of::<f32>()
            })
            .sum();
        per_leaf + self.summary_bytes
    }
}

fn envelope(summaries: &[EapcaSummary], ids: &[u32]) -> (Vec<f32>, Vec<f32>) {
    let f = summaries[ids[0] as usize].features.len();
    let mut min = vec![f32::INFINITY; f];
    let mut max = vec![f32::NEG_INFINITY; f];
    for &id in ids {
        for (i, &x) in summaries[id as usize].features.iter().enumerate() {
            min[i] = min[i].min(x);
            max[i] = max[i].max(x);
        }
    }
    (min, max)
}

fn split_rec(
    summaries: &[EapcaSummary],
    mut ids: Vec<u32>,
    leaf_size: usize,
    segments: usize,
    leaves: &mut Vec<HerculesLeaf>,
) {
    let (min, max) = envelope(summaries, &ids);
    if ids.len() <= leaf_size {
        leaves.push(HerculesLeaf { ids, min, max });
        return;
    }
    // Widest feature.
    let mut feat = 0usize;
    let mut spread = -1.0f32;
    for f in 0..2 * segments {
        let s = max[f] - min[f];
        if s > spread {
            spread = s;
            feat = f;
        }
    }
    if spread <= 0.0 {
        // All summaries identical: cannot split meaningfully.
        leaves.push(HerculesLeaf { ids, min, max });
        return;
    }
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        summaries[a as usize].features[feat].total_cmp(&summaries[b as usize].features[feat])
    });
    let hi = ids.split_off(mid);
    split_rec(summaries, ids, leaf_size, segments, leaves);
    split_rec(summaries, hi, leaf_size, segments, leaves);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::distance::l2_sq;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn summary_of_constant_vector() {
        let s = summarize(&[2.0; 8], 4);
        assert_eq!(s.features.len(), 8);
        for seg in 0..4 {
            assert!((s.features[2 * seg] - 2.0).abs() < 1e-6);
            assert!(s.features[2 * seg + 1].abs() < 1e-6);
        }
    }

    #[test]
    fn summary_handles_remainder_segment() {
        let v: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let s = summarize(&v, 3); // segments of 3,3,4
        assert_eq!(s.features.len(), 6);
        assert!((s.features[0] - 1.0).abs() < 1e-6); // mean of 0,1,2
        assert!((s.features[4] - 7.5).abs() < 1e-6); // mean of 6,7,8,9
    }

    #[test]
    fn pairwise_lower_bound_is_valid() {
        let mut rng = SmallRng::seed_from_u64(1);
        let lens = segment_lengths(16, 4);
        for _ in 0..200 {
            let a: Vec<f32> = (0..16).map(|_| rng.random_range(-1.0..1.0f32)).collect();
            let b: Vec<f32> = (0..16).map(|_| rng.random_range(-1.0..1.0f32)).collect();
            let lb = lower_bound_pair(&summarize(&a, 4), &summarize(&b, 4), &lens);
            let exact = l2_sq(&a, &b);
            assert!(lb <= exact + 1e-3, "lower bound {lb} exceeds true distance {exact}");
        }
    }

    fn random_store(n: usize, dim: usize, seed: u64) -> VectorStore {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut s = VectorStore::new(dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0..1.0f32)).collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn tree_partitions_dataset() {
        let store = random_store(300, 16, 2);
        let tree = HerculesTree::build(&store, 4, 32);
        let mut all: Vec<u32> =
            tree.leaves().iter().flat_map(|l| l.ids.iter().copied()).collect();
        all.sort_unstable();
        let expected: Vec<u32> = (0..300).collect();
        assert_eq!(all, expected);
        for leaf in tree.leaves() {
            assert!(leaf.ids.len() <= 32);
        }
    }

    #[test]
    fn leaf_lower_bound_is_valid_for_members() {
        let store = random_store(200, 16, 3);
        let tree = HerculesTree::build(&store, 4, 25);
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..20 {
            let q: Vec<f32> = (0..16).map(|_| rng.random_range(-1.0..1.0f32)).collect();
            let qs = tree.summarize_query(&q);
            for leaf in tree.leaves() {
                let lb = leaf.lower_bound(&qs, &segment_lengths(16, 4));
                for &id in &leaf.ids {
                    let exact = l2_sq(&q, store.get(id));
                    assert!(
                        lb <= exact + 1e-3,
                        "leaf bound {lb} exceeds member distance {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_order_puts_home_leaf_first() {
        let store = random_store(400, 16, 4);
        let tree = HerculesTree::build(&store, 4, 50);
        // Query = an exact dataset vector: its own leaf must have bound 0
        // and rank first (ties allowed).
        let q = store.get(123).to_vec();
        let qs = tree.summarize_query(&q);
        let order = tree.leaf_order(&qs);
        assert_eq!(order.len(), tree.num_leaves());
        assert_eq!(order[0].1, 0.0);
        let home =
            tree.leaves().iter().position(|l| l.ids.contains(&123)).expect("member leaf");
        let home_bound = tree.leaves()[home].lower_bound(&qs, &segment_lengths(16, 4));
        assert_eq!(home_bound, 0.0);
    }

    #[test]
    fn identical_vectors_build_single_leafish_tree() {
        let mut s = VectorStore::new(8);
        for _ in 0..100 {
            s.push(&[3.0; 8]);
        }
        let tree = HerculesTree::build(&s, 2, 10);
        let total: usize = tree.leaves().iter().map(|l| l.ids.len()).sum();
        assert_eq!(total, 100);
    }
}
