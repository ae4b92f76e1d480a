//! Randomized (truncated) K-D trees — the **KD** seed-selection structure
//! of EFANNA, SPTAG-KDT and HCNNG, and EFANNA's source of initial graph
//! neighbors.
//!
//! Following EFANNA, each tree picks its split dimension at random among
//! the highest-variance dimensions of the node's point set and splits at
//! the median, recursing until leaves hold at most `leaf_size` points. A
//! *forest* of such trees (each with a different random seed) provides
//! diversified candidates.
//!
//! Tree descent compares single coordinates, not full vectors, so it
//! performs no (counted) distance computations; the paper's
//! distance-calculation metric charges only the beam search that consumes
//! the seeds.

use gass_core::distance::Space;
use gass_core::reorder::IdRemap;
use gass_core::seed::{OriginalIds, SeedProvider};
use gass_core::store::VectorStore;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// How many of the top-variance dimensions the split dimension is drawn
/// from (EFANNA's default randomization).
const TOP_VARIANCE_POOL: usize = 5;

#[derive(Clone, Debug)]
enum Node {
    Split { dim: u32, value: f32, left: u32, right: u32 },
    Leaf { ids: Vec<u32> },
}

/// A single randomized K-D tree over a subset of stored vectors.
#[derive(Clone, Debug)]
pub struct KdTree {
    nodes: Vec<Node>,
    root: u32,
    leaf_size: usize,
}

impl KdTree {
    /// Builds a tree over `ids` with leaves of at most `leaf_size` points.
    ///
    /// # Panics
    /// Panics if `ids` is empty or `leaf_size == 0`.
    pub fn build(store: &VectorStore, ids: &[u32], leaf_size: usize, seed: u64) -> Self {
        assert!(!ids.is_empty(), "K-D tree over empty id set");
        assert!(leaf_size > 0, "leaf size must be positive");
        let mut tree = Self { nodes: Vec::new(), root: 0, leaf_size };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut work = ids.to_vec();
        tree.root = tree.build_rec(store, &mut work, &mut rng);
        tree
    }

    fn build_rec(&mut self, store: &VectorStore, ids: &mut [u32], rng: &mut SmallRng) -> u32 {
        if ids.len() <= self.leaf_size {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { ids: ids.to_vec() });
            return idx;
        }
        let dim = pick_split_dim(store, ids, rng);
        // Median split via partial sort on the chosen coordinate.
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            store.get(a)[dim].total_cmp(&store.get(b)[dim])
        });
        let value = store.get(ids[mid])[dim];
        // Guard against degenerate splits (all-equal coordinate): fall back
        // to an arbitrary halving, which keeps the tree balanced.
        let (lo, hi) = ids.split_at_mut(mid);
        if lo.is_empty() || hi.is_empty() {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { ids: ids.to_vec() });
            return idx;
        }
        let left = self.build_rec(store, lo, rng);
        let right = self.build_rec(store, hi, rng);
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::Split { dim: dim as u32, value, left, right });
        idx
    }

    /// Collects approximately `budget` candidate ids near `query` by
    /// best-first descent with backtracking ordered by split-plane margin.
    pub fn candidates(&self, query: &[f32], budget: usize, out: &mut Vec<u32>) {
        // (margin, node): explore smallest margin first; the path to the
        // query's own leaf has margin 0.
        let mut frontier: Vec<(f32, u32)> = vec![(0.0, self.root)];
        while let Some((_, node)) = pop_min(&mut frontier) {
            match &self.nodes[node as usize] {
                Node::Leaf { ids } => {
                    out.extend_from_slice(ids);
                    if out.len() >= budget {
                        return;
                    }
                }
                Node::Split { dim, value, left, right } => {
                    let diff = query[*dim as usize] - *value;
                    let (near, far) =
                        if diff < 0.0 { (*left, *right) } else { (*right, *left) };
                    frontier.push((0.0, near));
                    frontier.push((diff.abs(), far));
                }
            }
        }
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count()
    }

    /// All leaves as id lists (used by SPTAG-style partitioning on TP
    /// trees; exposed here for tests and composition).
    pub fn leaves(&self) -> Vec<&[u32]> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf { ids } => Some(ids.as_slice()),
                _ => None,
            })
            .collect()
    }

    /// Approximate heap bytes.
    pub fn heap_bytes(&self) -> usize {
        let leaf_ids: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::Leaf { ids } => ids.capacity() * std::mem::size_of::<u32>(),
                _ => 0,
            })
            .sum();
        self.nodes.capacity() * std::mem::size_of::<Node>() + leaf_ids
    }

    /// Relabels the stored leaf ids through `map` after the vector store
    /// was permuted. Split planes compare query coordinates only, so the
    /// descent (and hence the set of vectors each leaf denotes) is
    /// unchanged.
    pub fn reorder(&mut self, map: &IdRemap) {
        for node in &mut self.nodes {
            if let Node::Leaf { ids } = node {
                for id in ids.iter_mut() {
                    *id = map.to_new(*id);
                }
            }
        }
    }
}

fn pick_split_dim(store: &VectorStore, ids: &[u32], rng: &mut SmallRng) -> usize {
    let dim = store.dim();
    // Estimate per-dimension variance on a bounded sample.
    let sample: Vec<u32> = if ids.len() > 64 {
        (0..64).map(|_| ids[rng.random_range(0..ids.len())]).collect()
    } else {
        ids.to_vec()
    };
    let mut mean = vec![0.0f64; dim];
    for &id in &sample {
        for (m, x) in mean.iter_mut().zip(store.get(id)) {
            *m += *x as f64;
        }
    }
    for m in &mut mean {
        *m /= sample.len() as f64;
    }
    let mut var: Vec<(f64, usize)> = vec![(0.0, 0); dim];
    for (d, v) in var.iter_mut().enumerate() {
        *v = (0.0, d);
    }
    for &id in &sample {
        for (d, x) in store.get(id).iter().enumerate() {
            let diff = *x as f64 - mean[d];
            var[d].0 += diff * diff;
        }
    }
    var.sort_by(|a, b| b.0.total_cmp(&a.0));
    let pool = TOP_VARIANCE_POOL.min(dim);
    var[rng.random_range(0..pool)].1
}

fn pop_min(frontier: &mut Vec<(f32, u32)>) -> Option<(f32, u32)> {
    if frontier.is_empty() {
        return None;
    }
    let mut best = 0;
    for i in 1..frontier.len() {
        if frontier[i].0 < frontier[best].0 {
            best = i;
        }
    }
    Some(frontier.swap_remove(best))
}

/// A forest of randomized K-D trees acting as the **KD** seed-selection
/// strategy.
#[derive(Clone, Debug)]
pub struct KdForest {
    trees: Vec<KdTree>,
    /// The cross-tree merge sorts by *original* id, so the truncated
    /// candidate set (and its order) is identical before and after any
    /// relabeling.
    orig: OriginalIds,
}

impl KdForest {
    /// Builds `num_trees` randomized trees over all vectors in `store`.
    pub fn build(store: &VectorStore, num_trees: usize, leaf_size: usize, seed: u64) -> Self {
        assert!(num_trees > 0, "forest needs at least one tree");
        let ids: Vec<u32> = (0..store.len() as u32).collect();
        let trees = (0..num_trees)
            .map(|t| KdTree::build(store, &ids, leaf_size, seed.wrapping_add(t as u64)))
            .collect();
        Self { trees, orig: OriginalIds::default() }
    }

    /// Collects up to `budget` deduplicated candidates across all trees.
    pub fn candidates(&self, query: &[f32], budget: usize) -> Vec<u32> {
        let per_tree = budget.div_ceil(self.trees.len());
        let mut out = Vec::with_capacity(budget + per_tree);
        for t in &self.trees {
            t.candidates(query, per_tree, &mut out);
        }
        self.orig.select(&mut out, budget.max(1));
        out
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }
}

impl SeedProvider for KdForest {
    /// Coordinate comparisons only: spends no distance evaluation.
    fn select(
        &self,
        _space: Space<'_>,
        query: &[f32],
        count: usize,
        _max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        out.extend(self.candidates(query, count.max(1)));
        0
    }

    fn label(&self) -> &'static str {
        "KD"
    }

    fn reorder(&mut self, map: &IdRemap) {
        for t in &mut self.trees {
            t.reorder(map);
        }
        self.orig.reorder(map);
    }

    fn heap_bytes(&self) -> usize {
        self.trees.iter().map(KdTree::heap_bytes).sum::<usize>() + self.orig.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::distance::{l2_sq, DistCounter};

    fn grid_store() -> VectorStore {
        // 10x10 grid in 2-d.
        let mut s = VectorStore::new(2);
        for x in 0..10 {
            for y in 0..10 {
                s.push(&[x as f32, y as f32]);
            }
        }
        s
    }

    #[test]
    fn tree_partitions_all_points() {
        let store = grid_store();
        let ids: Vec<u32> = (0..100).collect();
        let tree = KdTree::build(&store, &ids, 8, 1);
        let mut all: Vec<u32> = tree.leaves().into_iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, ids, "leaves must partition the input exactly");
        assert!(tree.num_leaves() >= 100 / 8);
    }

    #[test]
    fn leaf_size_respected() {
        let store = grid_store();
        let ids: Vec<u32> = (0..100).collect();
        let tree = KdTree::build(&store, &ids, 5, 2);
        for leaf in tree.leaves() {
            assert!(leaf.len() <= 5);
        }
    }

    #[test]
    fn candidates_contain_true_nn_region() {
        let store = grid_store();
        let ids: Vec<u32> = (0..100).collect();
        let tree = KdTree::build(&store, &ids, 4, 3);
        let query = [3.1f32, 7.2];
        let mut cands = Vec::new();
        tree.candidates(&query, 20, &mut cands);
        assert!(cands.len() >= 4);
        // Best candidate among the returned ones must be close to the true
        // NN (grid point (3,7), distance^2 = 0.01+0.04).
        let best =
            cands.iter().map(|&id| l2_sq(&query, store.get(id))).fold(f32::INFINITY, f32::min);
        assert!(best <= 0.5, "best returned candidate too far: {best}");
    }

    #[test]
    fn forest_candidates_deduplicated() {
        let store = grid_store();
        let forest = KdForest::build(&store, 4, 8, 7);
        let cands = forest.candidates(&[5.0, 5.0], 30);
        let mut sorted = cands.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cands.len(), "duplicates leaked");
        assert!(!cands.is_empty());
    }

    #[test]
    fn forest_is_a_seed_provider() {
        let store = grid_store();
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let forest = KdForest::build(&store, 2, 8, 11);
        let mut out = Vec::new();
        forest.select(space, &[0.0, 0.0], 10, 0, &mut out);
        assert!(!out.is_empty());
        assert_eq!(forest.label(), "KD");
        // Descent itself computes no full distances.
        assert_eq!(counter.get(), 0);
    }

    #[test]
    fn forest_counts_the_table_a_reorder_installs() {
        let store = grid_store();
        let mut forest = KdForest::build(&store, 2, 8, 11);
        let trees = forest.heap_bytes();
        let map = IdRemap::from_new_to_old((0..100u32).rev().collect()).unwrap();
        for _ in 0..2 {
            forest.reorder(&map);
            assert_eq!(forest.heap_bytes(), trees + 100 * std::mem::size_of::<u32>());
        }
    }

    #[test]
    fn single_point_tree() {
        let mut s = VectorStore::new(2);
        s.push(&[1.0, 2.0]);
        let tree = KdTree::build(&s, &[0], 4, 0);
        let mut out = Vec::new();
        tree.candidates(&[0.0, 0.0], 5, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn constant_coordinate_does_not_loop() {
        // All points identical: splits degenerate, must terminate as leaf.
        let mut s = VectorStore::new(3);
        for _ in 0..50 {
            s.push(&[1.0, 1.0, 1.0]);
        }
        let ids: Vec<u32> = (0..50).collect();
        let tree = KdTree::build(&s, &ids, 4, 5);
        let total: usize = tree.leaves().iter().map(|l| l.len()).sum();
        assert_eq!(total, 50);
    }
}
