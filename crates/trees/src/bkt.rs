//! Balanced K-means Trees (BKT) — SPTAG-BKT's seed-selection structure
//! (**KM** in the paper's taxonomy).
//!
//! Each internal node clusters its point set with balanced k-means into
//! `branching` children (each holding a centroid); leaves keep the raw
//! ids. Seed retrieval descends best-first by query→centroid distance,
//! which *does* cost counted distance evaluations — part of why KM's
//! seed-selection overhead shows up in the paper's measurements.

use crate::kmeans::balanced_kmeans;
use gass_core::distance::{l2_sq, Space};
use gass_core::reorder::IdRemap;
use gass_core::seed::{OriginalIds, SeedProvider};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

#[derive(Clone, Debug)]
enum Node {
    Internal { children: Vec<(Vec<f32>, u32)> }, // (centroid, child index)
    Leaf { ids: Vec<u32> },
}

/// The position of the frontier entry with the smallest key (the first
/// of equals).
fn nearest(frontier: &[(f32, u32)]) -> usize {
    let mut best = 0;
    for i in 1..frontier.len() {
        if frontier[i].0 < frontier[best].0 {
            best = i;
        }
    }
    best
}

/// A balanced k-means tree over all vectors of a store.
#[derive(Clone, Debug)]
pub struct BkTree {
    nodes: Vec<Node>,
    root: u32,
}

impl BkTree {
    /// Builds the tree with the given branching factor and leaf size.
    /// Clustering distance evaluations are counted through `space`.
    ///
    /// # Panics
    /// Panics if the store is empty, `branching < 2`, or `leaf_size == 0`.
    pub fn build(space: Space<'_>, branching: usize, leaf_size: usize, seed: u64) -> Self {
        assert!(!space.is_empty(), "BKT over empty store");
        assert!(branching >= 2, "branching factor must be at least 2");
        assert!(leaf_size > 0, "leaf size must be positive");
        let ids: Vec<u32> = (0..space.len() as u32).collect();
        let mut tree = Self { nodes: Vec::new(), root: 0 };
        let mut rng = SmallRng::seed_from_u64(seed);
        tree.root = tree.build_rec(space, ids, branching, leaf_size, &mut rng);
        tree
    }

    fn build_rec(
        &mut self,
        space: Space<'_>,
        ids: Vec<u32>,
        branching: usize,
        leaf_size: usize,
        rng: &mut SmallRng,
    ) -> u32 {
        if ids.len() <= leaf_size {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { ids });
            return idx;
        }
        let clustering =
            balanced_kmeans(space, &ids, branching, 4, rng.random_range(0..u64::MAX));
        let groups = clustering.groups(&ids);
        let mut children = Vec::with_capacity(branching);
        for (c, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            // Degenerate clustering (all points in one group) would recurse
            // forever; fall back to a leaf.
            if group.len() == ids.len() {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Node::Leaf { ids: group });
                return idx;
            }
            let child = self.build_rec(space, group, branching, leaf_size, rng);
            children.push((clustering.centroids[c].clone(), child));
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::Internal { children });
        idx
    }

    /// Collects up to `count` candidate ids by best-first centroid
    /// descent; centroid distances are counted through `space`, and the
    /// number spent is returned. Under a `max_dists` budget (`0` =
    /// unlimited) the descent scores no centroid past the budget; if it
    /// stopped before reaching a leaf, the best-ranked subtree so far is
    /// walked down its first children, unscored, to the leaf it returns.
    pub fn candidates(
        &self,
        space: Space<'_>,
        query: &[f32],
        count: usize,
        max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        let start = out.len();
        let mut frontier: Vec<(f32, u32)> = vec![(0.0, self.root)];
        let mut spent = 0;
        'descent: while !frontier.is_empty() {
            let (_, node) = frontier.swap_remove(nearest(&frontier));
            match &self.nodes[node as usize] {
                Node::Leaf { ids } => {
                    out.extend_from_slice(ids);
                    if out.len() - start >= count {
                        return spent;
                    }
                }
                Node::Internal { children } => {
                    for (centroid, child) in children {
                        if max_dists > 0 && spent >= max_dists {
                            break 'descent;
                        }
                        space.counter().bump();
                        spent += 1;
                        let d = l2_sq(query, centroid);
                        frontier.push((d, *child));
                    }
                }
            }
        }
        if out.len() == start && !frontier.is_empty() {
            let mut node = frontier[nearest(&frontier)].1;
            loop {
                match &self.nodes[node as usize] {
                    Node::Leaf { ids } => break out.extend_from_slice(ids),
                    Node::Internal { children } => node = children[0].1,
                }
            }
        }
        spent
    }

    /// Relabels the leaf ids through `map` after the vector store was
    /// permuted. Centroids are raw vectors (no ids), so the counted
    /// descent is unchanged.
    pub fn reorder(&mut self, map: &IdRemap) {
        for node in &mut self.nodes {
            if let Node::Leaf { ids } = node {
                for id in ids.iter_mut() {
                    *id = map.to_new(*id);
                }
            }
        }
    }

    /// Approximate heap bytes (centroids + leaf id lists + node vector).
    pub fn heap_bytes(&self) -> usize {
        let inner: usize = self
            .nodes
            .iter()
            .map(|n| match n {
                Node::Internal { children } => children
                    .iter()
                    .map(|(c, _)| c.capacity() * std::mem::size_of::<f32>() + 4)
                    .sum(),
                Node::Leaf { ids } => ids.capacity() * std::mem::size_of::<u32>(),
            })
            .sum();
        inner + self.nodes.capacity() * std::mem::size_of::<Node>()
    }
}

/// BKT seed provider (**KM** strategy, SPTAG-BKT).
#[derive(Clone, Debug)]
pub struct BktSeeds {
    tree: BkTree,
    /// Sort key that keeps the truncated seed set identical before and
    /// after relabeling.
    orig: OriginalIds,
}

impl BktSeeds {
    /// Builds the BKT seed structure over `space`'s store.
    pub fn build(space: Space<'_>, branching: usize, leaf_size: usize, seed: u64) -> Self {
        Self {
            tree: BkTree::build(space, branching, leaf_size, seed),
            orig: OriginalIds::default(),
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &BkTree {
        &self.tree
    }
}

impl SeedProvider for BktSeeds {
    fn select(
        &self,
        space: Space<'_>,
        query: &[f32],
        count: usize,
        max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        let spent = self.tree.candidates(space, query, count.max(1), max_dists, out);
        self.orig.select(out, count.max(1));
        spent
    }

    fn label(&self) -> &'static str {
        "KM"
    }

    fn reorder(&mut self, map: &IdRemap) {
        self.tree.reorder(map);
        self.orig.reorder(map);
    }

    fn heap_bytes(&self) -> usize {
        self.tree.heap_bytes() + self.orig.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::distance::DistCounter;
    use gass_core::store::VectorStore;

    fn clustered_store(seed: u64) -> VectorStore {
        // 4 well-separated 3-d blobs of 30 points.
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers = [[0.0, 0.0, 0.0], [20.0, 0.0, 0.0], [0.0, 20.0, 0.0], [0.0, 0.0, 20.0]];
        let mut s = VectorStore::new(3);
        for c in centers {
            for _ in 0..30 {
                let v: Vec<f32> =
                    c.iter().map(|x| x + rng.random_range(-0.5..0.5f32)).collect();
                s.push(&v);
            }
        }
        s
    }

    #[test]
    fn all_ids_reachable() {
        let store = clustered_store(1);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let tree = BkTree::build(space, 4, 10, 2);
        let mut out = Vec::new();
        tree.candidates(space, &[0.0; 3], usize::MAX, 0, &mut out);
        out.sort_unstable();
        let expected: Vec<u32> = (0..120).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn descent_reaches_correct_blob() {
        let store = clustered_store(3);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let tree = BkTree::build(space, 4, 10, 4);
        counter.reset();
        let mut out = Vec::new();
        // Query near blob 1 (ids 30..60).
        tree.candidates(space, &[20.0, 0.1, -0.1], 10, 0, &mut out);
        assert!(!out.is_empty());
        let hits = out.iter().filter(|&&id| (30..60).contains(&id)).count();
        assert!(
            hits * 2 >= out.len(),
            "most candidates should come from the nearest blob; got {hits}/{}",
            out.len()
        );
        assert!(counter.get() > 0, "centroid descent must be counted");
    }

    #[test]
    fn seed_provider_contract() {
        let store = clustered_store(5);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let seeds = BktSeeds::build(space, 3, 8, 6);
        let mut out = Vec::new();
        seeds.select(space, &[0.0; 3], 5, 0, &mut out);
        assert!(out.len() <= 5);
        assert!(!out.is_empty());
        assert_eq!(seeds.label(), "KM");
    }

    #[test]
    fn select_stops_at_the_budget_and_still_seeds() {
        let store = clustered_store(5);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let seeds = BktSeeds::build(space, 3, 8, 6);
        for budget in [1, 2] {
            counter.reset();
            let mut out = Vec::new();
            let spent = seeds.select(space, &[20.0, 0.1, -0.1], 5, budget, &mut out);
            assert_eq!(spent, budget, "spent what it reports");
            assert_eq!(counter.get(), spent as u64, "spent what it counted");
            assert!(!out.is_empty() && out.len() <= 5 && out.iter().all(|&id| id < 120));
        }
        let (mut all, mut capped) = (Vec::new(), Vec::new());
        let unbudgeted = seeds.select(space, &[20.0, 0.1, -0.1], 5, 0, &mut all);
        let roomy = seeds.select(space, &[20.0, 0.1, -0.1], 5, unbudgeted, &mut capped);
        assert_eq!((roomy, &capped), (unbudgeted, &all), "a budget it fits in is no budget");
    }

    #[test]
    fn seeds_count_the_table_a_reorder_installs() {
        let store = clustered_store(5);
        let counter = DistCounter::new();
        let mut seeds = BktSeeds::build(Space::new(&store, &counter), 3, 8, 6);
        let tree = seeds.heap_bytes();
        let map = IdRemap::from_new_to_old((0..120u32).rev().collect()).unwrap();
        for _ in 0..2 {
            seeds.reorder(&map);
            assert_eq!(seeds.heap_bytes(), tree + 120 * std::mem::size_of::<u32>());
        }
    }

    #[test]
    fn identical_points_build_terminates() {
        let mut s = VectorStore::new(2);
        for _ in 0..40 {
            s.push(&[1.0, 1.0]);
        }
        let counter = DistCounter::new();
        let space = Space::new(&s, &counter);
        let tree = BkTree::build(space, 4, 8, 7);
        let mut out = Vec::new();
        tree.candidates(space, &[1.0, 1.0], usize::MAX, 0, &mut out);
        assert_eq!(out.len(), 40);
    }
}
