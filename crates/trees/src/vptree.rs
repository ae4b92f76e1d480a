//! Vantage-Point trees — NGT's seed-selection structure.
//!
//! Each node picks a vantage point, computes distances from it to the
//! remaining points, and splits at the median distance: inner child holds
//! points closer than the median, outer child the rest. Query-time seed
//! retrieval is a bounded best-first search that *does* evaluate (counted)
//! distances to vantage points, unlike coordinate-comparing K-D trees.

use gass_core::distance::{l2_sq, Space};
use gass_core::neighbor::Neighbor;
use gass_core::reorder::IdRemap;
use gass_core::seed::{OriginalIds, SeedProvider};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

#[derive(Clone, Debug)]
enum Node {
    Ball {
        vantage: u32,
        radius: f32, // squared median distance
        inner: u32,
        outer: u32,
    },
    Leaf {
        ids: Vec<u32>,
    },
}

/// A vantage-point tree over all vectors of a store.
#[derive(Clone, Debug)]
pub struct VpTree {
    nodes: Vec<Node>,
    root: u32,
    leaf_size: usize,
}

impl VpTree {
    /// Builds the tree; construction distance evaluations are counted
    /// through `space`.
    ///
    /// # Panics
    /// Panics if the store is empty or `leaf_size == 0`.
    pub fn build(space: Space<'_>, leaf_size: usize, seed: u64) -> Self {
        assert!(!space.is_empty(), "VP-tree over empty store");
        assert!(leaf_size > 0, "leaf size must be positive");
        let ids: Vec<u32> = (0..space.len() as u32).collect();
        let mut tree = Self { nodes: Vec::new(), root: 0, leaf_size };
        let mut rng = SmallRng::seed_from_u64(seed);
        tree.root = tree.build_rec(space, ids, &mut rng);
        tree
    }

    fn build_rec(&mut self, space: Space<'_>, mut ids: Vec<u32>, rng: &mut SmallRng) -> u32 {
        if ids.len() <= self.leaf_size {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { ids });
            return idx;
        }
        let v_pos = rng.random_range(0..ids.len());
        let vantage = ids.swap_remove(v_pos);
        let mut with_d: Vec<(f32, u32)> =
            ids.iter().map(|&id| (space.dist(vantage, id), id)).collect();
        let mid = with_d.len() / 2;
        with_d.select_nth_unstable_by(mid, |a, b| a.0.total_cmp(&b.0));
        let radius = with_d[mid].0;
        let inner_ids: Vec<u32> = with_d[..mid].iter().map(|&(_, id)| id).collect();
        let mut outer_ids: Vec<u32> = with_d[mid..].iter().map(|&(_, id)| id).collect();
        // The vantage point itself lives with the outer child so every id
        // appears in exactly one leaf.
        outer_ids.push(vantage);
        if inner_ids.is_empty() {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { ids: outer_ids });
            return idx;
        }
        let inner = self.build_rec(space, inner_ids, rng);
        let outer = self.build_rec(space, outer_ids, rng);
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::Ball { vantage, radius, inner, outer });
        idx
    }

    /// Retrieves up to `count` candidate ids for `query`, best-first by
    /// ball margin; vantage-point distances are counted through `space`,
    /// and the number spent is returned. Under a `max_dists` budget (`0` =
    /// unlimited) the descent scores no vantage point past the budget; if
    /// it stopped before reaching a leaf, the nearest vantage point it
    /// scored is the one candidate.
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
        let mut nearest: Option<Neighbor> = None;
        while !frontier.is_empty() {
            let mut best = 0;
            for i in 1..frontier.len() {
                if frontier[i].0 < frontier[best].0 {
                    best = i;
                }
            }
            let (_, node) = frontier.swap_remove(best);
            match &self.nodes[node as usize] {
                Node::Leaf { ids } => {
                    out.extend_from_slice(ids);
                    if out.len() - start >= count {
                        break;
                    }
                }
                Node::Ball { vantage, radius, inner, outer } => {
                    if max_dists > 0 && spent >= max_dists {
                        break;
                    }
                    let d = space.dist_to(query, *vantage);
                    spent += 1;
                    if nearest.is_none_or(|n| d < n.dist) {
                        nearest = Some(Neighbor::new(*vantage, d));
                    }
                    // Margin to the splitting sphere, in squared space:
                    // approximate priority by |d - radius|.
                    let margin = (d - radius).abs();
                    if d < *radius {
                        frontier.push((0.0, *inner));
                        frontier.push((margin, *outer));
                    } else {
                        frontier.push((0.0, *outer));
                        frontier.push((margin, *inner));
                    }
                }
            }
        }
        if out.len() == start {
            out.extend(nearest.map(|n| n.id));
        }
        spent
    }

    /// Exact-ish k-NN through the tree with a candidate budget, returning
    /// evaluated neighbors sorted by distance. Convenience for tests.
    pub fn knn(
        &self,
        space: Space<'_>,
        query: &[f32],
        k: usize,
        budget: usize,
    ) -> Vec<Neighbor> {
        let mut cand = Vec::new();
        self.candidates(space, query, budget, 0, &mut cand);
        cand.sort_unstable();
        cand.dedup();
        let mut scored: Vec<Neighbor> = cand
            .into_iter()
            .map(|id| Neighbor::new(id, l2_sq(query, space.store().get(id))))
            .collect();
        scored.sort_unstable();
        scored.truncate(k);
        scored
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

    /// Relabels vantage points and leaf ids through `map` after the
    /// vector store was permuted. Each remapped vantage id denotes the
    /// same vector, so the descent and its counted distance evaluations
    /// are unchanged.
    pub fn reorder(&mut self, map: &IdRemap) {
        for node in &mut self.nodes {
            match node {
                Node::Ball { vantage, .. } => *vantage = map.to_new(*vantage),
                Node::Leaf { ids } => {
                    for id in ids.iter_mut() {
                        *id = map.to_new(*id);
                    }
                }
            }
        }
    }
}

/// VP-tree seed provider (NGT's strategy). Holds its own tree; the store it
/// was built on must be the one queried.
#[derive(Clone, Debug)]
pub struct VpSeeds {
    tree: VpTree,
    /// Sort key that keeps the truncated seed set identical before and
    /// after relabeling.
    orig: OriginalIds,
}

impl VpSeeds {
    /// Builds the VP-tree seed structure over `space`'s store.
    pub fn build(space: Space<'_>, leaf_size: usize, seed: u64) -> Self {
        Self { tree: VpTree::build(space, leaf_size, seed), orig: OriginalIds::default() }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &VpTree {
        &self.tree
    }
}

impl SeedProvider for VpSeeds {
    fn select(
        &self,
        space: Space<'_>,
        query: &[f32],
        count: usize,
        max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        let start = out.len();
        let spent = self.tree.candidates(space, query, count.max(1), max_dists, out);
        self.orig.select(out, start, count.max(1));
        spent
    }

    fn label(&self) -> &'static str {
        "VP"
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
    fn every_id_in_exactly_one_leaf() {
        let store = random_store(200, 4, 1);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let tree = VpTree::build(space, 8, 2);
        let mut all = Vec::new();
        // Exhaustive traversal: huge budget collects every leaf.
        tree.candidates(space, &[0.0; 4], usize::MAX, 0, &mut all);
        all.sort_unstable();
        let expected: Vec<u32> = (0..200).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn construction_distances_are_counted() {
        let store = random_store(100, 4, 3);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let _ = VpTree::build(space, 8, 2);
        assert!(counter.get() > 0);
    }

    #[test]
    fn knn_finds_true_nn_with_generous_budget() {
        let store = random_store(300, 6, 5);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let tree = VpTree::build(space, 10, 6);
        let query: Vec<f32> = store.get(42).to_vec();
        let res = tree.knn(space, &query, 1, 300);
        assert_eq!(res[0].id, 42);
        assert_eq!(res[0].dist, 0.0);
    }

    #[test]
    fn seed_provider_respects_count() {
        let store = random_store(100, 3, 9);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let seeds = VpSeeds::build(space, 5, 1);
        let mut out = Vec::new();
        seeds.select(space, &[0.1, 0.2, 0.3], 7, 0, &mut out);
        assert!(out.len() <= 7);
        assert!(!out.is_empty());
        assert_eq!(seeds.label(), "VP");
    }

    #[test]
    fn select_stops_at_the_budget_and_still_seeds() {
        let store = random_store(500, 4, 11);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let seeds = VpSeeds::build(space, 8, 3);
        for budget in [1, 3] {
            counter.reset();
            let mut out = Vec::new();
            let spent = seeds.select(space, store.get(7), 16, budget, &mut out);
            assert_eq!(spent, budget, "spent what it reports");
            assert_eq!(counter.get(), spent as u64, "spent what it counted");
            assert!(!out.is_empty() && out.iter().all(|&id| id < 500));
        }
        let (mut all, mut capped) = (Vec::new(), Vec::new());
        let unbudgeted = seeds.select(space, store.get(7), 16, 0, &mut all);
        let roomy = seeds.select(space, store.get(7), 16, unbudgeted, &mut capped);
        assert_eq!((roomy, &capped), (unbudgeted, &all), "a budget it fits in is no budget");
    }

    #[test]
    fn seeds_count_the_table_a_reorder_installs() {
        let store = random_store(100, 3, 9);
        let counter = DistCounter::new();
        let mut seeds = VpSeeds::build(Space::new(&store, &counter), 5, 1);
        let tree = seeds.heap_bytes();
        let map = IdRemap::from_new_to_old((0..100u32).rev().collect()).unwrap();
        for _ in 0..2 {
            seeds.reorder(&map);
            assert_eq!(seeds.heap_bytes(), tree + 100 * std::mem::size_of::<u32>());
        }
    }

    #[test]
    fn small_budget_visits_few_points() {
        let store = random_store(500, 4, 11);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let tree = VpTree::build(space, 8, 3);
        counter.reset();
        let mut out = Vec::new();
        tree.candidates(space, store.get(7), 16, 0, &mut out);
        assert!(out.len() >= 8);
        // Bounded traversal: far fewer vantage evaluations than points.
        assert!(counter.get() < 200, "too many evals: {}", counter.get());
    }
}
