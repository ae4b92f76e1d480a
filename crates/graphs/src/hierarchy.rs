//! The stacked-NSW hierarchy — HNSW's multi-layer structure and the
//! paper's **SN** seed-selection strategy.
//!
//! Every node draws a maximum level `L = ⌊−ln(ξ)·mL⌋` with `mL = 1/ln(M)`
//! (Eq. 1 of the paper, as in HNSW); nodes with `L ≥ 1` are inserted into
//! sparse NSW graphs at layers `1..=L`, each layer diversified with RND.
//! A query greedily descends from the top layer's entry point; the node
//! reached at layer 1 (and its neighbors, via the subsequent beam search)
//! seed the base-layer search.
//!
//! The hierarchy is independent of the base graph, which is exactly what
//! the paper's Figure 6 experiment needs: it is itself a [`SeedProvider`],
//! so SN attaches to *any* graph built over the same store.

use gass_core::distance::Space;
use gass_core::graph::GraphView;
use gass_core::nd::NdStrategy;
use gass_core::neighbor::Neighbor;
use gass_core::reorder::IdRemap;
use gass_core::search::{beam_search, greedy_search, SearchScratch};
use gass_core::seed::SeedProvider;
use gass_core::visited::VisitedSet;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;

thread_local! {
    /// The greedy descent's visited set; per thread, as `&Hierarchy` descends concurrently.
    static DESCENT_VISITED: RefCell<VisitedSet> = RefCell::new(VisitedSet::new(0));
}

/// One sparse layer: adjacency over a subset of global ids. Implements
/// [`GraphView`] so the shared beam search runs on it unchanged.
#[derive(Clone, Debug, Default)]
pub struct SparseLayer {
    adj: HashMap<u32, Vec<u32>>,
    num_nodes_global: usize,
}

impl SparseLayer {
    fn new(num_nodes_global: usize) -> Self {
        Self { adj: HashMap::new(), num_nodes_global }
    }

    /// Ids present in this layer.
    pub fn members(&self) -> impl Iterator<Item = u32> + '_ {
        self.adj.keys().copied()
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` if the layer has no members.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }
}

impl GraphView for SparseLayer {
    fn num_nodes(&self) -> usize {
        self.num_nodes_global
    }

    fn neighbors(&self, node: u32) -> &[u32] {
        self.adj.get(&node).map_or(&[], Vec::as_slice)
    }

    fn heap_bytes(&self) -> usize {
        self.adj.values().map(|v| v.capacity() * std::mem::size_of::<u32>() + 24).sum()
    }
}

/// Draws a node's maximum layer per Eq. 1: `⌊−ln(ξ) / ln(M)⌋`.
pub fn draw_level(m: usize, rng: &mut SmallRng) -> usize {
    let xi: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let ml = 1.0 / (m.max(2) as f64).ln();
    (-xi.ln() * ml).floor() as usize
}

/// The stacked-NSW hierarchy (layers ≥ 1 only; the base layer belongs to
/// the method that owns it). It holds only what a query descends: the
/// builder lends [`Self::insert`] its search scratch.
#[derive(Debug)]
pub struct Hierarchy {
    layers: Vec<SparseLayer>,    // layers[0] is hierarchy layer 1
    entry: Option<(u32, usize)>, // (node, top layer index into `layers`)
    m: usize,
    ef: usize,
}

impl Hierarchy {
    /// An empty hierarchy with max out-degree `m` and construction beam
    /// width `ef`.
    pub fn new(m: usize, ef: usize) -> Self {
        assert!(m >= 2, "hierarchy degree must be at least 2");
        Self { layers: Vec::new(), entry: None, m, ef: ef.max(m) }
    }

    /// Builds the full hierarchy over every stored vector in one pass
    /// (standalone **SN** construction). Level draws are deterministic
    /// under `seed`.
    pub fn build_over_store(space: Space<'_>, m: usize, ef: usize, seed: u64) -> Self {
        let mut h = Self::new(m, ef);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut scratch = SearchScratch::new(space.len(), h.ef);
        for id in 0..space.len() as u32 {
            let level = draw_level(m, &mut rng);
            h.insert(space, id, level, &mut scratch);
        }
        h
    }

    /// Inserts `id` with maximum layer `level` (0 = base-only: hierarchy
    /// untouched except entry bookkeeping for the very first node). The
    /// per-layer beam searches run in the caller's `scratch`.
    pub fn insert(
        &mut self,
        space: Space<'_>,
        id: u32,
        level: usize,
        scratch: &mut SearchScratch,
    ) {
        if level == 0 {
            if self.entry.is_none() {
                // Keep at least one entry point even if no node ever draws
                // a positive level (tiny datasets).
                self.entry = Some((id, 0));
                if self.layers.is_empty() {
                    self.layers.push(SparseLayer::new(space.len()));
                }
                self.layers[0].adj.entry(id).or_default();
            }
            return;
        }
        while self.layers.len() < level {
            self.layers.push(SparseLayer::new(space.len()));
        }
        let query = space.store().get(id).to_vec();

        // Greedy descent from the top down to `level + 1`.
        let (entry, top) = match self.entry {
            Some((e, t)) => (e, t),
            None => {
                for l in 0..level {
                    self.layers[l].adj.entry(id).or_default();
                }
                self.entry = Some((id, level - 1));
                return;
            }
        };
        let (mut cur, _) = self.descend_layers(space, &query, entry, level..=top, 0);

        // Beam search + RND selection on each layer from min(level, top+1)
        // down to 1 (layer index level-1 .. 0).
        for layer_idx in (0..level.min(top + 1)).rev() {
            let res = beam_search(
                &self.layers[layer_idx],
                space,
                &query,
                &[cur],
                self.ef,
                self.ef,
                scratch,
            );
            let selected = NdStrategy::Rnd.diversify(space, id, &res.neighbors, self.m);
            let layer = &mut self.layers[layer_idx];
            layer.adj.insert(id, selected.iter().map(|n| n.id).collect());
            for nb in &selected {
                let list = layer.adj.entry(nb.id).or_default();
                if !list.contains(&id) {
                    list.push(id);
                }
                if list.len() > self.m {
                    let owner = nb.id;
                    let scored: Vec<Neighbor> = layer.adj[&owner]
                        .iter()
                        .map(|&v| Neighbor::new(v, space.dist(owner, v)))
                        .collect();
                    let kept = NdStrategy::Rnd.diversify(space, owner, &scored, self.m);
                    layer.adj.insert(owner, kept.into_iter().map(|n| n.id).collect());
                }
            }
            if !res.neighbors.is_empty() {
                cur = res.neighbors[0].id;
            }
        }

        // Layers above the previous top had no structure to search; the new
        // node simply becomes their (isolated) member and the entry point.
        for layer_idx in (top + 1)..level {
            self.layers[layer_idx].adj.entry(id).or_default();
        }
        if level > top + 1 {
            self.entry = Some((id, level - 1));
        }
    }

    /// Greedy descent for a query under a hard `max_dists` evaluation
    /// budget (`0` = unlimited): returns the closest node found at
    /// hierarchy layer 1 (a base-graph seed). Distance evaluations are
    /// counted through `space` — SN's seed-selection overhead is real work
    /// the paper measures. An exhausted descent returns its best node so
    /// far from whatever layer it reached: a mid-hierarchy entry point
    /// still seeds the base search usefully, which is how
    /// deadline-squeezed queries degrade gracefully instead of being
    /// dropped. [`SeedProvider::select`] is the same descent, also
    /// reporting what it spent.
    pub fn descend_budgeted(
        &self,
        space: Space<'_>,
        query: &[f32],
        max_dists: usize,
    ) -> Option<u32> {
        let (entry, top) = self.entry?;
        Some(self.descend_layers(space, query, entry, 0..=top, max_dists).0)
    }

    /// Hill-climbs `layers` top-down from `entry` with the shared
    /// [`greedy_search`], at full precision whatever `space` carries;
    /// `max_dists` (`0` = unlimited) caps the evaluations over all layers.
    /// Returns the node reached and the evaluations spent.
    fn descend_layers(
        &self,
        space: Space<'_>,
        query: &[f32],
        entry: u32,
        layers: std::ops::RangeInclusive<usize>,
        max_dists: usize,
    ) -> (u32, usize) {
        DESCENT_VISITED.with_borrow_mut(|visited| {
            let (mut cur, mut spent) = (entry, 0usize);
            for l in layers.rev() {
                // Positive under a budget (see the `break`): never core's "0 = unlimited".
                let left = max_dists.saturating_sub(spent);
                let (best, stats) =
                    greedy_search(&self.layers[l], space, query, cur, visited, left);
                cur = best.id;
                spent += stats.evaluated;
                if max_dists > 0 && spent >= max_dists {
                    break;
                }
            }
            (cur, spent)
        })
    }

    /// Number of hierarchy layers (excluding the base layer).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// The global entry node (top of the descent), if any — the natural
    /// BFS/RCM seed for graph reordering.
    pub fn entry_node(&self) -> Option<u32> {
        self.entry.map(|(e, _)| e)
    }

    /// Nodes present at hierarchy layer `l` (1-based layer = index `l-1`).
    pub fn layer_len(&self, l: usize) -> usize {
        self.layers.get(l).map_or(0, SparseLayer::len)
    }
}

/// **SN**: the descent's layer-1 node is the one seed, whatever `count`
/// asks; an empty hierarchy selects none.
impl SeedProvider for Hierarchy {
    fn select(
        &self,
        space: Space<'_>,
        query: &[f32],
        _count: usize,
        max_dists: usize,
        out: &mut Vec<u32>,
    ) -> usize {
        let Some((entry, top)) = self.entry else { return 0 };
        let (node, spent) = self.descend_layers(space, query, entry, 0..=top, max_dists);
        out.push(node);
        spent
    }

    fn label(&self) -> &'static str {
        "SN"
    }

    /// Relabels every layer's adjacency (keys and neighbor lists) and the
    /// entry point through `map` after the base store was permuted. The
    /// greedy descent visits the same vectors in the same order, so its
    /// counted distance evaluations are unchanged.
    fn reorder(&mut self, map: &IdRemap) {
        for layer in &mut self.layers {
            let adj = std::mem::take(&mut layer.adj);
            layer.adj = adj
                .into_iter()
                .map(|(node, mut nbrs)| {
                    for v in nbrs.iter_mut() {
                        *v = map.to_new(*v);
                    }
                    (map.to_new(node), nbrs)
                })
                .collect();
        }
        if let Some((e, _)) = self.entry.as_mut() {
            *e = map.to_new(*e);
        }
    }

    /// Approximate heap bytes.
    fn heap_bytes(&self) -> usize {
        self.layers.iter().map(SparseLayer::heap_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::distance::DistCounter;
    use gass_data::synth::deep_like;

    #[test]
    fn level_distribution_is_geometricish() {
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 50000;
        let levels: Vec<usize> = (0..n).map(|_| draw_level(16, &mut rng)).collect();
        let l0 = levels.iter().filter(|&&l| l == 0).count() as f64 / n as f64;
        // P(L=0) = 1 - 1/M = 15/16 ≈ 0.9375.
        assert!((l0 - 0.9375).abs() < 0.01, "P(level=0) = {l0}");
        let max = levels.iter().max().copied().unwrap_or(0);
        assert!(max <= 8, "implausibly deep hierarchy: {max}");
    }

    #[test]
    fn hierarchy_descend_finds_near_node() {
        let store = deep_like(400, 2);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let h = Hierarchy::build_over_store(space, 8, 32, 3);
        assert!(h.num_layers() >= 1);
        // Descending with a stored vector should land at a node whose
        // distance is no worse than the median pairwise distance.
        let q = store.get(77).to_vec();
        let landed = h.descend_budgeted(space, &q, 0).expect("entry exists");
        let d_landed = gass_core::l2_sq(&q, store.get(landed));
        let mut dists: Vec<f32> =
            (0..400u32).map(|v| gass_core::l2_sq(&q, store.get(v))).collect();
        dists.sort_by(f32::total_cmp);
        let median = dists[200];
        assert!(d_landed <= median, "descent landed badly: {d_landed} vs median {median}");
    }

    #[test]
    fn layers_shrink_upward() {
        let store = deep_like(1000, 5);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let h = Hierarchy::build_over_store(space, 8, 24, 6);
        for l in 1..h.num_layers() {
            assert!(h.layer_len(l) <= h.layer_len(l - 1), "layer {l} larger than layer below");
        }
        // Layer 1 holds roughly n/M of the nodes.
        let l1 = h.layer_len(0) as f64;
        assert!(l1 > 1000.0 / 8.0 * 0.4 && l1 < 1000.0 / 8.0 * 2.5, "layer1 = {l1}");
    }

    #[test]
    fn sn_select_counts_descent_distances() {
        let store = deep_like(300, 7);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let sn = Hierarchy::build_over_store(space, 8, 16, 9);
        counter.reset();
        let mut out = Vec::new();
        let spent = sn.select(space, store.get(5), 10, 0, &mut out);
        assert_eq!(out.len(), 1);
        assert!(spent > 0, "SN descent must be counted");
        assert_eq!(counter.get(), spent as u64);
        assert_eq!(sn.label(), "SN");
    }

    #[test]
    fn sn_select_stops_at_the_budget_and_still_seeds() {
        let store = deep_like(300, 7);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let sn = Hierarchy::build_over_store(space, 8, 16, 9);
        counter.reset();
        let mut out = Vec::new();
        let spent = sn.select(space, store.get(5), 10, 1, &mut out);
        // The descent scores the top entry, then finds the budget spent.
        assert_eq!((spent, counter.get()), (1, 1));
        assert_eq!(out, [sn.entry_node().unwrap()]);
        assert_eq!(sn.descend_budgeted(space, store.get(5), 1), Some(out[0]));
    }

    #[test]
    fn degenerate_all_level_zero_still_has_entry() {
        let store = deep_like(5, 8);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut h = Hierarchy::new(4, 8);
        let mut scratch = SearchScratch::new(5, 8);
        for id in 0..5u32 {
            h.insert(space, id, 0, &mut scratch);
        }
        assert_eq!(h.descend_budgeted(space, store.get(3), 0), Some(0));
    }
}
