//! Shared construction utilities used by several methods: reverse-edge
//! insertion with pruning, DFS connectivity repair, exact per-subset k-NN
//! graphs, and the build report every method returns (defined in
//! `gass-core`, re-exported here).

use gass_core::distance::Space;
use gass_core::graph::{AdjacencyGraph, GraphView};
use gass_core::nd::NdStrategy;
use gass_core::neighbor::{BoundedMaxHeap, Neighbor};
use gass_core::par::ConcurrentAdjacency;

pub use gass_core::index::BuildReport;

/// Adds the reverse edge `to -> from` for every selected neighbor; when a
/// reverse list exceeds `max_degree` it is re-pruned with `nd` (the
/// standard HNSW/NSG/Vamana overflow handling).
pub fn add_reverse_edges(
    space: Space<'_>,
    graph: &mut AdjacencyGraph,
    from: u32,
    neighbors: &[Neighbor],
    max_degree: usize,
    nd: NdStrategy,
) {
    for nb in neighbors {
        let added = graph.add_edge(nb.id, from);
        if added && graph.neighbors(nb.id).len() > max_degree {
            // Re-score the overflowing list relative to its owner and
            // re-prune.
            let owner = nb.id;
            let scored: Vec<Neighbor> = graph
                .neighbors(owner)
                .iter()
                .map(|&v| Neighbor::new(v, space.dist(owner, v)))
                .collect();
            let kept = nd.diversify(space, owner, &scored, max_degree);
            graph.set_neighbors(owner, kept.into_iter().map(|n| n.id).collect());
        }
    }
}

/// [`add_reverse_edges`] against a [`ConcurrentAdjacency`]: each reverse
/// list is mutated — and re-pruned on overflow — under its owner's stripe
/// lock, so workers in a batch's apply phase insert their edges
/// concurrently. Only one stripe lock is held at a time (pruning computes
/// distances but takes no further locks), so no deadlock is possible.
pub fn add_reverse_edges_concurrent(
    space: Space<'_>,
    graph: &ConcurrentAdjacency,
    from: u32,
    neighbors: &[Neighbor],
    max_degree: usize,
    nd: NdStrategy,
) {
    for nb in neighbors {
        if nb.id == from {
            continue;
        }
        graph.with(nb.id, |list| {
            if list.contains(&from) {
                return;
            }
            list.push(from);
            if list.len() > max_degree {
                let owner = nb.id;
                let scored: Vec<Neighbor> =
                    list.iter().map(|&v| Neighbor::new(v, space.dist(owner, v))).collect();
                let kept = nd.diversify(space, owner, &scored, max_degree);
                list.clear();
                list.extend(kept.into_iter().map(|n| n.id));
            }
        });
    }
}

/// NSG-style connectivity repair: ensures every node is reachable from
/// `root` by attaching each unreachable node to its nearest reachable
/// node (nearest among a sampled subset for efficiency; exact for small
/// graphs). Returns the number of repaired nodes.
pub fn repair_connectivity(space: Space<'_>, graph: &mut AdjacencyGraph, root: u32) -> usize {
    let mut repaired = 0;
    loop {
        let seen = graph.reachable_from(root);
        let Some(orphan) = seen.iter().position(|&s| !s) else {
            return repaired;
        };
        let orphan = orphan as u32;
        // Attach the orphan to its nearest reachable node.
        let mut best: Option<Neighbor> = None;
        for v in 0..graph.num_nodes() as u32 {
            if seen[v as usize] {
                let d = space.dist(orphan, v);
                if best.is_none_or(|b| d < b.dist) {
                    best = Some(Neighbor::new(v, d));
                }
            }
        }
        let anchor = best.expect("root is always reachable").id;
        graph.add_undirected(anchor, orphan);
        repaired += 1;
    }
}

/// Exact k-NN lists inside an id subset (SPTAG's per-leaf graph): for each
/// member, its `k` nearest *other* members, by brute force. Distances are
/// counted.
pub fn exact_knn_subset(space: Space<'_>, ids: &[u32], k: usize) -> Vec<Vec<Neighbor>> {
    ids.iter()
        .map(|&u| {
            let mut heap = BoundedMaxHeap::new(k.max(1));
            for &v in ids {
                if v != u {
                    heap.push(Neighbor::new(v, space.dist(u, v)));
                }
            }
            heap.into_sorted()
        })
        .collect()
}

/// Scores a plain id list against a stored query node, producing
/// `Neighbor`s (counted).
pub fn score_ids(space: Space<'_>, query_id: u32, ids: &[u32]) -> Vec<Neighbor> {
    ids.iter()
        .filter(|&&v| v != query_id)
        .map(|&v| Neighbor::new(v, space.dist(query_id, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gass_core::distance::DistCounter;
    use gass_core::store::VectorStore;

    fn line(n: usize) -> VectorStore {
        VectorStore::from_flat(1, (0..n).map(|i| i as f32).collect())
    }

    #[test]
    fn reverse_edges_added_and_pruned() {
        let store = line(5);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut g = AdjacencyGraph::new(5);
        // Node 2 selected neighbors 0,1,3,4.
        let sel: Vec<Neighbor> =
            [0u32, 1, 3, 4].iter().map(|&v| Neighbor::new(v, space.dist(2, v))).collect();
        g.set_neighbors(2, sel.iter().map(|n| n.id).collect());
        add_reverse_edges(space, &mut g, 2, &sel, 2, NdStrategy::NoNd);
        for v in [0u32, 1, 3, 4] {
            assert!(g.neighbors(v).contains(&2), "reverse edge missing on {v}");
            assert!(g.neighbors(v).len() <= 2);
        }
    }

    #[test]
    fn connectivity_repair_reaches_everything() {
        let store = line(6);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let mut g = AdjacencyGraph::new(6);
        // Two disconnected chains: 0-1-2 and 3-4-5.
        g.add_undirected(0, 1);
        g.add_undirected(1, 2);
        g.add_undirected(3, 4);
        g.add_undirected(4, 5);
        assert!(!g.is_connected_from(0));
        let repaired = repair_connectivity(space, &mut g, 0);
        assert!(repaired >= 1);
        assert!(g.is_connected_from(0));
        // The repair should use the geometrically nearest bridge (2 -> 3).
        assert!(g.neighbors(3).contains(&2) || g.neighbors(2).contains(&3));
    }

    #[test]
    fn exact_knn_subset_is_exact() {
        let store = line(10);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let ids = vec![0u32, 2, 5, 9];
        let lists = exact_knn_subset(space, &ids, 2);
        // For id 5: nearest in subset are 2 (d=9) then 9 (d=16).
        assert_eq!(lists[2][0].id, 2);
        assert_eq!(lists[2][1].id, 9);
        // No self-references.
        for (i, list) in lists.iter().enumerate() {
            assert!(list.iter().all(|n| n.id != ids[i]));
        }
    }

    #[test]
    fn score_ids_excludes_self() {
        let store = line(4);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let scored = score_ids(space, 1, &[0, 1, 2]);
        assert_eq!(scored.len(), 2);
        assert!(scored.iter().all(|n| n.id != 1));
    }
}
