//! Proximity-graph representations.
//!
//! Two layouts are provided, matching the implementation-impact discussion
//! of the paper (Figures 8 and 17):
//!
//! * [`AdjacencyGraph`] — one `Vec<u32>` per node. Flexible during
//!   construction (degrees fluctuate as edges are added and pruned) but
//!   pointer-chasing at query time.
//! * [`FlatGraph`] — a single contiguous block with fixed per-node slot
//!   count, HNSW-style. Cache-friendly at query time, but reserves
//!   `max_degree` slots per node, which is exactly the quadratic-ish memory
//!   growth the paper attributes to hnswlib's layout.
//! * [`CsrGraph`] — compressed sparse row: one `offsets` array and one
//!   densely packed `neighbors` array, no per-node slack at all. The
//!   read-only serving layout every finished method freezes into
//!   (`AnnIndex::freeze`): contiguous like [`FlatGraph`] but without its
//!   slot rounding, so it is both the smallest and the most
//!   prefetch-friendly representation.
//!
//! Search code is generic over [`GraphView`], so every method can be queried
//! through any layout.

use serde::{Deserialize, Serialize};

/// Read-only view of a directed graph over vector ids.
pub trait GraphView {
    /// Number of nodes.
    fn num_nodes(&self) -> usize;
    /// Out-neighbors of `node`.
    fn neighbors(&self, node: u32) -> &[u32];
    /// Heap bytes the layout holds (Figures 8–9 count it as graph memory).
    fn heap_bytes(&self) -> usize;

    /// Total number of directed edges.
    fn num_edges(&self) -> usize {
        (0..self.num_nodes() as u32).map(|v| self.neighbors(v).len()).sum()
    }

    /// Average out-degree.
    fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum out-degree.
    fn max_degree(&self) -> usize {
        (0..self.num_nodes() as u32).map(|v| self.neighbors(v).len()).max().unwrap_or(0)
    }
}

/// Mutable adjacency-list graph used during construction by every method.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AdjacencyGraph {
    adj: Vec<Vec<u32>>,
}

impl AdjacencyGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self { adj: vec![Vec::new(); n] }
    }

    /// Creates a graph with `n` nodes, reserving `degree_hint` slots each.
    pub fn with_degree_hint(n: usize, degree_hint: usize) -> Self {
        Self { adj: vec![Vec::with_capacity(degree_hint); n] }
    }

    /// Wraps raw adjacency lists (no validation beyond what callers built).
    /// Used by [`crate::par::ConcurrentAdjacency::freeze`] to hand a
    /// concurrently built graph back to the serial world.
    pub fn from_lists(adj: Vec<Vec<u32>>) -> Self {
        Self { adj }
    }

    /// Consumes the graph, yielding its raw adjacency lists.
    pub fn into_lists(self) -> Vec<Vec<u32>> {
        self.adj
    }

    /// Appends a new isolated node, returning its id. Incremental-insertion
    /// methods (NSW, HNSW) grow the graph this way.
    pub fn push_node(&mut self) -> u32 {
        let id = self.adj.len();
        assert!(id < u32::MAX as usize, "graph exceeds u32 id space");
        self.adj.push(Vec::new());
        id as u32
    }

    /// Adds the directed edge `from -> to` unless it already exists or is a
    /// self-loop. Returns `true` if added.
    pub fn add_edge(&mut self, from: u32, to: u32) -> bool {
        if from == to {
            return false;
        }
        let list = &mut self.adj[from as usize];
        if list.contains(&to) {
            return false;
        }
        list.push(to);
        true
    }

    /// Adds both `a -> b` and `b -> a`.
    pub fn add_undirected(&mut self, a: u32, b: u32) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Replaces the neighbor list of `node` wholesale (post-pruning).
    pub fn set_neighbors(&mut self, node: u32, neighbors: Vec<u32>) {
        debug_assert!(!neighbors.contains(&node), "self-loop in neighbor list");
        self.adj[node as usize] = neighbors;
    }

    /// Makes the graph undirected by adding every reverse edge
    /// (DPG's final step).
    pub fn undirected_closure(&mut self) {
        let edges: Vec<(u32, u32)> = self
            .adj
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().map(move |&v| (u as u32, v)))
            .collect();
        for (u, v) in edges {
            self.add_edge(v, u);
        }
    }

    /// Nodes reachable from `start` (BFS). Used by connectivity repair
    /// (NSG/SSG) and by tests.
    pub fn reachable_from(&self, start: u32) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        if self.adj.is_empty() {
            return seen;
        }
        let mut queue = std::collections::VecDeque::new();
        seen[start as usize] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u as usize] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// `true` when every node is reachable from `start`.
    pub fn is_connected_from(&self, start: u32) -> bool {
        self.reachable_from(start).iter().all(|&b| b)
    }
}

impl GraphView for AdjacencyGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    #[inline]
    fn neighbors(&self, node: u32) -> &[u32] {
        &self.adj[node as usize]
    }

    fn heap_bytes(&self) -> usize {
        let lists: usize =
            self.adj.iter().map(|l| l.capacity() * std::mem::size_of::<u32>()).sum();
        lists + self.adj.capacity() * std::mem::size_of::<Vec<u32>>()
    }
}

/// Immutable contiguous-layout graph: `slots` entries reserved per node, a
/// per-node count, one allocation. The query-time layout of hnswlib and
/// ParlayANN. The default is the empty graph a frozen index leaves behind.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FlatGraph {
    slots: usize,
    counts: Vec<u32>,
    edges: Vec<u32>,
}

impl FlatGraph {
    /// Freezes an adjacency graph into flat layout. `slots` defaults to the
    /// graph's maximum out-degree; lists longer than `slots` are truncated
    /// (callers prune before freezing, so truncation is a safety net).
    pub fn from_adjacency(g: &AdjacencyGraph, slots: Option<usize>) -> Self {
        let n = g.num_nodes();
        let slots = slots.unwrap_or_else(|| g.max_degree()).max(1);
        let mut counts = vec![0u32; n];
        let mut edges = vec![0u32; n * slots];
        for v in 0..n as u32 {
            let ns = g.neighbors(v);
            let take = ns.len().min(slots);
            counts[v as usize] = take as u32;
            edges[v as usize * slots..v as usize * slots + take].copy_from_slice(&ns[..take]);
        }
        Self { slots, counts, edges }
    }

    /// Slot count per node.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

impl GraphView for FlatGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.counts.len()
    }

    #[inline]
    fn neighbors(&self, node: u32) -> &[u32] {
        let base = node as usize * self.slots;
        &self.edges[base..base + self.counts[node as usize] as usize]
    }

    fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
            + self.edges.capacity() * std::mem::size_of::<u32>()
    }
}

/// Compressed-sparse-row graph: node `v`'s neighbors live at
/// `neighbors[offsets[v] .. offsets[v + 1]]`. Exactly `num_edges` entries
/// plus `n + 1` offsets — no per-node slack — and fully contiguous, which
/// is what makes it the preferred *serving* layout (see
/// [`crate::index::AnnIndex::freeze`]): adjacent lists share cache lines,
/// and a single offsets lookup replaces the per-`Vec` pointer chase of
/// [`AdjacencyGraph`].
///
/// The layout is immutable by construction; build code keeps using the
/// mutable layouts and freezes once at the end.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CsrGraph {
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl CsrGraph {
    /// Freezes any [`GraphView`] into CSR form, preserving neighbor order.
    ///
    /// # Panics
    /// Panics if the graph holds more than `u32::MAX` edges (offsets are
    /// `u32` to halve their footprint; the paper's largest per-graph edge
    /// counts are well below that).
    pub fn from_view<G: GraphView + ?Sized>(g: &G) -> Self {
        let n = g.num_nodes();
        let total = g.num_edges();
        assert!(total <= u32::MAX as usize, "edge count exceeds u32 offset space");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(total);
        offsets.push(0);
        for v in 0..n as u32 {
            neighbors.extend_from_slice(g.neighbors(v));
            offsets.push(neighbors.len() as u32);
        }
        Self { offsets, neighbors }
    }

    /// Relabels the graph through `map`: the node now labeled `u` gets the
    /// neighbor list of the node previously labeled `map.to_old(u)`, with
    /// every neighbor id rewritten to its new label. Neighbor order within
    /// each list is preserved, so a traversal from remapped seeds is
    /// isomorphic to the original.
    pub fn permute(&self, map: &crate::reorder::IdRemap) -> CsrGraph {
        assert_eq!(map.len(), self.num_nodes(), "remap covers a different node count");
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut neighbors = Vec::with_capacity(self.neighbors.len());
        offsets.push(0);
        for new in 0..self.num_nodes() as u32 {
            let old = map.to_old(new);
            neighbors.extend(self.neighbors(old).iter().map(|&v| map.to_new(v)));
            offsets.push(neighbors.len() as u32);
        }
        Self { offsets, neighbors }
    }
}

impl GraphView for CsrGraph {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    #[inline]
    fn neighbors(&self, node: u32) -> &[u32] {
        let lo = self.offsets[node as usize] as usize;
        let hi = self.offsets[node as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    fn heap_bytes(&self) -> usize {
        (self.offsets.capacity() + self.neighbors.capacity()) * std::mem::size_of::<u32>()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.neighbors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> AdjacencyGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut g = AdjacencyGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn add_edge_rejects_self_loops_and_duplicates() {
        let mut g = AdjacencyGraph::new(2);
        assert!(!g.add_edge(0, 0));
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(0, 1));
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edge_and_degree_stats() {
        let g = diamond();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reachability_and_connectivity() {
        let g = diamond();
        assert!(g.is_connected_from(0));
        assert!(!g.is_connected_from(3)); // 3 has no out-edges
        let seen = g.reachable_from(1);
        assert_eq!(seen, vec![false, true, false, true]);
    }

    #[test]
    fn undirected_closure_adds_reverses() {
        let mut g = diamond();
        g.undirected_closure();
        assert!(g.neighbors(3).contains(&1));
        assert!(g.neighbors(3).contains(&2));
        assert!(g.is_connected_from(3));
    }

    #[test]
    fn flat_graph_preserves_neighbors() {
        let g = diamond();
        let f = FlatGraph::from_adjacency(&g, None);
        for v in 0..4 {
            assert_eq!(f.neighbors(v), g.neighbors(v));
        }
        assert_eq!(f.num_edges(), g.num_edges());
    }

    #[test]
    fn flat_graph_truncates_to_slots() {
        let mut g = AdjacencyGraph::new(4);
        g.set_neighbors(0, vec![1, 2, 3]);
        let f = FlatGraph::from_adjacency(&g, Some(2));
        assert_eq!(f.neighbors(0), &[1, 2]);
    }

    #[test]
    fn csr_graph_preserves_neighbors_and_order() {
        let g = diamond();
        let c = CsrGraph::from_view(&g);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        for v in 0..4 {
            assert_eq!(c.neighbors(v), g.neighbors(v));
        }
        // Also freezes from the flat layout (slot slack dropped).
        let f = FlatGraph::from_adjacency(&g, Some(5));
        let c2 = CsrGraph::from_view(&f);
        for v in 0..4 {
            assert_eq!(c2.neighbors(v), g.neighbors(v));
        }
        assert!(c2.heap_bytes() < f.heap_bytes());
    }

    #[test]
    fn csr_of_empty_graph() {
        let g = AdjacencyGraph::new(0);
        let c = CsrGraph::from_view(&g);
        assert_eq!(c.num_nodes(), 0);
        assert_eq!(c.num_edges(), 0);
    }

    #[test]
    fn push_node_grows_graph() {
        let mut g = AdjacencyGraph::default();
        assert_eq!(g.push_node(), 0);
        assert_eq!(g.push_node(), 1);
        g.add_undirected(0, 1);
        assert_eq!(g.neighbors(1), &[0]);
    }

    #[test]
    fn flat_layout_is_denser_than_lists_at_fixed_degree() {
        // With uniform degree, flat layout should not waste beyond slot
        // rounding; sanity-check the memory accounting runs.
        let mut g = AdjacencyGraph::new(100);
        for v in 0..100u32 {
            g.set_neighbors(v, vec![(v + 1) % 100, (v + 2) % 100]);
        }
        let f = FlatGraph::from_adjacency(&g, Some(2));
        assert!(f.heap_bytes() > 0);
        assert!(g.heap_bytes() > 0);
    }
}
