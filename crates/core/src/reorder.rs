//! Cache-locality graph reordering: permutation-based relabeling of the
//! frozen serving state.
//!
//! Graph construction assigns node ids in insertion order, so after
//! `freeze()` the beam search hops across cache lines in an order that has
//! nothing to do with traversal locality. This module computes a
//! locality-preserving permutation over the frozen [`CsrGraph`] and applies
//! it *atomically* across the whole serving state — CSR offsets/neighbors,
//! the aligned [`VectorStore`] rows, and the SQ8 [`QuantizedStore`] rows —
//! while an [`IdRemap`] keeps the original ids addressable so `search()`
//! results are unchanged.
//!
//! The permutation relabels nodes; it does not add or drop edges, so a
//! traversal from remapped seeds visits exactly the same vectors in the
//! same order and the `DistCounter` totals are identical across
//! strategies. What changes is *where* those vectors live: BFS/RCM place
//! neighbors on adjacent rows (small [`mean_edge_span`]), so each hop's
//! neighbor expansion touches fewer cache lines and the software prefetch
//! issued by the beam search covers more useful bytes per miss.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use crate::distance::QuantView;
use crate::graph::{CsrGraph, FlatGraph, GraphView};
use crate::index::{IndexStats, QueryParams};
use crate::quant::{CodecSpec, CodecStore};
use crate::search::SearchResult;
use crate::store::VectorStore;

/// Node-relabeling strategy applied at (or after) freeze time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReorderStrategy {
    /// Keep construction order. The serving path is bit-identical to an
    /// index that was never reordered.
    #[default]
    None,
    /// Breadth-first order seeded from the method's entry point(s);
    /// unreached components are traversed from the lowest remaining id.
    Bfs,
    /// Reverse Cuthill–McKee: BFS that enqueues neighbors in ascending
    /// degree order, final order reversed. The classic bandwidth-
    /// minimizing ordering for sparse matrices.
    Rcm,
}

impl ReorderStrategy {
    /// All strategies, in sweep order.
    pub const ALL: [ReorderStrategy; 3] =
        [ReorderStrategy::None, ReorderStrategy::Bfs, ReorderStrategy::Rcm];

    /// Canonical lowercase name (accepted back by [`FromStr`]).
    pub fn as_str(&self) -> &'static str {
        match self {
            ReorderStrategy::None => "none",
            ReorderStrategy::Bfs => "bfs",
            ReorderStrategy::Rcm => "rcm",
        }
    }
}

impl fmt::Display for ReorderStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for ReorderStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "off" => Ok(ReorderStrategy::None),
            "bfs" => Ok(ReorderStrategy::Bfs),
            "rcm" => Ok(ReorderStrategy::Rcm),
            other => Err(format!("unknown reorder strategy '{other}' (expected none|bfs|rcm)")),
        }
    }
}

/// A validated bijection between the original ("old") id space and the
/// permuted ("new") id space.
///
/// `new_to_old[new] = old` is the placement order; `old_to_new` is its
/// inverse. Construction rejects anything that is not a permutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdRemap {
    new_to_old: Vec<u32>,
    old_to_new: Vec<u32>,
}

impl IdRemap {
    /// Builds the remap from a placement order, validating that it is a
    /// bijection over `0..order.len()`.
    pub fn from_new_to_old(new_to_old: Vec<u32>) -> Result<Self, String> {
        let n = new_to_old.len();
        let mut old_to_new = vec![u32::MAX; n];
        for (new, &old) in new_to_old.iter().enumerate() {
            let slot = old_to_new
                .get_mut(old as usize)
                .ok_or_else(|| format!("id {old} out of range for {n} nodes"))?;
            if *slot != u32::MAX {
                return Err(format!("id {old} appears twice — not a permutation"));
            }
            *slot = new as u32;
        }
        Ok(Self { new_to_old, old_to_new })
    }

    /// The identity remap over `n` ids.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<u32> = (0..n as u32).collect();
        Self { new_to_old: ids.clone(), old_to_new: ids }
    }

    /// Number of ids covered.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// True when the remap covers no ids.
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// Original id of the node now labeled `new`.
    #[inline]
    pub fn to_old(&self, new: u32) -> u32 {
        self.new_to_old[new as usize]
    }

    /// Current label of the node originally labeled `old`.
    #[inline]
    pub fn to_new(&self, old: u32) -> u32 {
        self.old_to_new[old as usize]
    }

    /// Placement order (`new → old`).
    pub fn new_to_old(&self) -> &[u32] {
        &self.new_to_old
    }

    /// Inverse table (`old → new`).
    pub fn old_to_new(&self) -> &[u32] {
        &self.old_to_new
    }

    /// Composes this remap (original ↔ mid) with a `later` one
    /// (mid ↔ newest) into a single original ↔ newest remap.
    pub fn compose(&self, later: &IdRemap) -> IdRemap {
        assert_eq!(self.len(), later.len(), "composing remaps of different sizes");
        let new_to_old: Vec<u32> =
            later.new_to_old.iter().map(|&mid| self.to_old(mid)).collect();
        IdRemap::from_new_to_old(new_to_old).expect("composition of bijections is a bijection")
    }

    /// Approximate heap bytes of both tables.
    pub fn heap_bytes(&self) -> usize {
        (self.new_to_old.capacity() + self.old_to_new.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Computes the placement order for `strategy` over `graph`, seeded (for
/// BFS/RCM) from `entries` in the graph's *current* id space.
pub fn compute_permutation<G: GraphView + ?Sized>(
    graph: &G,
    strategy: ReorderStrategy,
    entries: &[u32],
) -> IdRemap {
    let n = graph.num_nodes();
    let order: Vec<u32> = match strategy {
        ReorderStrategy::None => (0..n as u32).collect(),
        ReorderStrategy::Bfs => bfs_order(graph, entries, false),
        ReorderStrategy::Rcm => {
            let mut order = bfs_order(graph, entries, true);
            order.reverse();
            order
        }
    };
    IdRemap::from_new_to_old(order).expect("computed order is a permutation")
}

/// BFS placement from `entries`; unreached components restart from the
/// lowest unplaced id. With `by_degree`, neighbors are enqueued in
/// ascending degree order (the Cuthill–McKee rule) instead of stored
/// order.
fn bfs_order<G: GraphView + ?Sized>(graph: &G, entries: &[u32], by_degree: bool) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut placed = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut scratch: Vec<u32> = Vec::new();
    let mut place = |u: u32, order: &mut Vec<u32>, queue: &mut VecDeque<u32>| {
        if !placed[u as usize] {
            placed[u as usize] = true;
            order.push(u);
            queue.push_back(u);
        }
    };
    for &e in entries {
        if (e as usize) < n {
            place(e, &mut order, &mut queue);
        }
    }
    let mut next_root = 0u32;
    loop {
        while let Some(u) = queue.pop_front() {
            if by_degree {
                scratch.clear();
                scratch.extend_from_slice(graph.neighbors(u));
                scratch.sort_by_key(|&v| (graph.neighbors(v).len(), v));
                for &v in &scratch {
                    place(v, &mut order, &mut queue);
                }
            } else {
                for &v in graph.neighbors(u) {
                    place(v, &mut order, &mut queue);
                }
            }
        }
        while (next_root as usize) < n && order.len() < n {
            let candidate = next_root;
            next_root += 1;
            place(candidate, &mut order, &mut queue);
            if !queue.is_empty() {
                break;
            }
        }
        if order.len() == n {
            break;
        }
    }
    order
}

/// Mean `|u − v|` over all directed edges: the id-distance a neighbor
/// expansion spans on average. A proxy for the cache misses the traversal
/// takes per hop — adjacent ids share cache lines and prefetch strides,
/// distant ids do not.
pub fn mean_edge_span<G: GraphView + ?Sized>(graph: &G) -> f64 {
    let n = graph.num_nodes();
    let mut sum = 0.0f64;
    let mut edges = 0u64;
    for u in 0..n as u32 {
        for &v in graph.neighbors(u) {
            sum += (i64::from(u) - i64::from(v)).unsigned_abs() as f64;
            edges += 1;
        }
    }
    if edges == 0 {
        0.0
    } else {
        sum / edges as f64
    }
}

/// The shared serving state every method carries: the one traversal
/// graph (as built, or its CSR form once frozen), the optional compressed
/// code store (SQ8, SQ4 or PQ), and the id remap introduced by
/// reordering.
///
/// [`crate::index::PrebuiltIndex`] holds one for every graph-plus-seeds
/// method, and the indexes with their own `AnnIndex` impl (HNSW, HVS,
/// the II baseline, ELPIS per leaf) hold one each, so the
/// `freeze`/`quantize`/`reorder` wiring and the graph's share of
/// [`IndexStats`] land once. The state machine is: `freeze()` moves the
/// build graph into CSR and drops it, so a frozen index holds one graph;
/// `quantize()` encodes the (current) store with the requested codec;
/// `reorder()` forces a freeze, permutes CSR + store + codes in place,
/// and records the composed [`IdRemap`] so [`ServingState::finish`] can
/// translate result ids back to the original space.
#[derive(Clone, Debug)]
pub struct ServingState<G = FlatGraph> {
    graph: G,
    csr: Option<CsrGraph>,
    quant: Option<Box<dyn CodecStore>>,
    remap: Option<IdRemap>,
    strategy: ReorderStrategy,
}

impl<G: GraphView + Default> ServingState<G> {
    /// Fresh state over the graph as built: not frozen, not quantized,
    /// not reordered.
    pub fn new(graph: G) -> Self {
        Self { graph, csr: None, quant: None, remap: None, strategy: ReorderStrategy::None }
    }

    /// The graph as built (construction ids). Once frozen it is an empty
    /// placeholder: the CSR is the only graph left, and
    /// [`crate::search::beam_search_gated`] ignores `graph` whenever it
    /// is handed a CSR.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    /// Moves the build graph into the contiguous CSR layout and drops it
    /// (idempotent).
    pub fn freeze(&mut self) {
        if self.csr.is_none() {
            self.csr = Some(CsrGraph::from_view(&std::mem::take(&mut self.graph)));
        }
    }

    /// True once [`ServingState::freeze`] has run.
    pub fn is_frozen(&self) -> bool {
        self.csr.is_some()
    }

    /// The CSR snapshot, if frozen.
    pub fn csr(&self) -> Option<&CsrGraph> {
        self.csr.as_ref()
    }

    /// The live graph's share of [`IndexStats`] — nodes, edges, degrees
    /// and `graph_bytes` of the CSR once frozen, of the build graph
    /// before — with the codes and the remap as `aux_bytes`. Freezing
    /// moves only `graph_bytes`: the CSR holds the same edges.
    pub fn stats(&self) -> IndexStats {
        fn of<V: GraphView + ?Sized>(g: &V, aux_bytes: usize) -> IndexStats {
            IndexStats {
                nodes: g.num_nodes(),
                edges: g.num_edges(),
                avg_degree: g.avg_degree(),
                max_degree: g.max_degree(),
                graph_bytes: g.heap_bytes(),
                aux_bytes,
            }
        }
        let aux_bytes = self.quant.as_ref().map_or(0, |q| q.heap_bytes())
            + self.remap.as_ref().map_or(0, |m| m.heap_bytes());
        match &self.csr {
            Some(csr) => of(csr, aux_bytes),
            None => of(&self.graph, aux_bytes),
        }
    }

    /// Encodes `store` with the codec named by `spec`. Idempotent when the
    /// installed codec already is the resolved spec (family *and* PQ
    /// geometry); any other request re-encodes, so one built index can
    /// walk the compression ladder. Call *after* any permutation of the
    /// store, or use [`ServingState::reorder`] which keeps the codes in
    /// sync.
    pub fn quantize(&mut self, store: &VectorStore, spec: CodecSpec) {
        let want = spec.resolve(store.dim());
        if self.quant.as_ref().map(|q| q.spec()) != Some(want) {
            self.quant = Some(want.build(store));
        }
    }

    /// True once [`ServingState::quantize`] has run.
    pub fn is_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// The compressed code store, if quantized.
    pub fn quant(&self) -> Option<&dyn CodecStore> {
        self.quant.as_deref()
    }

    /// Installs a previously built (e.g. persisted) code store, replacing
    /// any present one. The caller asserts it matches the current store
    /// layout — in particular, that it was encoded *after* any reorder.
    pub fn set_quant(&mut self, quant: Box<dyn CodecStore>) {
        self.quant = Some(quant);
    }

    /// The quantized traversal view for `params`, if quantized.
    pub fn quant_view(&self, params: &QueryParams) -> Option<QuantView<'_>> {
        self.quant.as_deref().map(|q| QuantView::new(q, params.rerank_factor))
    }

    /// Relabels the whole serving state with `strategy`: freezes (moving
    /// the build graph into CSR), permutes the CSR graph, the vector
    /// store, and the codes of the installed codec (SQ8, SQ4 or PQ, if
    /// any), and records the composed id remap. `entries` seed the
    /// BFS/RCM orders and are interpreted in the *current* id space.
    ///
    /// Returns the incremental remap (current → newest ids) so the caller
    /// can relabel its seed structures; `None` when `strategy` is
    /// [`ReorderStrategy::None`] (a no-op that leaves the state
    /// bit-identical).
    pub fn reorder(
        &mut self,
        store: &mut VectorStore,
        strategy: ReorderStrategy,
        entries: &[u32],
    ) -> Option<IdRemap> {
        if strategy == ReorderStrategy::None {
            return None;
        }
        self.freeze();
        let csr = self.csr.as_ref().expect("frozen above");
        let map = compute_permutation(csr, strategy, entries);
        self.csr = Some(csr.permute(&map));
        *store = store.permute(&map);
        if let Some(q) = &self.quant {
            self.quant = Some(q.permute(&map));
        }
        self.remap = Some(match self.remap.take() {
            Some(prev) => prev.compose(&map),
            None => map.clone(),
        });
        self.strategy = strategy;
        Some(map)
    }

    /// The strategy last applied ([`ReorderStrategy::None`] if never
    /// reordered).
    pub fn strategy(&self) -> ReorderStrategy {
        self.strategy
    }

    /// True once a non-`None` reorder has been applied.
    pub fn is_reordered(&self) -> bool {
        self.remap.is_some()
    }

    /// The composed original ↔ current remap, if reordered.
    pub fn remap(&self) -> Option<&IdRemap> {
        self.remap.as_ref()
    }

    /// Maps an *original* id into the current id space (identity when not
    /// reordered). Use for hard-coded fallback entries like node `0`.
    #[inline]
    pub fn to_new(&self, original: u32) -> u32 {
        match &self.remap {
            Some(m) => m.to_new(original),
            None => original,
        }
    }

    /// Maps a *current* id back to the original id space.
    #[inline]
    pub fn to_old(&self, current: u32) -> u32 {
        match &self.remap {
            Some(m) => m.to_old(current),
            None => current,
        }
    }

    /// Translates a search result's ids back to the original id space.
    /// Distances and traversal counters are untouched.
    #[inline]
    pub fn finish(&self, mut res: SearchResult) -> SearchResult {
        if let Some(m) = &self.remap {
            for nb in &mut res.neighbors {
                nb.id = m.to_old(nb.id);
            }
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AdjacencyGraph;

    fn ring(n: usize) -> CsrGraph {
        let mut g = AdjacencyGraph::new(n);
        for i in 0..n {
            g.add_undirected(i as u32, ((i + 1) % n) as u32);
        }
        CsrGraph::from_view(&g)
    }

    #[test]
    fn strategies_produce_bijections() {
        let g = ring(64);
        for s in ReorderStrategy::ALL {
            let map = compute_permutation(&g, s, &[3]);
            assert_eq!(map.len(), 64, "{s}");
            for old in 0..64u32 {
                assert_eq!(map.to_old(map.to_new(old)), old, "{s}");
            }
        }
    }

    #[test]
    fn non_permutations_are_rejected() {
        assert!(IdRemap::from_new_to_old(vec![0, 0, 1]).is_err());
        assert!(IdRemap::from_new_to_old(vec![0, 5]).is_err());
        assert!(IdRemap::from_new_to_old(vec![2, 0, 1]).is_ok());
    }

    #[test]
    fn quantize_reencodes_on_codec_or_geometry_change() {
        let store = VectorStore::from_flat(
            8,
            (0..64).map(|i| ((i * 7) as f32 * 0.43).sin() * 4.0).collect(),
        );
        let mut s = ServingState::new(FlatGraph::default());
        s.quantize(&store, CodecSpec::Sq8);
        assert_eq!(s.quant().unwrap().spec(), CodecSpec::Sq8);
        // Same family: no re-encode.
        s.quantize(&store, CodecSpec::Sq8);
        assert_eq!(s.quant().unwrap().spec(), CodecSpec::Sq8);
        // Different family: re-encode.
        s.quantize(&store, CodecSpec::Pq { m: None });
        let auto = s.quant().unwrap().spec();
        assert_eq!(auto, CodecSpec::Pq { m: None }.resolve(8));
        // Same family but different PQ geometry: must re-encode, not
        // silently keep the old codes.
        s.quantize(&store, CodecSpec::Pq { m: Some(4) });
        assert_eq!(s.quant().unwrap().spec(), CodecSpec::Pq { m: Some(4) });
        // An auto request over a non-auto geometry re-encodes back.
        s.quantize(&store, CodecSpec::Pq { m: None });
        assert_eq!(s.quant().unwrap().spec(), auto);
    }

    #[test]
    fn bfs_from_entry_places_entry_first() {
        let g = ring(16);
        let map = compute_permutation(&g, ReorderStrategy::Bfs, &[7]);
        assert_eq!(map.to_old(0), 7);
        assert_eq!(map.to_new(7), 0);
    }

    #[test]
    fn bfs_covers_disconnected_components() {
        // Two disjoint 4-cycles.
        let mut g = AdjacencyGraph::new(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                g.add_undirected(base + i, base + (i + 1) % 4);
            }
        }
        let csr = CsrGraph::from_view(&g);
        for s in [ReorderStrategy::Bfs, ReorderStrategy::Rcm] {
            let map = compute_permutation(&csr, s, &[5]);
            assert_eq!(map.len(), 8, "{s}");
        }
    }

    #[test]
    fn rcm_shrinks_edge_span_on_a_shuffled_ring() {
        // A ring relabeled by a fixed stride permutation has terrible
        // locality; RCM must restore near-adjacent labels.
        let n = 128usize;
        let mut g = AdjacencyGraph::new(n);
        for i in 0..n {
            let a = (i * 53) % n;
            let b = ((i + 1) * 53) % n;
            g.add_undirected(a as u32, b as u32);
        }
        let csr = CsrGraph::from_view(&g);
        let before = mean_edge_span(&csr);
        let map = compute_permutation(&csr, ReorderStrategy::Rcm, &[0]);
        let after = mean_edge_span(&csr.permute(&map));
        assert!(
            after < before / 4.0,
            "RCM should collapse the span: before={before:.1} after={after:.1}"
        );
    }

    #[test]
    fn compose_chains_two_remaps() {
        let a = IdRemap::from_new_to_old(vec![2, 0, 1]).unwrap();
        let b = IdRemap::from_new_to_old(vec![1, 2, 0]).unwrap();
        let c = a.compose(&b);
        for orig in 0..3u32 {
            assert_eq!(c.to_new(orig), b.to_new(a.to_new(orig)));
            assert_eq!(c.to_old(c.to_new(orig)), orig);
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in ReorderStrategy::ALL {
            assert_eq!(s.as_str().parse::<ReorderStrategy>().unwrap(), s);
        }
        // Bogus names and the removed `degree` / `hub` strategies are named errors.
        for bad in ["bogus", "degree", "hub"] {
            let err = bad.parse::<ReorderStrategy>().unwrap_err();
            assert!(err.contains(bad) && err.contains("none|bfs|rcm"), "{err}");
        }
    }
}
