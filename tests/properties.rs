//! Property-based tests (proptest) over the core invariants: ND
//! definitional properties, beam-search exactness at full width, EAPCA
//! lower-bound validity, and priority-queue equivalence.

use gass::prelude::*;
use gass_core::{BoundedMaxHeap, SortedBuffer, Space};
use proptest::prelude::*;

fn arb_points(
    n: std::ops::RangeInclusive<usize>,
    dim: usize,
) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-10.0f32..10.0, dim..=dim), n)
}

fn store_of(points: &[Vec<f32>]) -> VectorStore {
    let mut s = VectorStore::new(points[0].len());
    for p in points {
        s.push(p);
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// RRND(α≥1) and MOND(θ≥60°) never keep fewer neighbors than their
    /// pairwise test allows relative to RND: every candidate *kept by
    /// RND* passes the weaker RRND pairwise test against RND's own kept
    /// set, and pruning ratios order RND ≥ RRND (paper Section 3.4).
    #[test]
    fn nd_pruning_ratios_are_ordered(points in arb_points(8..=40, 4)) {
        let store = store_of(&points);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let q = 0u32;
        let cands: Vec<Neighbor> = (1..store.len() as u32)
            .map(|i| Neighbor::new(i, gass_core::l2_sq(store.get(q), store.get(i))))
            .collect();
        let r_rnd = NdStrategy::Rnd.pruning_ratio(space, q, &cands);
        let r_rrnd = NdStrategy::rrnd_default().pruning_ratio(space, q, &cands);
        prop_assert!(r_rnd + 1e-9 >= r_rrnd, "RND {r_rnd} < RRND {r_rrnd}");
        // α = 1 must reproduce RND exactly.
        let kept_rnd = NdStrategy::Rnd.diversify(space, q, &cands, usize::MAX);
        let kept_a1 = NdStrategy::Rrnd { alpha: 1.0 }.diversify(space, q, &cands, usize::MAX);
        prop_assert_eq!(kept_rnd, kept_a1);
    }

    /// The kept set is always sorted by distance, self-free, duplicate-free
    /// and within the degree bound — for every strategy.
    #[test]
    fn nd_output_is_well_formed(
        points in arb_points(5..=30, 3),
        max_degree in 1usize..8,
    ) {
        let store = store_of(&points);
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let cands: Vec<Neighbor> = (0..store.len() as u32)
            .map(|i| Neighbor::new(i, gass_core::l2_sq(store.get(0), store.get(i))))
            .collect();
        for nd in [NdStrategy::NoNd, NdStrategy::Rnd,
                   NdStrategy::rrnd_default(), NdStrategy::mond_default()] {
            let kept = nd.diversify(space, 0, &cands, max_degree);
            prop_assert!(kept.len() <= max_degree);
            prop_assert!(kept.iter().all(|n| n.id != 0));
            for w in kept.windows(2) {
                prop_assert!(w[0].dist <= w[1].dist);
                prop_assert!(w[0].id != w[1].id);
            }
        }
    }

    /// Beam search with beam width ≥ n on a connected graph is exact.
    #[test]
    fn full_width_beam_search_is_exact(
        points in arb_points(4..=24, 3),
        qx in -10.0f32..10.0, qy in -10.0f32..10.0, qz in -10.0f32..10.0,
    ) {
        let store = store_of(&points);
        let n = store.len();
        // Ring + chords: trivially connected.
        let mut g = gass_core::AdjacencyGraph::new(n);
        for i in 0..n as u32 {
            g.add_undirected(i, (i + 1) % n as u32);
        }
        let counter = DistCounter::new();
        let space = Space::new(&store, &counter);
        let query = [qx, qy, qz];
        let mut scratch = gass_core::SearchScratch::new(n, n);
        let res = gass_core::beam_search(&g, space, &query, &[0], 3, n, &mut scratch);
        let exact = gass_core::serial_scan(space, &query, 3);
        let got: Vec<u32> = res.neighbors.iter().map(|x| x.id).collect();
        let want: Vec<u32> = exact.iter().map(|x| x.id).collect();
        // Allow tie permutations: compare distances instead of ids.
        for (a, b) in res.neighbors.iter().zip(&exact) {
            prop_assert!((a.dist - b.dist).abs() < 1e-4,
                "got {got:?}, want {want:?}");
        }
    }

    /// EAPCA pairwise lower bound never exceeds the true distance, for any
    /// segmentation.
    #[test]
    fn eapca_lower_bound_valid(
        a in prop::collection::vec(-5.0f32..5.0, 12),
        b in prop::collection::vec(-5.0f32..5.0, 12),
        segments in 1usize..=12,
    ) {
        let sa = gass::trees::summarize(&a, segments);
        let sb = gass::trees::summarize(&b, segments);
        let base = 12 / segments;
        let mut lens = vec![base; segments];
        *lens.last_mut().unwrap() += 12 - base * segments;
        let lb = gass::trees::eapca::lower_bound_pair(&sa, &sb, &lens);
        let exact = gass_core::l2_sq(&a, &b);
        prop_assert!(lb <= exact + 1e-2, "lb {lb} > exact {exact}");
    }

    /// The two priority-queue implementations retain identical top-k sets
    /// for any candidate stream.
    #[test]
    fn queues_agree(
        dists in prop::collection::vec(0.0f32..100.0, 1..80),
        cap in 1usize..16,
    ) {
        let mut buffer = SortedBuffer::new(cap);
        let mut heap = BoundedMaxHeap::new(cap);
        for (i, &d) in dists.iter().enumerate() {
            let nb = Neighbor::new(i as u32, d);
            buffer.insert(nb);
            heap.push(nb);
        }
        let mut from_buffer = buffer.top_k(cap);
        let mut from_heap = heap.into_sorted();
        from_buffer.sort();
        from_heap.sort();
        prop_assert_eq!(from_buffer, from_heap);
    }

    /// Recall of an exact scan is always 1 against its own ground truth.
    #[test]
    fn recall_of_truth_is_one(points in arb_points(6..=30, 4), k in 1usize..5) {
        let store = store_of(&points);
        let truth = gass::data::exact_knn(&store, store.get(0), k.min(store.len()));
        prop_assert_eq!(gass::eval::recall_at_k(&truth, &truth, k), 1.0);
    }

    /// The epoch-versioned visited set behaves exactly like a HashSet
    /// under any interleaving of insert/contains/clear.
    #[test]
    fn visited_set_matches_hashset_model(
        ops in prop::collection::vec((0u8..3, 0u32..64), 1..200),
    ) {
        let mut sut = gass_core::VisitedSet::new(64);
        let mut model = std::collections::HashSet::new();
        for (op, id) in ops {
            match op {
                0 => {
                    let fresh = sut.insert(id);
                    prop_assert_eq!(fresh, model.insert(id));
                }
                1 => prop_assert_eq!(sut.contains(id), model.contains(&id)),
                _ => {
                    sut.clear();
                    model.clear();
                }
            }
        }
    }

    /// Store/graph persistence round-trips bit-exactly for arbitrary
    /// contents.
    #[test]
    fn persistence_roundtrips(points in arb_points(2..=20, 5)) {
        let store = store_of(&points);
        let decoded =
            gass_core::persist::decode_store(gass_core::persist::encode_store(&store))
                .unwrap();
        prop_assert_eq!(decoded.as_flat(), store.as_flat());

        use gass_core::GraphView;
        let mut adj = gass_core::AdjacencyGraph::new(store.len());
        for i in 0..store.len() as u32 {
            adj.add_edge(i, (i + 1) % store.len() as u32);
        }
        let graph = gass_core::FlatGraph::from_adjacency(&adj, None);
        let back = gass_core::persist::decode_flat_graph(
            gass_core::persist::encode_flat_graph(&graph),
        )
        .unwrap();
        for v in 0..graph.num_nodes() as u32 {
            prop_assert_eq!(back.neighbors(v), graph.neighbors(v));
        }
    }

    /// EAPCA summaries are scale-consistent: summarizing a scaled vector
    /// scales means and stds by the same factor.
    #[test]
    fn eapca_summary_is_linear(
        v in prop::collection::vec(-5.0f32..5.0, 8),
        scale in 0.1f32..4.0,
    ) {
        let a = gass::trees::summarize(&v, 4);
        let scaled: Vec<f32> = v.iter().map(|x| x * scale).collect();
        let b = gass::trees::summarize(&scaled, 4);
        for (x, y) in a.features.iter().zip(&b.features) {
            prop_assert!((x * scale - y).abs() < 1e-3, "{x} * {scale} != {y}");
        }
    }
}

/// The `SortedBuffer` every traversal ran on before PR 13, verbatim: a
/// `(Neighbor, bool)` tuple per entry, a linear duplicate scan on insert
/// and a rescan from slot 0 per expansion. Kept only as the oracle of
/// `sorted_buffer_matches_reference_model`.
struct ReferenceBuffer {
    entries: Vec<(Neighbor, bool)>,
    capacity: usize,
}

impl ReferenceBuffer {
    /// Creates an empty buffer that retains at most `capacity` candidates.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "beam width must be positive");
        Self { entries: Vec::with_capacity(capacity + 1), capacity }
    }

    /// Attempts to insert `n`; returns `true` if it was retained (i.e. it
    /// beat the current worst or the buffer had room). Duplicate ids are
    /// rejected.
    fn insert(&mut self, n: Neighbor) -> bool {
        if self.entries.len() == self.capacity && n >= self.entries[self.capacity - 1].0 {
            return false;
        }
        let pos = self.entries.partition_point(|(e, _)| *e < n);
        // Reject exact duplicates (same id) anywhere in the buffer.
        if self.entries.iter().any(|(e, _)| e.id == n.id) {
            return false;
        }
        self.entries.insert(pos, (n, false));
        if self.entries.len() > self.capacity {
            self.entries.pop();
        }
        true
    }

    /// Index of the closest not-yet-expanded entry, if any.
    fn next_unexpanded(&mut self) -> Option<Neighbor> {
        for (n, expanded) in self.entries.iter_mut() {
            if !*expanded {
                *expanded = true;
                return Some(*n);
            }
        }
        None
    }

    /// Current number of retained candidates.
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no candidates are retained.
    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current worst retained distance, or `f32::INFINITY` while the
    /// buffer is not yet full. Used as the beam-search pruning bound.
    fn bound(&self) -> f32 {
        if self.entries.len() < self.capacity {
            f32::INFINITY
        } else {
            self.entries[self.capacity - 1].0.dist
        }
    }

    /// The `k` closest candidates, closest first.
    fn top_k(&self, k: usize) -> Vec<Neighbor> {
        self.entries.iter().take(k).map(|(n, _)| *n).collect()
    }

    /// The `k`-th closest retained candidate (1-indexed), or `None` when
    /// fewer than `k` are retained. `kth(k)` is the current worst of the
    /// would-be result set — the reference distance adaptive termination
    /// policies compare the frontier against.
    fn kth(&self, k: usize) -> Option<Neighbor> {
        if k == 0 || self.entries.len() < k {
            None
        } else {
            Some(self.entries[k - 1].0)
        }
    }

    /// All retained candidates, closest first.
    fn as_neighbors(&self) -> Vec<Neighbor> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }

    /// Clears the buffer, keeping its allocation (workhorse reuse across
    /// queries).
    fn clear(&mut self) {
        self.entries.clear();
    }

    /// Resets the retained-candidate capacity (and clears).
    fn reset(&mut self, capacity: usize) {
        assert!(capacity > 0, "beam width must be positive");
        self.capacity = capacity;
        self.entries.clear();
    }
}

/// A returned distance as comparable bits (the sign of zero and NaN
/// payloads are not part of the ordering contract).
fn dist_bits(dist: f32) -> u32 {
    if dist.is_nan() { f32::NAN } else { dist + 0.0 }.to_bits()
}

fn bits(n: Neighbor) -> (u32, u32) {
    (n.id, dist_bits(n.dist))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model-based: the packed-key buffer and the reference answer every
    /// call identically on random operation streams. A node's distance is a
    /// function of its id (the traversal contract) drawn from a small
    /// palette, so ties, `0.0`, `-0.0`, `+∞` and both NaN signs are all
    /// heavy; ids are re-offered after acceptance, rejection and eviction;
    /// inserts land before, at and after the expansion cursor and after the
    /// pool has been drained. A peek names exactly the id the next pop
    /// returns, and is `None` exactly when that pop is. At least half the
    /// capacities drawn (initial and on reset) are ≤ 32, the pools that take
    /// the vector insert where the CPU has AVX2.
    #[test]
    fn sorted_buffer_matches_reference_model(
        cap in (0u8..2, 1usize..=200)
            .prop_map(|(small, c)| if small == 0 { 1 + c % 32 } else { c }),
        palette in prop::collection::vec(0u8..=255, 300),
        ops in prop::collection::vec((0u8..34, 0u32..300), 1..600),
    ) {
        let dist_of = |id: u32| match palette[id as usize] {
            p if p % 8 == 0 => 0.0,
            p if p % 8 == 1 => -0.0,
            p if p % 8 == 2 => f32::INFINITY,
            p if p % 8 == 3 => f32::NAN,
            // The sign-set quiet NaN x86 produces for `∞ − ∞`.
            p if p % 8 == 4 => -f32::NAN,
            p => f32::from(p / 8) * 0.5,
        };
        let mut cap = cap;
        let mut sut = SortedBuffer::new(cap);
        let mut model = ReferenceBuffer::new(cap);
        for (op, id) in ops {
            match op {
                0..=19 => {
                    let n = Neighbor::new(id, dist_of(id));
                    prop_assert_eq!(sut.insert(n), model.insert(n), "insert {n:?}");
                }
                20..=27 => prop_assert_eq!(
                    sut.next_unexpanded().map(bits),
                    model.next_unexpanded().map(bits)
                ),
                28 => loop {
                    let (got, want) = (sut.next_unexpanded(), model.next_unexpanded());
                    prop_assert_eq!(got.map(bits), want.map(bits));
                    if want.is_none() {
                        break;
                    }
                },
                29 => {
                    sut.clear();
                    model.clear();
                }
                30..=31 => {
                    let peeked = sut.peek_unexpanded();
                    let (got, want) = (sut.next_unexpanded(), model.next_unexpanded());
                    prop_assert_eq!(got.map(bits), want.map(bits));
                    prop_assert_eq!(peeked, got.map(|n| n.id), "peek vs pop");
                }
                _ => {
                    cap = 1 + id as usize % if op == 32 { 32 } else { 200 };
                    sut.reset(cap);
                    model.reset(cap);
                }
            }
            prop_assert_eq!(sut.len(), model.len());
            prop_assert_eq!(sut.is_empty(), model.is_empty());
            prop_assert_eq!(dist_bits(sut.bound()), dist_bits(model.bound()));
            let k = id as usize % (cap + 2);
            prop_assert_eq!(sut.kth(k).map(bits), model.kth(k).map(bits));
            let top = |v: Vec<Neighbor>| v.into_iter().map(bits).collect::<Vec<_>>();
            prop_assert_eq!(top(sut.top_k(k)), top(model.top_k(k)));
            prop_assert_eq!(top(sut.as_neighbors()), top(model.as_neighbors()));
        }
    }
}
