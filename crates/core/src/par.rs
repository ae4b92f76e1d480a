//! Parallelism substrate shared by every graph method, the data tooling,
//! and the evaluation harness.
//!
//! The paper's experiments run on multi-core machines; ParlayANN
//! (arXiv:2305.04359) shows that batch-parallel construction with
//! prefix-doubling batches reaches order-of-magnitude speedups with no
//! recall loss, and Faiss (arXiv:2401.08281) shows that a *single shared*
//! parallel substrate is what lets many index types scale uniformly. This
//! module is that substrate:
//!
//! * [`par_for`] / [`par_map`] / [`par_map_with`] / [`par_for_each_mut`] —
//!   scoped worker-pool helpers over an index range (or a mutable slice).
//!   `threads <= 1` runs inline on the caller thread, executing exactly the
//!   code a serial loop would, so serial builds stay bit-for-bit
//!   reproducible.
//! * [`par_workers`] — worker-indexed fan-out for dynamic work queues
//!   (query throughput measurement).
//! * [`ConcurrentAdjacency`] — a graph under construction that many
//!   workers may mutate at once, with striped locks over node
//!   neighborhoods, freezable into the ordinary [`AdjacencyGraph`].
//! * [`prefix_doubling_batches`] — the ParlayANN batch schedule for
//!   incremental-insertion methods: batch `i` is searched against the
//!   graph of batches `< i`, so early inserts still see a mostly built
//!   graph.
//!
//! **Nesting.** A *requested* width of `0` ("all cores") resolves to `1`
//! when the call comes from inside a worker one of these helpers spawned:
//! the outer level already occupies the cores, so an inner "all cores"
//! would only oversubscribe them (shard-parallel `quantize(Pq)` → codebook
//! training's own `par_map(0, …)` per shard). An explicit non-zero request
//! is honoured at any depth, and a helper that ran *inline* (width 1) marks
//! nothing, so the work it calls still sees every core.
//!
//! Everything here is plain `std` (scoped threads, mutexes, atomics); the
//! workspace builds offline and carries no threading dependencies.
//!
//! Distance accounting stays exact in all of this: `DistCounter` is a
//! shared relaxed atomic, so clones handed to workers all bump the same
//! total.

use crate::graph::{AdjacencyGraph, GraphView};
use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::sync::Mutex;

thread_local! {
    /// Set for the lifetime of every worker thread this module spawns; see
    /// the module docs on nesting.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Resolves a `threads` knob: `0` means "all available cores", anything
/// else is taken as given.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// [`effective_threads`] as the `par_*` helpers apply it: a requested `0`
/// from inside one of their own workers is `1` (module docs, "Nesting").
fn resolve(requested: usize) -> usize {
    if requested == 0 && IN_WORKER.get() {
        1
    } else {
        effective_threads(requested)
    }
}

/// Spawns `f` on `scope` as a marked worker.
fn spawn_worker<'scope, R: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    f: impl FnOnce() -> R + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, R> {
    scope.spawn(move || {
        IN_WORKER.set(true);
        f()
    })
}

fn shard(n: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk = n.div_ceil(workers.max(1)).max(1);
    (0..workers).map(move |w| {
        let lo = (w * chunk).min(n);
        let hi = ((w + 1) * chunk).min(n);
        lo..hi
    })
}

/// Runs `f` over contiguous shards of `0..n` on up to `threads` workers.
/// With `threads <= 1` (or a trivial range) `f(0..n)` runs inline on the
/// caller's thread — no pool, no reordering, the exact serial behavior.
pub fn par_for<F>(threads: usize, n: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let t = resolve(threads).min(n.max(1));
    if t <= 1 {
        f(0..n);
        return;
    }
    std::thread::scope(|scope| {
        for range in shard(n, t) {
            if range.is_empty() {
                continue;
            }
            let f = &f;
            spawn_worker(scope, move || f(range));
        }
    });
}

/// Runs `f` once on every element of `items`, contiguous chunks on up to
/// `threads` workers — [`par_for`] for state that is mutated in place
/// (the per-shard serving ladder). Inline and in order at width 1.
pub fn par_for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let t = resolve(threads).min(items.len().max(1));
    if t <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let chunk = items.len().div_ceil(t);
    std::thread::scope(|scope| {
        for part in items.chunks_mut(chunk) {
            let f = &f;
            spawn_worker(scope, move || part.iter_mut().for_each(f));
        }
    });
}

/// Order-preserving parallel map over `0..n`: returns
/// `vec![f(0), f(1), ..]` regardless of worker count.
pub fn par_map<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_with(threads, n, || (), |(), i| f(i))
}

/// [`par_map`] with per-worker reusable state (the per-thread
/// `SearchScratch` pool pattern): `init` runs once on each worker, and the
/// state it builds is threaded through that worker's calls to `f`. Outputs
/// are returned in index order.
pub fn par_map_with<S, R, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let t = resolve(threads).min(n.max(1));
    if t <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(t);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(t);
        for range in shard(n, t) {
            if range.is_empty() {
                continue;
            }
            let (init, f) = (&init, &f);
            handles.push(spawn_worker(scope, move || {
                let mut state = init();
                range.map(|i| f(&mut state, i)).collect::<Vec<R>>()
            }));
        }
        for h in handles {
            // Re-raise a worker's own panic (the scope joins the rest first).
            parts.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
    });
    parts.into_iter().flatten().collect()
}

/// Spawns `threads` workers, calling `f(worker_index)` on each. With
/// `threads <= 1`, runs `f(0)` inline. For dynamic work distribution the
/// callers share an atomic cursor; this helper only owns the fan-out.
pub fn par_workers<F>(threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let t = resolve(threads);
    if t <= 1 {
        f(0);
        return;
    }
    std::thread::scope(|scope| {
        for w in 0..t {
            let f = &f;
            spawn_worker(scope, move || f(w));
        }
    });
}

/// The ParlayANN-style batch schedule for incremental-insertion builds:
/// nodes `0..first` form the serial seed prefix, then batch sizes double
/// (`first`, `2*first`, ...) until `n` is covered. Within a batch, members
/// search the graph of all previous batches; doubling keeps the unsearched
/// fraction of the graph bounded, which is what preserves recall.
pub fn prefix_doubling_batches(first: usize, n: usize) -> Vec<Range<usize>> {
    let first = first.max(1);
    let mut out = Vec::new();
    let mut start = first.min(n);
    let mut size = first;
    while start < n {
        let end = (start + size).min(n);
        out.push(start..end);
        start = end;
        size = size.saturating_mul(2);
    }
    out
}

/// [`prefix_doubling_batches`] with every batch capped at `1/frac` of the
/// prefix already built. Pure doubling ends with a final batch holding
/// nearly half the nodes, all blind to each other during their searches;
/// the cap bounds that blindness (and the resulting recall loss) to a
/// constant fraction per batch while still growing batches geometrically.
pub fn bounded_prefix_batches(first: usize, frac: usize, n: usize) -> Vec<Range<usize>> {
    let first = first.max(1);
    let frac = frac.max(1);
    let mut out = Vec::new();
    let mut start = first.min(n);
    while start < n {
        let size = (start / frac).max(first);
        let end = (start + size).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

const STRIPES: usize = 64;

/// A graph under concurrent construction: per-node neighbor lists guarded
/// by striped locks, so workers applying edges contend only when they
/// touch nodes on the same stripe.
///
/// Two access modes, matching the two phases of a batch build:
///
/// * **Search phase** (no writers): the [`GraphView`] impl reads neighbor
///   lists without locking, so `beam_search` runs at full speed over the
///   frozen prefix. Callers must guarantee no concurrent mutation — batch
///   algorithms do, because search and apply phases are separated by the
///   scope join barrier in [`par_for`]/[`par_map`].
/// * **Apply phase** (concurrent writers): all mutation and any read that
///   overlaps mutation goes through [`Self::with`]/[`Self::snapshot`],
///   which take the node's stripe lock.
pub struct ConcurrentAdjacency {
    lists: Vec<UnsafeCell<Vec<u32>>>,
    locks: Vec<Mutex<()>>,
}

// SAFETY: all mutation of `lists` happens inside `with`, which holds the
// stripe mutex for the node; the unlocked GraphView read path is only used
// in phases with no concurrent writers (see type-level docs).
unsafe impl Sync for ConcurrentAdjacency {}

impl ConcurrentAdjacency {
    /// A graph of `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Self::with_degree_hint(n, 0)
    }

    /// A graph of `n` isolated nodes with `degree_hint` slots reserved per
    /// neighbor list.
    pub fn with_degree_hint(n: usize, degree_hint: usize) -> Self {
        let lists = (0..n).map(|_| UnsafeCell::new(Vec::with_capacity(degree_hint))).collect();
        let locks = (0..STRIPES.min(n.max(1))).map(|_| Mutex::new(())).collect();
        Self { lists, locks }
    }

    /// Takes over an already (partially) built serial graph — how the II
    /// methods hand their serial seed prefix to the parallel batches.
    pub fn from_adjacency(g: AdjacencyGraph) -> Self {
        let lists: Vec<UnsafeCell<Vec<u32>>> =
            g.into_lists().into_iter().map(UnsafeCell::new).collect();
        let locks = (0..STRIPES.min(lists.len().max(1))).map(|_| Mutex::new(())).collect();
        Self { lists, locks }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.lists.len()
    }

    fn stripe(&self, node: u32) -> &Mutex<()> {
        &self.locks[node as usize % self.locks.len()]
    }

    /// Runs `f` with exclusive access to `node`'s neighbor list.
    pub fn with<R>(&self, node: u32, f: impl FnOnce(&mut Vec<u32>) -> R) -> R {
        let _guard = self.stripe(node).lock().unwrap();
        // SAFETY: the stripe lock covering `node` is held, and every
        // mutable access path goes through this method.
        f(unsafe { &mut *self.lists[node as usize].get() })
    }

    /// Locked copy of `node`'s neighbor list (safe to call while other
    /// workers mutate).
    pub fn snapshot(&self, node: u32) -> Vec<u32> {
        self.with(node, |list| list.clone())
    }

    /// Adds `from -> to` unless it exists or is a self-loop (the
    /// [`AdjacencyGraph::add_edge`] contract). Returns `true` if added.
    pub fn add_edge(&self, from: u32, to: u32) -> bool {
        if from == to {
            return false;
        }
        self.with(from, |list| {
            if list.contains(&to) {
                false
            } else {
                list.push(to);
                true
            }
        })
    }

    /// Adds both directions. The two stripe locks are taken one at a time,
    /// so no lock ordering issues arise.
    pub fn add_undirected(&self, a: u32, b: u32) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Replaces `node`'s neighbor list wholesale (post-pruning).
    pub fn set_neighbors(&self, node: u32, neighbors: Vec<u32>) {
        debug_assert!(!neighbors.contains(&node), "self-loop in neighbor list");
        self.with(node, |list| *list = neighbors);
    }

    /// Freezes into the ordinary serial graph. Consumes `self`, so every
    /// outstanding borrow (and thus every worker) is provably done.
    pub fn freeze(self) -> AdjacencyGraph {
        AdjacencyGraph::from_lists(self.lists.into_iter().map(UnsafeCell::into_inner).collect())
    }
}

impl GraphView for ConcurrentAdjacency {
    fn num_nodes(&self) -> usize {
        self.lists.len()
    }

    #[inline]
    fn neighbors(&self, node: u32) -> &[u32] {
        // SAFETY: see type-level docs — callers only use the GraphView
        // read path in phases with no concurrent writers.
        unsafe { &*self.lists[node as usize].get() }
    }

    fn heap_bytes(&self) -> usize {
        let lists: usize = (0..self.lists.len() as u32)
            .map(|u| self.with(u, |list| list.capacity() * std::mem::size_of::<u32>()))
            .sum();
        lists + self.lists.capacity() * std::mem::size_of::<UnsafeCell<Vec<u32>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn par_for_covers_every_index_once() {
        for threads in [1, 2, 4, 7] {
            let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
            par_for(threads, hits.len(), |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "threads={threads}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let serial: Vec<usize> = (0..57).map(|i| i * i).collect();
        for threads in [1, 2, 4, 8] {
            assert_eq!(par_map(threads, 57, |i| i * i), serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_with_reuses_worker_state() {
        let inits = AtomicUsize::new(0);
        let out = par_map_with(
            4,
            100,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, i| {
                scratch.push(i);
                scratch.len()
            },
        );
        assert_eq!(out.len(), 100);
        // One init per worker, not per item.
        assert!(inits.load(Ordering::Relaxed) <= 4);
        // Within a worker's shard the reused state grows monotonically.
        assert_eq!(out[0], 1);
    }

    #[test]
    fn par_for_each_mut_visits_every_element_once_in_place() {
        for threads in [1, 2, 4, 9] {
            let mut items: Vec<usize> = (0..7).collect();
            par_for_each_mut(threads, &mut items, |x| *x = *x * 10 + 1);
            assert_eq!(items, [1, 11, 21, 31, 41, 51, 61], "threads={threads}");
        }
        par_for_each_mut(4, &mut Vec::<usize>::new(), |_| unreachable!());
    }

    /// Inside a spawned worker a requested `0` runs inline (same thread id,
    /// every item), an explicit width still spawns, and the caller's own
    /// thread is never marked — neither by spawning nor by an inline run.
    #[test]
    fn nested_zero_runs_inline_and_explicit_widths_still_spawn() {
        let me = || std::thread::current().id();
        let outer = me();
        let seen = par_map(2, 2, |_| {
            let worker = me();
            let inline = par_map(0, 8, |_| me());
            let mut marks = vec![worker; 3];
            par_for_each_mut(0, &mut marks, |m| *m = me());
            let spawned = par_map(2, 2, |_| me());
            // A worker of the explicit inner level is itself marked.
            let innermost = par_map(2, 2, |_| par_map(0, 2, |_| me()) == vec![me(); 2]);
            (worker, inline, marks, spawned, innermost)
        });
        for (worker, inline, marks, spawned, innermost) in seen {
            assert_ne!(worker, outer, "width 2 over 2 items spawns");
            assert_eq!(inline, vec![worker; 8], "requested 0 inside a worker is width 1");
            assert_eq!(marks, vec![worker; 3]);
            assert!(spawned.iter().all(|&id| id != worker), "explicit width is honoured");
            assert_ne!(spawned[0], spawned[1]);
            assert_eq!(innermost, [true, true]);
        }
        assert!(!IN_WORKER.get());
        // Width 1 is inline and marks nothing: the work below it may still
        // fan out (checked through the flag, since this host may have one core).
        assert_eq!(par_map(1, 2, |_| (me(), IN_WORKER.get())), vec![(outer, false); 2]);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_message_after_all_joined() {
        let finished = AtomicUsize::new(0);
        // All three workers are live when item 1 panics.
        let all_started = std::sync::Barrier::new(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(3, 3, |i| {
                all_started.wait();
                if i == 1 {
                    panic!("boom on item {i}");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<String>().unwrap(), "boom on item 1");
        assert_eq!(finished.load(Ordering::SeqCst), 2, "siblings ran to completion first");
    }

    #[test]
    fn par_workers_indexes_are_distinct() {
        let seen: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        par_workers(4, |w| {
            seen[w].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn prefix_doubling_covers_exactly_once() {
        for (first, n) in [(1, 1), (8, 7), (8, 8), (8, 9), (16, 2000), (100, 101)] {
            let batches = prefix_doubling_batches(first, n);
            let mut next = first.min(n);
            for b in &batches {
                assert_eq!(b.start, next, "first={first} n={n}");
                assert!(b.end > b.start);
                next = b.end;
            }
            assert_eq!(next, n, "first={first} n={n}");
            if batches.len() >= 2 {
                assert!(batches[1].len() <= 2 * batches[0].len().max(first));
            }
        }
    }

    #[test]
    fn concurrent_adjacency_matches_serial_semantics() {
        let conc = ConcurrentAdjacency::new(5);
        assert!(!conc.add_edge(0, 0), "self-loop rejected");
        assert!(conc.add_edge(0, 1));
        assert!(!conc.add_edge(0, 1), "duplicate rejected");
        conc.add_undirected(2, 3);
        conc.set_neighbors(4, vec![0, 1]);
        let g = conc.freeze();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.neighbors(4), &[0, 1]);
    }

    #[test]
    fn concurrent_writes_land_from_all_workers() {
        let n = 200usize;
        let conc = ConcurrentAdjacency::with_degree_hint(n, 4);
        // Every worker adds a ring edge set offset by its shard; all edges
        // must survive the contention.
        par_for(4, n, |range| {
            for i in range {
                let u = i as u32;
                conc.add_undirected(u, ((i + 1) % n) as u32);
                conc.add_undirected(u, ((i + 7) % n) as u32);
            }
        });
        let g = conc.freeze();
        for u in 0..n {
            assert!(g.neighbors(u as u32).contains(&(((u + 1) % n) as u32)));
            assert!(g.neighbors(u as u32).contains(&(((u + 7) % n) as u32)));
        }
        assert_eq!(g.num_edges(), n * 4);
    }

    #[test]
    fn from_adjacency_round_trips() {
        let mut g = AdjacencyGraph::new(3);
        g.set_neighbors(0, vec![1, 2]);
        g.set_neighbors(2, vec![0]);
        let conc = ConcurrentAdjacency::from_adjacency(g);
        assert_eq!(conc.snapshot(0), vec![1, 2]);
        conc.add_edge(1, 0);
        let back = conc.freeze();
        assert_eq!(back.neighbors(1), &[0]);
        assert_eq!(back.neighbors(2), &[0]);
    }
}
