//! Intra-query parallel fan-out: a resident worker pool that runs the
//! `nprobe` per-shard probes of **one** query concurrently.
//!
//! [`crate::par`] covers throughput parallelism — spawn scoped threads,
//! split a batch, join. A single query's probe fan-out is the opposite
//! regime: a handful of ~100µs tasks where thread spawn/join would cost
//! more than the work. [`FanoutPool`] keeps its workers resident and
//! parked on a condvar; submitting a fan-out is one queue push + wake,
//! and the **caller participates in claiming**, so every probe completes
//! even if pool workers are busy elsewhere (no handoff deadlock, and
//! `workers = 1` degenerates to exactly the sequential loop). Work is one
//! index list behind one atomic cursor.
//!
//! Determinism contract (the same one every optimization since PR 1
//! carries): fan-out only reorders *which thread* runs each probe.
//! Per-shard searches are independent and internally deterministic,
//! [`crate::distance::DistCounter`] bumps are shared relaxed atomics
//! whose totals commute, and the caller merges results in ranked-centroid
//! order after the barrier — so neighbors, distance bits, and counter
//! totals are bit-identical to the sequential loop at any worker count.
//!
//! A panicking probe does not wedge the pool: every execution runs under
//! `catch_unwind` and counts towards the barrier either way, and the
//! caller re-raises the first payload once every execution has finished
//! (the rule [`crate::par::par_map_with`] follows).
//!
//! One knob: [`set_fanout_workers`] sets the executor count (`0` = all
//! cores; the default `1` keeps fan-out off unless asked for — per-query
//! parallelism spends the same cores inter-query serving would, so it is
//! an explicit latency-over-throughput choice).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Retired toggle, removed by ROADMAP item 5: `false` sets one worker, `true` keeps the count.
pub fn set_fanout_enabled(on: bool) {
    if !on {
        set_fanout_workers(1);
    }
}

/// Retired NUMA toggle, a no-op; removed by ROADMAP item 5.
pub fn set_numa_enabled(_on: bool) {}

/// Retired NUMA node count, always 1; removed by ROADMAP item 5.
pub fn num_nodes() -> usize {
    1
}

/// Requested executor count: `0` = all cores, else the literal count.
static FANOUT_WORKERS: AtomicUsize = AtomicUsize::new(1);

/// Sets the fan-out executor count: `0` means "all available cores",
/// `1` disables fan-out (the sequential loop), `n > 1` runs probes on
/// `n` executors — the calling thread plus `n - 1` resident pool workers.
pub fn set_fanout_workers(n: usize) {
    FANOUT_WORKERS.store(n, Ordering::Relaxed);
}

/// The executor count a fan-out would use right now, after resolving `0`
/// to the core count. `1` means the sequential loop runs.
pub fn fanout_workers() -> usize {
    crate::par::effective_threads(FANOUT_WORKERS.load(Ordering::Relaxed))
}

/// One submitted fan-out: a lifetime-erased closure plus its work list
/// and the completion barrier. The submitting caller blocks in
/// [`FanoutPool::run`] until `pending` drains, which is what keeps the
/// raw `ctx` pointer valid — the closure (and everything it borrows)
/// outlives every execution.
struct TaskState {
    ctx: *const (),
    run: unsafe fn(*const (), usize),
    indices: Vec<usize>,
    /// Next position of `indices` to claim; claims past the end fail.
    cursor: AtomicUsize,
    /// Executions not yet finished; the last decrement signals `done`.
    pending: AtomicUsize,
    done: Mutex<bool>,
    cv: Condvar,
    /// The first panic payload any execution raised.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: the only non-thread-safe field is `ctx`, which points at a
// `Sync` closure (the bound on `FanoutPool::run`). Workers dereference it
// only inside `execute`, and the submitting caller blocks on the `done`
// barrier until every `execute` has returned, so the closure is alive
// and shared immutably for as long as any thread can reach it.
unsafe impl Send for TaskState {}
// SAFETY: shared references only read `ctx`, inside `execute`, which
// every thread finishes before the `done` barrier releases the caller;
// every other field is `Sync`.
unsafe impl Sync for TaskState {}

impl TaskState {
    /// Claims one not-yet-run index. `None` once exhausted.
    fn claim(&self) -> Option<usize> {
        let c = self.cursor.fetch_add(1, Ordering::Relaxed);
        self.indices.get(c).copied()
    }

    /// Whether every index has been claimed (not necessarily finished).
    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.indices.len()
    }

    /// Runs one claimed index, keeps its panic (if any) for the caller,
    /// and signals the barrier on the last one.
    fn execute(&self, idx: usize) {
        // SAFETY: `idx` was claimed and has not finished, so `pending`
        // has not reached zero and the caller has not passed the `done`
        // barrier in `FanoutPool::run`: `ctx` points at its live `&F`, and
        // `run` is the `call::<F>` built from that same `F`.
        let out = catch_unwind(AssertUnwindSafe(|| unsafe { (self.run)(self.ctx, idx) }));
        if let Err(payload) = out {
            self.panic
                .lock()
                .expect("no code panics holding the payload lock")
                .get_or_insert(payload);
        }
        // AcqRel: release this execution's writes into the counter's RMW
        // chain; the final decrementer acquires them all before signaling.
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().unwrap() = true;
            self.cv.notify_all();
        }
    }
}

struct Queue {
    tasks: VecDeque<Arc<TaskState>>,
    shutdown: bool,
}

struct PoolInner {
    queue: Mutex<Queue>,
    cv: Condvar,
}

/// The resident intra-query fan-out pool — see the module docs. Holds
/// `executors - 1` parked worker threads; the submitting caller is the
/// remaining executor.
pub struct FanoutPool {
    inner: Arc<PoolInner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    executors: usize,
}

impl FanoutPool {
    /// A pool presenting `executors` total executors (clamped to ≥ 1):
    /// the caller plus `executors - 1` resident workers.
    pub fn new(executors: usize) -> Self {
        let executors = executors.max(1);
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(Queue { tasks: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
        });
        let threads = (1..executors)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("gass-fanout-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn fan-out worker")
            })
            .collect();
        Self { inner, threads, executors }
    }

    /// Total executors (caller included).
    pub fn executors(&self) -> usize {
        self.executors
    }

    /// Runs `f(i)` once for every `i` in `indices` and returns after all
    /// executions finish. The caller claims work too, so completion never
    /// waits on pool scheduling. If any execution panics, the others still
    /// run, and the first payload is re-raised here after the barrier.
    pub fn run<F>(&self, indices: Vec<usize>, f: &F)
    where
        F: Fn(usize) + Sync,
    {
        if indices.is_empty() {
            return;
        }
        /// # Safety
        /// `ctx` must come from an `&F` that is alive for the call.
        unsafe fn call<F: Fn(usize)>(ctx: *const (), i: usize) {
            // SAFETY: per the contract above; `TaskState::execute` calls
            // this only while `run` is blocked on the task's barrier.
            unsafe { (*(ctx as *const F))(i) }
        }
        let task = Arc::new(TaskState {
            ctx: f as *const F as *const (),
            run: call::<F>,
            pending: AtomicUsize::new(indices.len()),
            indices,
            cursor: AtomicUsize::new(0),
            done: Mutex::new(false),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.tasks.push_back(Arc::clone(&task));
        }
        self.inner.cv.notify_all();
        while let Some(idx) = task.claim() {
            task.execute(idx);
        }
        let mut done = task.done.lock().unwrap();
        while !*done {
            done = task.cv.wait(done).unwrap();
        }
        drop(done);
        let panicked =
            task.panic.lock().expect("no code panics holding the payload lock").take();
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
    }

    /// [`Self::run`] over the concatenated `lists`, returning per-index
    /// results: slot `i` of the output holds `Some(f(i))` for every `i`
    /// the lists name (`None` for indices `< n` they skip).
    pub fn map<R, F>(&self, lists: Vec<Vec<usize>>, n: usize, f: F) -> Vec<Option<R>>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        const UNPOISONED: &str = "a slot is locked only to store a finished result";
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.run(lists.concat(), &|i| {
            let r = f(i);
            *slots[i].lock().expect(UNPOISONED) = Some(r);
        });
        slots.into_iter().map(|s| s.into_inner().expect(UNPOISONED)).collect()
    }
}

impl Drop for FanoutPool {
    fn drop(&mut self) {
        {
            let mut q = self.inner.queue.lock().unwrap();
            q.shutdown = true;
        }
        self.inner.cv.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let task = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                while q.tasks.front().is_some_and(|t| t.exhausted()) {
                    q.tasks.pop_front();
                }
                if let Some(t) = q.tasks.front() {
                    break Arc::clone(t);
                }
                if q.shutdown {
                    return;
                }
                q = inner.cv.wait(q).unwrap();
            }
        };
        while let Some(idx) = task.claim() {
            task.execute(idx);
        }
    }
}

/// The process-wide pool serving [`crate::sharded::ShardedIndex`]
/// fan-outs, rebuilt whenever the resolved executor count changes (the
/// bench ladder sweeps worker counts in one process). `None` when the
/// resolved count is ≤ 1 — callers run their sequential loop.
pub fn shared_pool() -> Option<Arc<FanoutPool>> {
    static POOL: Mutex<Option<(usize, Arc<FanoutPool>)>> = Mutex::new(None);
    let want = fanout_workers();
    if want <= 1 {
        return None;
    }
    let mut slot = POOL.lock().unwrap();
    match &*slot {
        Some((have, pool)) if *have == want => Some(Arc::clone(pool)),
        _ => {
            // Drop the stale pool (joining its workers) before standing
            // up the resized one.
            *slot = None;
            let pool = Arc::new(FanoutPool::new(want));
            *slot = Some((want, Arc::clone(&pool)));
            Some(pool)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_covers_every_index_once_at_any_width() {
        for executors in [1, 2, 3, 8] {
            let pool = FanoutPool::new(executors);
            let lists = vec![vec![0, 2, 4, 6], vec![1, 3, 5]];
            let out = pool.map(lists, 8, |i| i * i);
            for (i, got) in out.iter().enumerate().take(7) {
                assert_eq!(*got, Some(i * i), "executors={executors}");
            }
            assert_eq!(out[7], None, "index outside the lists stays empty");
        }
    }

    #[test]
    fn caller_completes_work_alone_and_pool_is_reusable() {
        let pool = FanoutPool::new(1); // no pool threads: caller drains all
        for round in 0..3 {
            let hits = AtomicUsize::new(0);
            pool.run((0..50).collect(), &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 50, "round={round}");
        }
        assert_eq!(pool.executors(), 1);
    }

    #[test]
    fn many_submissions_through_one_pool() {
        let pool = FanoutPool::new(4);
        for n in [0usize, 1, 5, 33] {
            let sum = AtomicUsize::new(0);
            pool.run((0..n).collect(), &|i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2, "n={n}");
        }
    }

    /// A probe that panics on a pool worker and one that panics on the
    /// caller both reach the caller, only after every other index ran,
    /// and leave the pool serving. Runs on a helper thread under a time
    /// limit, so a lost barrier fails the test instead of hanging it. Uses
    /// the shared pool where the fan-out width configures one.
    #[test]
    fn a_panicking_probe_propagates_to_the_caller_and_the_pool_survives() {
        use std::time::{Duration, Instant};
        const N: usize = 16;
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let pool = shared_pool().unwrap_or_else(|| Arc::new(FanoutPool::new(2)));
            let caller = std::thread::current().id();
            // Side 0 is the caller, side 1 the pool worker.
            for panicking_side in [1, 0] {
                let ran: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
                let started = [AtomicUsize::new(0), AtomicUsize::new(0)];
                let out = catch_unwind(AssertUnwindSafe(|| {
                    pool.map(vec![(0..N).collect()], N, |i| {
                        let side = usize::from(std::thread::current().id() != caller);
                        let first = started[side].fetch_add(1, Ordering::SeqCst) == 0;
                        // Hold each side's first probe until the other side
                        // has claimed one too, so both sides run work.
                        let t0 = Instant::now();
                        while started[1 - side].load(Ordering::SeqCst) == 0
                            && t0.elapsed() < Duration::from_secs(5)
                        {
                            std::thread::yield_now();
                        }
                        if first && side == panicking_side {
                            panic!("probe {i} fails on side {side}");
                        }
                        ran[i].fetch_add(1, Ordering::SeqCst);
                    })
                }));
                let ran: usize = ran.iter().map(|r| r.load(Ordering::SeqCst)).sum();
                tx.send((out.is_err(), ran)).unwrap();
            }
            let next = pool.map(vec![(0..8).collect()], 8, |i| i + 1);
            tx.send((false, next.into_iter().flatten().sum())).unwrap();
        });
        let limit = Duration::from_secs(10);
        for side in ["worker", "caller"] {
            let (caught, ran) =
                rx.recv_timeout(limit).unwrap_or_else(|_| panic!("a {side}-side panic wedged"));
            assert!(caught, "a {side}-side panic must reach the caller");
            assert_eq!(ran, N - 1, "every other index runs after a {side}-side panic");
        }
        let (_, sum) = rx.recv_timeout(limit).expect("the pool stopped serving");
        assert_eq!(sum, (1..=8).sum::<usize>(), "the same pool answers the next map");
        helper.join().expect("the helper thread finished");
    }

    #[test]
    fn one_knob_resolves_and_gates_the_shared_pool() {
        set_fanout_workers(1);
        assert_eq!(fanout_workers(), 1);
        assert!(shared_pool().is_none(), "one executor means the sequential loop");

        set_fanout_workers(3);
        let a = shared_pool().expect("pool at 3 executors");
        assert_eq!(a.executors(), 3);
        let b = shared_pool().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same count reuses the pool");

        set_fanout_workers(2);
        let c = shared_pool().unwrap();
        assert_eq!(c.executors(), 2, "count change rebuilds the pool");

        set_fanout_enabled(true);
        assert_eq!(fanout_workers(), 2, "the retired toggle's `true` keeps the count");
        set_fanout_enabled(false);
        assert_eq!(fanout_workers(), 1, "the retired toggle's `false` is one worker");
        assert!(shared_pool().is_none());
    }
}
