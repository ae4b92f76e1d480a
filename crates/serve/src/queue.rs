//! The micro-batching admission queue: a bounded MPSC with striped
//! mutexes (the `gass_core::par` striping discipline applied to a queue)
//! feeding batch-draining consumers.
//!
//! Producers are connection-handler threads pushing one job per request;
//! consumers are the per-core worker executors, each draining up to
//! `max_batch` jobs per wakeup. Striping keeps producers from serializing
//! on one mutex under heavy arrival rates, and batch draining means a
//! consumer takes each stripe lock once per *batch*, not once per job —
//! that amortization is where cross-request batching wins its throughput
//! (see `ext_serve`).
//!
//! Admission control is a single atomic depth counter checked before the
//! stripe push: when the queue holds `capacity` jobs the push is refused
//! and the caller fast-rejects the request (`overloaded`) instead of
//! letting the backlog — and every admitted request's latency — grow
//! without bound.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; shed this request.
    Overloaded,
    /// [`BatchQueue::close`] was called; the server is draining.
    Closed,
}

/// Bounded, striped, batch-draining MPSC queue.
pub struct BatchQueue<T> {
    stripes: Vec<Mutex<VecDeque<T>>>,
    /// Jobs currently queued (admission bound); incremented before the
    /// stripe push, decremented after a pop.
    depth: AtomicUsize,
    capacity: usize,
    /// Round-robin producer cursor, so bursts from one connection still
    /// spread across stripes.
    next_stripe: AtomicUsize,
    closed: AtomicBool,
    /// Consumers between announcing a sleep and waking from it (see
    /// [`Self::pop_batch`]); a push rings `bell` only when this is nonzero.
    sleepers: AtomicUsize,
    /// Sleeping consumers wait here; producers notify on push.
    gate: Mutex<()>,
    bell: Condvar,
    /// Tests widen the gap between a consumer's last look at the queue and
    /// its wait by this much, so a push can land inside it.
    #[cfg(test)]
    check_to_wait: Duration,
    /// Tests stretch the sleeping consumer's timed wait to this, so a pop
    /// that the `WAIT_TICK` backstop would end shows as a long wait.
    #[cfg(test)]
    wait_tick: Duration,
}

/// A sleeping consumer's timed wait: a backstop only, every push and
/// `close` that a sleeper must see wakes it.
const WAIT_TICK: Duration = Duration::from_millis(5);

impl<T> BatchQueue<T> {
    /// A queue admitting at most `capacity` jobs, striped `stripes` ways
    /// (both floored at 1).
    pub fn new(capacity: usize, stripes: usize) -> Self {
        Self {
            stripes: (0..stripes.max(1)).map(|_| Mutex::new(VecDeque::new())).collect(),
            depth: AtomicUsize::new(0),
            capacity: capacity.max(1),
            next_stripe: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            gate: Mutex::new(()),
            bell: Condvar::new(),
            #[cfg(test)]
            check_to_wait: Duration::ZERO,
            #[cfg(test)]
            wait_tick: WAIT_TICK,
        }
    }

    /// Jobs currently queued.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` once [`Self::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Enqueues a job, or refuses it when the queue is full (admission
    /// control) or closed (shutdown). The item is handed back in the
    /// error so the caller can answer the request without cloning.
    pub fn push(&self, item: T) -> Result<(), (PushError, T)> {
        if self.is_closed() {
            return Err((PushError::Closed, item));
        }
        // Reserve a depth slot first: concurrent producers may transiently
        // overshoot `capacity` by the number of racing pushes, but each
        // loser gives its slot back immediately, so the bound holds.
        // SeqCst: pairs with the consumer's `sleepers` increment and depth
        // load in `pop_batch` (see there).
        if self.depth.fetch_add(1, Ordering::SeqCst) >= self.capacity {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            return Err((PushError::Overloaded, item));
        }
        let s = self.next_stripe.fetch_add(1, Ordering::Relaxed) % self.stripes.len();
        self.stripes[s].lock().unwrap().push_back(item);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.ring(false);
        }
        Ok(())
    }

    /// Wakes one sleeping consumer (`all`: every one). Taking `gate` first
    /// means a consumer that announced itself in `sleepers` is either
    /// already waiting on `bell` or has not yet re-checked the queue under
    /// `gate`, so the notify cannot fall between its check and its wait.
    fn ring(&self, all: bool) {
        // `gate` guards no data, so a poisoned lock is still a good fence.
        drop(self.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner));
        if all {
            self.bell.notify_all();
        } else {
            self.bell.notify_one();
        }
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// and consumers drain what remains before [`Self::pop_batch`]
    /// returns `false`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.ring(true);
    }

    /// Pops up to `budget` jobs starting from the consumer's `home`
    /// stripe. Returns how many were appended to `out`.
    fn drain_into(&self, home: usize, budget: usize, out: &mut Vec<T>) -> usize {
        let stripes = self.stripes.len();
        let mut got = 0;
        for off in 0..stripes {
            if got >= budget {
                break;
            }
            let mut q = self.stripes[(home + off) % stripes].lock().unwrap();
            while got < budget {
                match q.pop_front() {
                    Some(item) => {
                        out.push(item);
                        got += 1;
                    }
                    None => break,
                }
            }
        }
        if got > 0 {
            self.depth.fetch_sub(got, Ordering::AcqRel);
        }
        got
    }

    /// The consumer loop body: blocks until at least one job is
    /// available, then keeps the batch open — draining arrivals — until
    /// it holds `max_batch` jobs or `max_wait` has elapsed since the
    /// first job was taken, whichever comes first (`max_wait` zero closes
    /// the batch as soon as the queue goes momentarily empty).
    ///
    /// Appends into `out` (cleared first) and returns `true`, or returns
    /// `false` once the queue is closed *and* fully drained — the
    /// consumer's signal to exit.
    pub fn pop_batch(
        &self,
        home: usize,
        max_batch: usize,
        max_wait: Duration,
        out: &mut Vec<T>,
    ) -> bool {
        let max_batch = max_batch.max(1);
        out.clear();

        // Phase 1: block for the first job.
        loop {
            if self.drain_into(home, max_batch, out) > 0 {
                break;
            }
            if self.is_closed() {
                // One final sweep: a push may have landed between the
                // drain above and the closed check.
                if self.drain_into(home, max_batch, out) > 0 {
                    break;
                }
                return false;
            }
            // Announce the sleep, then re-check the queue. A push increments
            // `depth` before it loads `sleepers`, both SeqCst, so either it
            // sees this sleeper and rings (under `gate`, hence after the
            // wait below has begun) or this load sees its job.
            let guard = self.gate.lock().unwrap();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if self.depth.load(Ordering::SeqCst) == 0 && !self.is_closed() {
                #[cfg(test)]
                std::thread::sleep(self.check_to_wait);
                #[cfg(test)]
                let tick = self.wait_tick;
                #[cfg(not(test))]
                let tick = WAIT_TICK;
                let _ = self.bell.wait_timeout(guard, tick).unwrap();
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }

        // Phase 2: hold the batch open for stragglers. Sleep in fixed
        // ticks rather than waking per push: the point of the window is
        // to pay one consumer wakeup for many arrivals, so the consumer
        // re-drains a few times per window instead of once per job.
        if out.len() >= max_batch || max_wait.is_zero() {
            return true;
        }
        let tick = (max_wait / 4).max(Duration::from_micros(50));
        let batch_deadline = Instant::now() + max_wait;
        loop {
            self.drain_into(home, max_batch - out.len(), out);
            if out.len() >= max_batch || self.is_closed() {
                return true;
            }
            let now = Instant::now();
            if now >= batch_deadline {
                return true;
            }
            std::thread::sleep(tick.min(batch_deadline - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_preserves_jobs() {
        let q = BatchQueue::new(16, 4);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        assert_eq!(q.depth(), 10);
        let mut out = Vec::new();
        assert!(q.pop_batch(0, 32, Duration::ZERO, &mut out));
        out.sort_unstable();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn admission_bound_sheds_excess() {
        let q = BatchQueue::new(4, 2);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        match q.push(99) {
            Err((PushError::Overloaded, item)) => assert_eq!(item, 99),
            other => panic!("expected overload, got {other:?}"),
        }
        // Draining frees capacity again.
        let mut out = Vec::new();
        q.pop_batch(0, 2, Duration::ZERO, &mut out);
        assert_eq!(out.len(), 2);
        q.push(99).unwrap();
    }

    #[test]
    fn batch_respects_max_batch() {
        let q = BatchQueue::new(64, 4);
        for i in 0..20 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(1, 8, Duration::ZERO, &mut out));
        assert_eq!(out.len(), 8);
        assert_eq!(q.depth(), 12);
    }

    #[test]
    fn closed_and_drained_returns_false() {
        let q: BatchQueue<u32> = BatchQueue::new(8, 2);
        q.push(7).unwrap();
        q.close();
        assert!(matches!(q.push(8), Err((PushError::Closed, 8))));
        let mut out = Vec::new();
        assert!(q.pop_batch(0, 4, Duration::ZERO, &mut out), "drain the backlog");
        assert_eq!(out, vec![7]);
        assert!(!q.pop_batch(0, 4, Duration::ZERO, &mut out), "then exit");
    }

    #[test]
    fn batch_window_coalesces_late_arrivals() {
        let q = Arc::new(BatchQueue::new(64, 4));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(2));
                for i in 1..5 {
                    q.push(i).unwrap();
                }
            })
        };
        let mut out = Vec::new();
        // A generous window: the consumer must pick up the late pushes
        // into the same batch instead of closing at size 1.
        assert!(q.pop_batch(0, 5, Duration::from_millis(500), &mut out));
        producer.join().unwrap();
        assert_eq!(out.len(), 5, "late arrivals coalesced: {out:?}");
    }

    #[test]
    fn a_push_racing_a_sleeping_consumer_always_wakes_it() {
        // Each round the consumer blocks on an empty queue while the
        // producer pushes after a spin of 0..100 µs, so pushes land before,
        // inside and after the consumer's widened check-to-wait gap. A lost
        // wakeup leaves the job queued until the timed-wait backstop, here
        // stretched to 10 s: far beyond any scheduler delay, so a slow pop
        // means a missed ring, never a descheduled consumer.
        const ROUNDS: u32 = 500;
        const TICK: Duration = Duration::from_secs(10);
        let mut q = BatchQueue::new(4, 1);
        q.check_to_wait = Duration::from_micros(50);
        q.wait_tick = TICK;
        let q = Arc::new(q);
        let go = Arc::new(std::sync::Barrier::new(2));
        // Set by the consumer after its first slow pop: both sides stop at
        // the next barrier instead of sitting out a backstop every round.
        let lost = Arc::new(AtomicBool::new(false));
        let consumer = {
            let (q, go, lost) = (Arc::clone(&q), Arc::clone(&go), Arc::clone(&lost));
            std::thread::spawn(move || {
                let (mut out, mut worst) = (Vec::new(), Duration::ZERO);
                for round in 0..ROUNDS {
                    go.wait();
                    if lost.load(Ordering::SeqCst) {
                        break;
                    }
                    let t = Instant::now();
                    assert!(q.pop_batch(0, 1, Duration::ZERO, &mut out));
                    worst = worst.max(t.elapsed());
                    assert_eq!(out, [round]);
                    lost.store(worst >= TICK / 2, Ordering::SeqCst);
                }
                worst
            })
        };
        for round in 0..ROUNDS {
            go.wait();
            if lost.load(Ordering::SeqCst) {
                break;
            }
            let spin = Instant::now();
            while spin.elapsed() < Duration::from_micros(u64::from(round % 50) * 2) {}
            q.push(round).unwrap();
        }
        let worst = consumer.join().unwrap();
        assert!(worst < TICK / 2, "a pop waited {worst:?}: a push did not wake its sleeper");
    }

    #[test]
    fn concurrent_producers_and_consumers_lose_nothing() {
        let q = Arc::new(BatchQueue::new(1 << 20, 8));
        let n_producers = 4;
        let per = 5_000u32;
        let mut handles = Vec::new();
        for p in 0..n_producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.push(p * per + i).unwrap();
                }
            }));
        }
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let mut consumers = Vec::new();
        for w in 0..3 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            consumers.push(std::thread::spawn(move || {
                let mut batch = Vec::new();
                while q.pop_batch(w, 16, Duration::ZERO, &mut batch) {
                    consumed.lock().unwrap().extend_from_slice(&batch);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        let mut got = consumed.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got.len(), (n_producers * per) as usize);
        assert_eq!(got, (0..n_producers * per).collect::<Vec<_>>());
    }
}
