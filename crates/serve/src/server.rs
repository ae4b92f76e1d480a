//! The long-lived TCP query service.
//!
//! Thread anatomy (all plain `std`; the crate adds no dependencies):
//!
//! * **acceptor** — one thread on a non-blocking listener, spawning a
//!   handler per connection and exiting on shutdown;
//! * **connection handlers** — a reader/writer thread pair per client.
//!   The reader parses frames ([`crate::protocol`]), assigns each a
//!   per-connection sequence number, validates, and enqueues query jobs
//!   into the shared [`BatchQueue`] *without waiting for their replies*,
//!   so one connection can have many requests in flight (pipelining).
//!   Replies land in the connection's [`Outbox`] keyed by sequence
//!   number; the writer thread emits them in request order — clients
//!   match responses to requests positionally — and flushes once per
//!   wakeup, so a completed micro-batch costs one write syscall per
//!   connection, not one per request;
//! * **worker executors** — `workers` threads (one per core by default),
//!   each pinned to its own scratch-pool stripe
//!   ([`gass_core::pin_scratch_home`]), draining micro-batches and
//!   answering each run of equal-params jobs with one batch-search call
//!   ([`crate::engine::execute_coalesced`]).
//!
//! Admission control is the queue's bounded depth: when the backlog hits
//! `queue_depth`, new queries are fast-rejected with an `overloaded`
//! response instead of joining an ever-growing line — open-loop overload
//! then costs rejected requests, not unbounded latency for admitted ones.
//! Each request may carry a deadline; workers answer `DeadlineExceeded`
//! without searching when a job's deadline passed while it queued.

use crate::engine::execute_coalesced;
use crate::protocol::{
    decode_request, encode_response, queue_frame, QueryRequest, Request, Response, Status,
    MAX_FRAME_BYTES,
};
use crate::queue::{BatchQueue, PushError};
use gass_core::distance::DistCounter;
use gass_core::index::{AnnIndex, QueryParams};
use gass_core::stats::Histogram;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server configuration (CLI flags map onto this 1:1).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind host.
    pub host: String,
    /// Bind port (0 = ephemeral; read the bound port off the handle).
    pub port: u16,
    /// Worker executor threads (0 = all cores).
    pub workers: usize,
    /// Micro-batch close size: a batch executes once it holds this many
    /// jobs. `1` turns cross-request batching off *everywhere*: jobs are
    /// dispatched one per wakeup and each reply is written and flushed
    /// individually (request-at-a-time serving); with `max_batch > 1`
    /// the reply path also coalesces — the writer drains every ready
    /// frame per wakeup with a single flush…
    pub max_batch: usize,
    /// …or once this many microseconds passed since its first job,
    /// whichever comes first. Zero = close as soon as the queue empties.
    pub max_wait_us: u64,
    /// Admission bound: jobs queued beyond this are fast-rejected.
    pub queue_depth: usize,
    /// Server-side termination policy applied to every admitted query
    /// (the wire format carries no policy — the operator chooses it).
    /// `None` keeps the policy of each query's params — `Fixed` with no
    /// budget, the [`QueryParams::new`] default, for every wire query.
    pub term: Option<gass_core::Termination>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 0,
            max_batch: 16,
            max_wait_us: 200,
            queue_depth: 1024,
            term: None,
        }
    }
}

/// Per-connection reply mailbox. Every incoming frame reserves the next
/// sequence number ([`Outbox::issue`]); whoever answers it — the reader
/// itself for control frames and rejections, a worker for query results —
/// posts the encoded response frame under that sequence. The connection's
/// writer thread emits posted frames strictly in sequence order, which is
/// what lets pipelined clients match responses to requests positionally
/// even when micro-batches complete out of order across stripes.
struct Outbox {
    inner: Mutex<OutboxInner>,
    bell: Condvar,
}

struct OutboxInner {
    /// Posted but not yet written response frames, keyed by sequence.
    ready: BinaryHeap<Reverse<(u64, Vec<u8>)>>,
    /// Next sequence the writer will emit.
    next_write: u64,
    /// Sequences issued so far; every one is guaranteed a post (workers
    /// drain the queue fully before exiting).
    issued: u64,
    /// The reader stopped issuing (EOF, shutdown, or a read error).
    closed: bool,
}

impl Outbox {
    fn new() -> Self {
        Self {
            inner: Mutex::new(OutboxInner {
                ready: BinaryHeap::new(),
                next_write: 0,
                issued: 0,
                closed: false,
            }),
            bell: Condvar::new(),
        }
    }

    /// Reserves the next sequence number for an incoming frame.
    fn issue(&self) -> u64 {
        let mut g = self.inner.lock().unwrap();
        let seq = g.issued;
        g.issued += 1;
        seq
    }

    /// Posts the response to `seq` without waking the writer; callers
    /// posting a whole batch [`Self::ring`] once at the end.
    fn post_quiet(&self, seq: u64, frame: Vec<u8>) {
        self.inner.lock().unwrap().ready.push(Reverse((seq, frame)));
    }

    /// Posts the response to `seq` and wakes the writer.
    fn post(&self, seq: u64, frame: Vec<u8>) {
        self.post_quiet(seq, frame);
        self.ring();
    }

    /// Wakes the writer thread.
    fn ring(&self) {
        self.bell.notify_one();
    }

    /// Marks the reader done; the writer exits once everything issued has
    /// been posted and written.
    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.bell.notify_one();
    }
}

/// A job's way home: the connection outbox plus the request's sequence.
struct ReplyTo {
    outbox: Arc<Outbox>,
    seq: u64,
}

impl ReplyTo {
    fn post(&self, resp: &Response) {
        self.outbox.post(self.seq, encode_response(resp));
    }

    fn post_quiet(&self, resp: &Response) {
        self.outbox.post_quiet(self.seq, encode_response(resp));
    }
}

/// One admitted query job.
struct Job {
    query: Vec<f32>,
    params: QueryParams,
    received: Instant,
    deadline_us: u32,
    reply: ReplyTo,
}

impl Job {
    fn expired(&self, now: Instant) -> bool {
        self.deadline_us > 0
            && now.duration_since(self.received)
                > Duration::from_micros(self.deadline_us as u64)
    }
}

/// Monotonic serving counters plus the merged latency histogram.
struct StatsInner {
    started: Instant,
    admitted: AtomicU64,
    completed: AtomicU64,
    overloaded: AtomicU64,
    expired: AtomicU64,
    bad_requests: AtomicU64,
    batches: AtomicU64,
    /// `batch_size_counts[s]` = batches that executed with `s` live jobs
    /// (index 0 unused; sized `max_batch + 1`).
    batch_size_counts: Vec<AtomicU64>,
    latency_us: Mutex<Histogram>,
    /// Distance computations per completed query — the observable for
    /// adaptive-termination savings (and the deadline clamp's input).
    dists_per_query: Mutex<Histogram>,
    /// Accumulated wall time spent inside `execute_coalesced` and the
    /// evaluations it performed: their ratio is the live ns-per-distance
    /// estimate the deadline→budget conversion uses.
    search_ns: AtomicU64,
    search_dists: AtomicU64,
    dist_counter: DistCounter,
}

/// A point-in-time copy of the serving statistics.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Queries admitted into the queue.
    pub admitted: u64,
    /// Queries answered with neighbors.
    pub completed: u64,
    /// Queries fast-rejected by admission control.
    pub overloaded: u64,
    /// Queries expired past their deadline while queued.
    pub expired: u64,
    /// Malformed queries (dimension mismatch, zero k).
    pub bad_requests: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Mean live jobs per executed batch.
    pub mean_batch: f64,
    /// `(batch_size, count)` for every observed batch size.
    pub batch_size_counts: Vec<(usize, u64)>,
    /// Completed-query latencies (receipt → reply), microseconds.
    pub lat_count: u64,
    /// Mean latency (µs).
    pub lat_mean_us: f64,
    /// Median latency (µs).
    pub lat_p50_us: u64,
    /// 95th percentile latency (µs).
    pub lat_p95_us: u64,
    /// 99th percentile latency (µs).
    pub lat_p99_us: u64,
    /// Worst latency (µs).
    pub lat_max_us: u64,
    /// Completed queries per second of uptime.
    pub qps: f64,
    /// Total distance computations across all queries.
    pub dist_calcs: u64,
    /// Queries in the distance-computations-per-query histogram.
    pub dists_count: u64,
    /// Mean distance computations per completed query.
    pub dists_mean: f64,
    /// Median distance computations per query.
    pub dists_p50: u64,
    /// 95th percentile distance computations per query.
    pub dists_p95: u64,
    /// 99th percentile distance computations per query.
    pub dists_p99: u64,
    /// Worst distance computations for a single query.
    pub dists_max: u64,
    /// Jobs queued right now.
    pub queue_depth: usize,
}

impl StatsSnapshot {
    /// Renders the snapshot as the stats-endpoint JSON document.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> =
            self.batch_size_counts.iter().map(|(s, c)| format!("[{s},{c}]")).collect();
        format!(
            concat!(
                "{{\"uptime_s\":{:.3},\"qps\":{:.1},",
                "\"admitted\":{},\"completed\":{},\"overloaded\":{},",
                "\"deadline_expired\":{},\"bad_requests\":{},",
                "\"batches\":{},\"mean_batch\":{:.2},\"batch_size_counts\":[{}],",
                "\"latency_us\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},",
                "\"p95\":{},\"p99\":{},\"max\":{}}},",
                "\"dists_per_query\":{{\"count\":{},\"mean\":{:.1},\"p50\":{},",
                "\"p95\":{},\"p99\":{},\"max\":{}}},",
                "\"dist_calcs\":{},\"queue_depth\":{}}}"
            ),
            self.uptime_s,
            self.qps,
            self.admitted,
            self.completed,
            self.overloaded,
            self.expired,
            self.bad_requests,
            self.batches,
            self.mean_batch,
            buckets.join(","),
            self.lat_count,
            self.lat_mean_us,
            self.lat_p50_us,
            self.lat_p95_us,
            self.lat_p99_us,
            self.lat_max_us,
            self.dists_count,
            self.dists_mean,
            self.dists_p50,
            self.dists_p95,
            self.dists_p99,
            self.dists_max,
            self.dist_calcs,
            self.queue_depth,
        )
    }
}

impl StatsInner {
    fn new(max_batch: usize) -> Self {
        Self {
            started: Instant::now(),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_size_counts: (0..=max_batch.max(1)).map(|_| AtomicU64::new(0)).collect(),
            latency_us: Mutex::new(Histogram::new()),
            dists_per_query: Mutex::new(Histogram::new()),
            search_ns: AtomicU64::new(0),
            search_dists: AtomicU64::new(0),
            dist_counter: DistCounter::new(),
        }
    }

    fn snapshot(&self, queue_depth: usize) -> StatsSnapshot {
        let uptime_s = self.started.elapsed().as_secs_f64().max(1e-9);
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let batch_size_counts: Vec<(usize, u64)> = self
            .batch_size_counts
            .iter()
            .enumerate()
            .filter_map(|(s, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then_some((s, c))
            })
            .collect();
        let weighted: u64 = batch_size_counts.iter().map(|(s, c)| *s as u64 * c).sum();
        let lat = self.latency_us.lock().unwrap();
        let dists = self.dists_per_query.lock().unwrap();
        StatsSnapshot {
            uptime_s,
            admitted: self.admitted.load(Ordering::Relaxed),
            completed,
            overloaded: self.overloaded.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            batches,
            mean_batch: weighted as f64 / batches.max(1) as f64,
            batch_size_counts,
            lat_count: lat.count(),
            lat_mean_us: lat.mean(),
            lat_p50_us: lat.quantile(0.50),
            lat_p95_us: lat.quantile(0.95),
            lat_p99_us: lat.quantile(0.99),
            lat_max_us: lat.max(),
            qps: completed as f64 / uptime_s,
            dist_calcs: self.dist_counter.get(),
            dists_count: dists.count(),
            dists_mean: dists.mean(),
            dists_p50: dists.quantile(0.50),
            dists_p95: dists.quantile(0.95),
            dists_p99: dists.quantile(0.99),
            dists_max: dists.max(),
            queue_depth,
        }
    }
}

/// Handle to a running server: bound address, stats access, shutdown.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    queue: Arc<BatchQueue<Job>>,
    stats: Arc<StatsInner>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves an ephemeral `port: 0`).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Point-in-time serving statistics (also served over the wire as
    /// JSON via a `Stats` request).
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot(self.queue.depth())
    }

    /// Initiates shutdown: stop accepting, refuse new queries, let
    /// workers drain the backlog. Idempotent; does not block.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.queue.close();
    }

    /// `true` once [`Self::shutdown`] was requested (locally or over the
    /// wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Blocks until the acceptor and all workers exited. Call
    /// [`Self::shutdown`] first (or send a `Shutdown` frame).
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }
}

/// Starts serving `index` per `cfg`. Returns once the listener is bound;
/// serving continues on background threads until shutdown.
pub fn serve(index: Arc<dyn AnnIndex>, cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let workers = gass_core::effective_threads(cfg.workers);
    // One queue stripe per worker mirrors the scratch-pool striping; the
    // producer side round-robins across stripes.
    let queue = Arc::new(BatchQueue::new(cfg.queue_depth, workers));
    let stats = Arc::new(StatsInner::new(cfg.max_batch));
    let shutdown = Arc::new(AtomicBool::new(false));

    let mut worker_handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let queue = Arc::clone(&queue);
        let stats = Arc::clone(&stats);
        let index = Arc::clone(&index);
        let max_batch = cfg.max_batch;
        let max_wait = Duration::from_micros(cfg.max_wait_us);
        worker_handles.push(
            std::thread::Builder::new()
                .name(format!("gass-serve-worker-{w}"))
                .spawn(move || worker_loop(w, &index, &queue, &stats, max_batch, max_wait))?,
        );
    }

    let acceptor = {
        let queue = Arc::clone(&queue);
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        let index = Arc::clone(&index);
        // max_batch = 1 is the per-request configuration: no
        // cross-request coalescing on the reply path either.
        let coalesce = cfg.max_batch > 1;
        let term = cfg.term;
        std::thread::Builder::new().name("gass-serve-acceptor".to_string()).spawn(
            move || {
                let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while !shutdown.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let queue = Arc::clone(&queue);
                            let stats = Arc::clone(&stats);
                            let shutdown = Arc::clone(&shutdown);
                            let index = Arc::clone(&index);
                            handlers.retain(|h| !h.is_finished());
                            handlers.push(std::thread::spawn(move || {
                                let _ = handle_connection(
                                    stream, &index, &queue, &stats, &shutdown, coalesce, term,
                                );
                            }));
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for h in handlers {
                    let _ = h.join();
                }
            },
        )?
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        queue,
        stats,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

/// Floor for deadline-derived compute budgets: enough evaluations to
/// seed and take a few hops, so even a nearly expired query returns
/// *something* ranked rather than noise.
const MIN_DEADLINE_DISTS: usize = 64;

/// Worker executor: drain → expire → budget → coalesce → reply → account.
fn worker_loop(
    w: usize,
    index: &Arc<dyn AnnIndex>,
    queue: &BatchQueue<Job>,
    stats: &StatsInner,
    max_batch: usize,
    max_wait: Duration,
) {
    // Distinct stripes guaranteed: the index's ScratchPool is striped at
    // least 8 ways and `hash` collisions are replaced by the worker id.
    gass_core::pin_scratch_home(w);
    let mut batch: Vec<Job> = Vec::with_capacity(max_batch);
    let mut live: Vec<Job> = Vec::with_capacity(max_batch);
    let mut queries: Vec<(Vec<f32>, QueryParams)> = Vec::with_capacity(max_batch);
    let mut ringers: Vec<Arc<Outbox>> = Vec::with_capacity(8);
    while queue.pop_batch(w, max_batch, max_wait, &mut batch) {
        let now = Instant::now();
        live.clear();
        for job in batch.drain(..) {
            if job.expired(now) {
                stats.expired.fetch_add(1, Ordering::Relaxed);
                job.reply.post(&Response::Rejected {
                    status: Status::DeadlineExceeded,
                    detail: "deadline passed while queued".to_string(),
                });
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        // Deadline → budget: a job admitted with most of its deadline
        // already spent queueing gets a `max_dists` cap sized from the
        // measured ns-per-distance, so it returns its best partial answer
        // inside the deadline instead of blowing through it (the queue
        // already rejected the fully expired; this rescues the almost
        // expired). Healthy jobs — budget comfortably above the mean
        // per-query work — are left untouched so batch grouping and
        // results stay exactly as configured.
        let hist_ns = stats.search_ns.load(Ordering::Relaxed);
        let hist_dists = stats.search_dists.load(Ordering::Relaxed);
        if hist_ns > 0 && hist_dists > 0 {
            let ns_per_dist = (hist_ns as f64 / hist_dists as f64).max(1e-3);
            let mean_dists = hist_dists / stats.completed.load(Ordering::Relaxed).max(1);
            for job in &mut live {
                if job.deadline_us == 0 {
                    continue;
                }
                let spent_ns = now.duration_since(job.received).as_nanos() as u64;
                let left_ns = (job.deadline_us as u64 * 1_000).saturating_sub(spent_ns);
                let budget = ((left_ns as f64 / ns_per_dist) as usize).max(MIN_DEADLINE_DISTS);
                if (budget as u64) < mean_dists.saturating_mul(2) {
                    job.params.max_dists = match job.params.max_dists {
                        0 => budget,
                        d => d.min(budget),
                    };
                }
            }
        }
        queries.clear();
        for job in &mut live {
            queries.push((std::mem::take(&mut job.query), job.params));
        }
        let exec_start = Instant::now();
        let results = execute_coalesced(index.as_ref(), &queries, &stats.dist_counter);
        stats.batches.fetch_add(1, Ordering::Relaxed);
        let size_slot = live.len().min(stats.batch_size_counts.len() - 1);
        stats.batch_size_counts[size_slot].fetch_add(1, Ordering::Relaxed);
        let done = Instant::now();
        let batch_dists: u64 = results.iter().map(|r| r.stats.evaluated as u64).sum();
        stats
            .search_ns
            .fetch_add(done.duration_since(exec_start).as_nanos() as u64, Ordering::Relaxed);
        stats.search_dists.fetch_add(batch_dists, Ordering::Relaxed);
        {
            // One lock per batch, not per reply.
            let mut lat = stats.latency_us.lock().unwrap();
            for job in &live {
                lat.record(done.duration_since(job.received).as_micros() as u64);
            }
        }
        {
            let mut dists = stats.dists_per_query.lock().unwrap();
            for res in &results {
                dists.record(res.stats.evaluated as u64);
            }
        }
        stats.completed.fetch_add(live.len() as u64, Ordering::Relaxed);
        // Post the whole batch quietly, then ring each connection's writer
        // once: the writer drains every ready reply in one wakeup and one
        // flush, which is where batching amortizes the reply-path
        // syscalls (one per connection per batch instead of one per job).
        ringers.clear();
        for (job, res) in live.drain(..).zip(results) {
            let ns = res.neighbors.iter().map(|n| (n.id, n.dist)).collect();
            job.reply.post_quiet(&Response::Neighbors(ns));
            if !ringers.iter().any(|o| Arc::ptr_eq(o, &job.reply.outbox)) {
                ringers.push(Arc::clone(&job.reply.outbox));
            }
        }
        for outbox in &ringers {
            outbox.ring();
        }
    }
}

/// The connection reader: assigns sequence numbers, answers control
/// frames, enqueues queries without waiting on them, and tears the
/// reader/writer pair down on EOF or shutdown.
#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    index: &Arc<dyn AnnIndex>,
    queue: &BatchQueue<Job>,
    stats: &StatsInner,
    shutdown: &AtomicBool,
    coalesce: bool,
    term: Option<gass_core::Termination>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    // A peer that stops draining its socket for this long is treated as
    // gone; the writer goes dead instead of wedging shutdown forever.
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut reader = stream.try_clone()?;
    let outbox = Arc::new(Outbox::new());
    let writer = {
        let outbox = Arc::clone(&outbox);
        std::thread::Builder::new()
            .name("gass-serve-writer".to_string())
            .spawn(move || writer_loop(stream, &outbox, coalesce))?
    };
    let mut result = Ok(());
    loop {
        let payload = match read_frame_interruptible(&mut reader, shutdown) {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(e) => {
                result = Err(e);
                break;
            }
        };
        let seq = outbox.issue();
        match decode_request(&payload) {
            Err(e) => {
                stats.bad_requests.fetch_add(1, Ordering::Relaxed);
                outbox.post(
                    seq,
                    encode_response(&Response::Rejected {
                        status: Status::BadRequest,
                        detail: e.to_string(),
                    }),
                );
            }
            Ok(Request::Ping) => outbox.post(seq, encode_response(&Response::Pong)),
            Ok(Request::Stats) => outbox.post(
                seq,
                encode_response(&Response::Stats(stats.snapshot(queue.depth()).to_json())),
            ),
            Ok(Request::Shutdown) => {
                shutdown.store(true, Ordering::Release);
                queue.close();
                outbox.post(seq, encode_response(&Response::ShutdownAck));
                break;
            }
            Ok(Request::Query(q)) => {
                let reply = ReplyTo { outbox: Arc::clone(&outbox), seq };
                enqueue_query(q, reply, index, queue, stats, term);
            }
        }
    }
    // In-flight jobs still reach the outbox (workers drain the queue
    // before exiting); the writer finishes writing them, then exits.
    outbox.close();
    let _ = writer.join();
    result
}

/// Validates and enqueues one query; rejections are posted immediately.
fn enqueue_query(
    q: QueryRequest,
    reply: ReplyTo,
    index: &Arc<dyn AnnIndex>,
    queue: &BatchQueue<Job>,
    stats: &StatsInner,
    term: Option<gass_core::Termination>,
) {
    // Input from outside the process is checked where it enters: the
    // codecs' query preparation requires finite components.
    let rejection = if q.query.len() != index.dim() {
        Some(format!("query dim {} != index dim {}", q.query.len(), index.dim()))
    } else if q.k == 0 {
        Some("k must be at least 1".to_string())
    } else if !q.query.iter().all(|x| x.is_finite()) {
        Some("query has a non-finite component".to_string())
    } else {
        None
    };
    if let Some(detail) = rejection {
        stats.bad_requests.fetch_add(1, Ordering::Relaxed);
        reply.post(&Response::Rejected { status: Status::BadRequest, detail });
        return;
    }
    let mut params = QueryParams::new(q.k, q.beam_width.max(q.k))
        .with_seed_count(q.seed_count.max(1))
        .with_rerank_factor(q.rerank_factor.max(1));
    if let Some(t) = term {
        params = params.with_term(t.policy).with_max_dists(t.max_dists);
    }
    let job = Job {
        query: q.query,
        params,
        received: Instant::now(),
        deadline_us: q.deadline_us,
        reply,
    };
    match queue.push(job) {
        Err((PushError::Overloaded, job)) => {
            stats.overloaded.fetch_add(1, Ordering::Relaxed);
            job.reply.post(&Response::Rejected {
                status: Status::Overloaded,
                detail: format!("queue full ({} jobs)", queue.capacity()),
            });
        }
        Err((PushError::Closed, job)) => {
            job.reply.post(&Response::Rejected {
                status: Status::ShuttingDown,
                detail: "server is draining".to_string(),
            });
        }
        Ok(()) => {
            stats.admitted.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The connection writer: emits posted response frames in sequence order.
/// With `coalesce` (micro-batching on) it drains everything ready per
/// wakeup and flushes once per drain — the reply-path side of
/// cross-request batching. Without it (`max_batch = 1`) every reply is
/// its own write and flush, the way a request-at-a-time server answers.
/// On a write error (or timeout — the peer stopped draining) it goes
/// dead: frames are still consumed so the sequence bookkeeping completes,
/// but nothing more is written.
fn writer_loop(stream: TcpStream, outbox: &Outbox, coalesce: bool) {
    let mut w = BufWriter::new(stream);
    let mut dead = false;
    let mut frames: Vec<Vec<u8>> = Vec::new();
    loop {
        {
            let mut g = outbox.inner.lock().unwrap();
            loop {
                while g.ready.peek().is_some_and(|Reverse((seq, _))| *seq == g.next_write) {
                    let Reverse((_, frame)) = g.ready.pop().unwrap();
                    g.next_write += 1;
                    frames.push(frame);
                }
                if !frames.is_empty() {
                    break;
                }
                if g.closed && g.next_write == g.issued {
                    return;
                }
                g = outbox.bell.wait(g).unwrap();
            }
        }
        if !dead {
            for frame in &frames {
                let res = if coalesce {
                    queue_frame(&mut w, frame)
                } else {
                    queue_frame(&mut w, frame).and_then(|()| w.flush())
                };
                if res.is_err() {
                    dead = true;
                    break;
                }
            }
            if coalesce && !dead && w.flush().is_err() {
                dead = true;
            }
        }
        frames.clear();
    }
}

/// [`crate::protocol::read_frame`] against a read-timeout socket: partial
/// reads are accumulated (a timeout mid-frame never desyncs the framing),
/// and the shutdown flag is polled between reads so handler threads exit
/// promptly on drain.
fn read_frame_interruptible(
    r: &mut impl Read,
    stop: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut buf: Vec<u8> = Vec::with_capacity(4);
    let mut need = 4usize;
    let mut have_len = false;
    let mut tmp = [0u8; 4096];
    loop {
        if buf.len() == need {
            if have_len {
                return Ok(Some(buf.split_off(4)));
            }
            let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} cap"),
                ));
            }
            need = 4 + len;
            have_len = true;
            continue;
        }
        let want = (need - buf.len()).min(tmp.len());
        match r.read(&mut tmp[..want]) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
