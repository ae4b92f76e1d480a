//! `gass-serve` — a concurrent query service over a built GASS index.
//!
//! Turns the repo's offline searcher into a long-lived server:
//! connection handlers admit requests into a bounded striped queue
//! ([`queue::BatchQueue`]), per-core worker executors drain micro-batches
//! and answer each run of equal-params jobs with one batch-search call
//! ([`engine::execute_coalesced`]), and admission control fast-rejects
//! work beyond the configured backlog so overload degrades by shedding
//! load rather than by unbounded queueing latency. The wire format is a
//! length-prefixed binary protocol ([`protocol`]); a blocking
//! [`client::Client`] speaks it for tests and load generation.
//!
//! Micro-batching is observationally invisible: a batch returns
//! bit-identical results to per-request searches, so batching changes
//! throughput and latency, never answers.
//!
//! Zero external dependencies — plain `std` sockets and threads, in
//! keeping with the workspace's offline shims discipline.

pub mod client;
pub mod engine;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::Client;
pub use engine::execute_coalesced;
pub use protocol::{QueryRequest, Request, Response, Status};
pub use queue::{BatchQueue, PushError};
pub use server::{serve, ServeConfig, ServerHandle, StatsSnapshot};
