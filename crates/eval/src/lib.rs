//! # gass-eval
//!
//! The evaluation harness for the GASS experiments:
//!
//! * [`recall`] — recall@k, beam-width sweeps, cost-to-reach-target
//!   (Figures 5–6, 11–16);
//! * [`complexity`] — LID and LRC dataset-hardness estimators (Figure 4);
//! * [`mem`] — structural and process-level memory accounting
//!   (Figures 8–10);
//! * [`report`] — aligned console tables + TSV records under `results/`;
//! * [`throughput`] — concurrent QPS and latency percentiles.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod complexity;
pub mod mem;
pub mod recall;
pub mod report;
pub mod throughput;

pub use complexity::{dataset_complexity, ComplexityReport};
pub use mem::{current_rss_bytes, footprint, vm_peak_bytes, FootprintReport};
pub use recall::{cost_to_reach, evaluate_at, evaluate_params, recall_at_k, sweep, SweepPoint};
pub use report::{fmt_bytes, fmt_count, Table};
pub use throughput::{measure_throughput, ThroughputReport};
