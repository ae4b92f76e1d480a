//! # gass-graphs
//!
//! The twelve state-of-the-art graph-based vector search methods evaluated
//! in *"Graph-Based Vector Search: An Experimental Evaluation of the
//! State-of-the-Art"* (SIGMOD 2025), all built on the shared substrates of
//! `gass-core`, plus:
//!
//! * [`baseline`] — the paper's instrumented Incremental-Insertion
//!   baseline with pluggable ND and SS (Sections 4.2–4.3);
//! * [`nndescent`] — the Neighborhood-Propagation primitive;
//! * [`hierarchy`] — the stacked-NSW hierarchy (**SN** seed strategy);
//! * [`registry`] — build any method by name with tier-scaled presets.
//!
//! | Module | Method | Paradigms |
//! |---|---|---|
//! | [`kgraph`] | KGraph | NP |
//! | [`ieh`] | IEH (excluded from the paper's evaluation) | NP + LSH seeds |
//! | [`hvs`] | HVS (the paper could not run the official code; ours is faithful-in-spirit) | II + RND + Voronoi-pyramid seeds |
//! | [`nsw`] | NSW | II |
//! | [`efanna`] | EFANNA | NP + KD seeds |
//! | [`hnsw`] | HNSW | II + RND + SN |
//! | [`dpg`] | DPG | NP + MOND |
//! | [`ngt`] | NGT | NP + RND + VP seeds |
//! | [`nsg`] | NSG | NP + RND + MD |
//! | [`sptag`] | SPTAG-KDT / SPTAG-BKT | DC + RND + KD/KM seeds |
//! | [`vamana`] | Vamana | ND (RRND+RND) + MD/KS |
//! | [`ssg`] | SSG | NP + MOND |
//! | [`hcnng`] | HCNNG | DC + KD seeds |
//! | [`elpis`] | ELPIS | DC + II + RND |
//! | [`lshapg`] | LSHAPG | II + RND + LSH seeds |
//!
//! All methods answer queries with the *same* beam search
//! (`gass_core::search::beam_search`, the paper's Algorithm 1) and expose
//! the same [`gass_core::index::AnnIndex`] interface. A method that is a
//! graph plus a seed strategy is only its construction code: its module's
//! `build` returns a [`gass_core::PrebuiltIndex`] holding the graph and a
//! boxed [`gass_core::SeedProvider`] (HNSW with its hierarchy, KGraph,
//! IEH, NSW, EFANNA, DPG, NGT, NSG, SPTAG, Vamana, SSG, HCNNG, HVS with
//! its Voronoi pyramid, and the II baseline). ELPIS is a router over HNSW
//! leaves on [`gass_core::partition::Partitioned`]; LSHAPG carries a
//! sketch gate beyond one graph and one seed provider, so it keeps its own
//! index type.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baseline;
pub mod common;
pub mod dpg;
pub mod efanna;
pub mod elpis;
pub mod hcnng;
pub mod hierarchy;
pub mod hnsw;
pub mod hvs;
pub mod ieh;
pub mod kgraph;
pub mod lshapg;
pub mod ngt;
pub mod nndescent;
pub mod nsg;
pub mod nsw;
pub mod registry;
pub mod sptag;
pub mod ssg;
pub mod vamana;

pub use baseline::IiParams;
pub use common::BuildReport;
pub use dpg::DpgParams;
pub use efanna::EfannaParams;
pub use elpis::{ElpisIndex, ElpisParams};
pub use hcnng::HcnngParams;
pub use hierarchy::Hierarchy;
pub use hnsw::{HnswIndex, HnswParams};
pub use hvs::{HvsParams, VoronoiPyramid};
pub use ieh::IehParams;
pub use kgraph::KGraphParams;
pub use lshapg::{LshapgIndex, LshapgParams};
pub use ngt::NgtParams;
pub use nndescent::KnnGraphState;
pub use nsg::NsgParams;
pub use nsw::NswParams;
pub use registry::{build_method, build_method_with_threads, BuiltMethod, MethodKind};
pub use sptag::{SptagParams, SptagVariant};
pub use ssg::SsgParams;
pub use vamana::VamanaParams;
