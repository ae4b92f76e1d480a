//! # gass-trees
//!
//! Tree substrates for graph-based vector search: the auxiliary structures
//! that state-of-the-art methods use for seed selection and for
//! divide-and-conquer partitioning.
//!
//! * [`kdtree`] — randomized K-D trees (EFANNA, SPTAG-KDT, HCNNG; the
//!   paper's **KD** seed strategy);
//! * [`vptree`] — vantage-point trees (NGT's seed structure);
//! * [`tptree`] — trinary-projection partitions (SPTAG's dataset divider);
//! * [`bkt`] — balanced k-means trees (SPTAG-BKT; the **KM** strategy);
//! * [`kmeans`] — Lloyd's and balanced k-means clustering;
//! * [`eapca`] — EAPCA summarization + Hercules tree (ELPIS's partitioner
//!   and lower-bounding pruner);
//! * [`mst`] — minimum spanning trees (HCNNG's per-cluster graphs).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bkt;
pub mod eapca;
pub mod kdtree;
pub mod kmeans;
pub mod mst;
pub mod tptree;
pub mod vptree;

pub use bkt::{BkTree, BktSeeds};
pub use eapca::{summarize, EapcaSummary, HerculesLeaf, HerculesTree};
pub use kdtree::{KdForest, KdTree};
pub use kmeans::{balanced_kmeans, kmeans, Clustering};
pub use mst::{prim_mst, MstEdge};
pub use tptree::TpPartition;
pub use vptree::{VpSeeds, VpTree};
