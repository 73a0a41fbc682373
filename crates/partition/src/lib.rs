//! # hopi-partition — partitioning the document-level graph
//!
//! HOPI's divide-and-conquer construction first splits the collection into
//! partitions whose transitive closures fit in memory (paper §3.3), computes
//! a 2-hop cover per partition, and joins the covers. This crate provides:
//!
//! * [`partitioning::Partitioning`] — partitions, the partition map
//!   `part : D → {P_1..P_m}`, and the cross-partition link set `L_P`.
//! * [`tc_partitioner`] — the new partitioner of paper §4.3: grows a
//!   partition while *incrementally maintaining its transitive closure*, and
//!   closes the partition when the closure reaches the memory budget (the
//!   `Nx` configurations of Table 2).
//! * [`edge_weights`] — the link-count default and the new `A·D` / `A+D`
//!   connection-count weights computed on the skeleton graph (paper §4.3).
//! * [`skeleton`] — the skeleton graph `S(X)` (Definition 2) with
//!   ancestor/descendant annotations and the bounded-BFS approximation of
//!   per-link-endpoint ancestor/descendant counts.
//! * [`psg`] — the partition-level skeleton graph `S(P)` (Definition 1)
//!   that the structurally recursive cover join of paper §4.1 operates on.
//! * [`pipeline`] — the build itself: a partitioner, the merged
//!   per-partition covers ([`build_partition_covers`]), then the PSG join
//!   ([`psg_join`]).
//!
//! The baselines Table 2 compares against — the node-capped partitioner of
//! [26] and the §3.3 join that integrates one link at a time — are not
//! engine code: `hopi-bench` composes them with the two pipeline stages.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edge_weights;
pub mod partitioning;
pub mod pipeline;
pub mod psg;
pub mod skeleton;
pub mod tc_partitioner;

pub use edge_weights::{DocEdgeWeights, EdgeWeightStrategy};
pub use partitioning::{Partition, Partitioning};
pub use pipeline::{
    build_index, build_partition_covers, psg_join, BuildConfig, BuildReport, PartitionerChoice,
    PsgJoinReport,
};
pub use psg::PartitionSkeletonGraph;
pub use skeleton::SkeletonGraph;
pub use tc_partitioner::TcPartitionerConfig;
