//! # hopi-core — the 2-hop cover at the heart of the HOPI index
//!
//! A *2-hop cover* (Cohen, Halperin, Kaplan, Zwick; SODA 2002) encodes the
//! reflexive-transitive closure of a graph in per-node label sets: every
//! node `v` carries `Lin(v)` (center nodes that reach `v`) and `Lout(v)`
//! (center nodes reachable from `v`), and `u →* v` holds iff
//! `Lout(u) ∩ Lin(v) ≠ ∅` — one hop from `u` to a common center `w`, one
//! hop from `w` to `v` (paper §3.1).
//!
//! This crate implements:
//!
//! * [`cover::TwoHopCover`] — labels with an inverted center index for
//!   ancestor/descendant enumeration and mutation (construction joins and
//!   incremental maintenance both edit labels in place).
//! * [`densest`] — the linear-time 2-approximation of the densest subgraph
//!   of a center graph (iterative min-degree peeling, paper §3.2).
//! * [`builder::CoverBuilder`] — Cohen's greedy cover construction with
//!   HOPI's lazy-priority-queue optimization and the link-target center
//!   preselection of paper §4.2.
//! * [`distance::DistanceCover`] / [`distance::DistanceCoverBuilder`] — the
//!   distance-aware cover of paper §5: labels carry distances to centers, a
//!   center may only cover a connection it lies on a *shortest* path of, and
//!   initial center-graph densities are estimated from ≤ 13,600 sampled
//!   candidate edges with a 98% confidence interval.
//! * [`index::HopiIndex`] — the built-index handle the query, maintenance,
//!   and storage layers exchange.
//! * [`frozen::FrozenCover`] — an immutable CSR snapshot of a cover for the
//!   read-dominated serving path: contiguous label/holder rows,
//!   allocation-free probes, batched `connected_many`.
//! * [`source::LabelSource`] — the query interface shared by the mutable
//!   and frozen representations (path evaluation is written against it),
//!   with the one descendant/ancestor enumeration kernel both use
//!   ([`source::union_into`]).
//! * [`old_join`] — the §3.3 single-link cover-integration primitive of the
//!   incremental (baseline) cover join.
//!
//! Following the paper's storage convention (§3.4), a node is **never stored
//! in its own label sets** — queries special-case the implicit self entries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod cover;
pub mod densest;
pub mod distance;
pub mod frozen;
pub mod index;
pub mod old_join;
pub mod source;

pub use builder::{BuildStats, CoverBuilder};
pub use cover::{DirtyRows, TwoHopCover};
pub use densest::{densest_subgraph, BipartiteCenterGraph, DensestResult};
pub use distance::{DistanceCover, DistanceCoverBuilder};
pub use frozen::FrozenCover;
pub use index::HopiIndex;
pub use source::{CoverStats, LabelSource};
