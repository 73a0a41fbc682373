//! # hopi-graph — graph substrate for the HOPI index
//!
//! This crate provides every graph primitive the HOPI index construction and
//! maintenance algorithms (Schenkel, Theobald, Weikum; ICDE 2005) rely on:
//!
//! * [`DiGraph`] — a mutable directed graph over dense `u32` node ids with
//!   predecessor and successor adjacency, supporting node/edge insertion and
//!   removal (needed for incremental index maintenance, paper §6).
//! * [`FixedBitSet`] — the bit-set used to materialize transitive-closure
//!   rows, each stored over the span of its non-zero words only; the
//!   paper's new partitioner (§4.3) grows partitions while the in-memory
//!   closure still fits a budget, which we track via
//!   [`closure::TransitiveClosure::connection_count`].
//! * [`closure`] — reflexive/irreflexive transitive closures with incremental
//!   edge insertion, and a distance closure (all-pairs unweighted shortest
//!   paths) for the distance-aware cover of paper §5.
//! * [`traversal`] — BFS reachability and single-source shortest
//!   distances.
//! * [`walk`] — [`reach_rows`], the one depth-first walk every closure
//!   runs through: reach rows from a set of start nodes into target slots,
//!   over a successor function the caller passes in. Link cycles between
//!   XML documents are legal, so it condenses strongly connected
//!   components as it goes, and it does not enter dead ends.
//!
//! All structures are deliberately index-based (`u32` node ids) rather than
//! pointer-based: the HOPI cover-construction inner loops iterate over
//! millions of closure entries and profit from dense arrays (see the Rust
//! perf-book guidance on data layout and `FxHashMap`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod closure;
pub mod digraph;
pub mod traversal;
pub mod walk;

pub use bitset::{FixedBitSet, WordSpan};
pub use closure::{DistanceClosure, TransitiveClosure};
pub use digraph::{DiGraph, EdgeInsert, NodeId};
pub use walk::reach_rows;
