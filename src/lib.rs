//! # HOPI — a 2-hop-cover connection index for complex XML collections
//!
//! A from-scratch Rust implementation of
//! *"Efficient Creation and Incremental Maintenance of the HOPI Index for
//! Complex XML Document Collections"* (Schenkel, Theobald, Weikum;
//! ICDE 2005), including the underlying 2-hop cover machinery of its
//! EDBT 2004 predecessor.
//!
//! HOPI answers reachability ("is element `u` an ancestor of element `v`
//! along parent/child **and** XLink/IDREF link axes?") and shortest-link-
//! distance queries over collections of XML documents, storing the
//! transitive closure in a compressed 2-hop cover — typically well over an
//! order of magnitude smaller than the materialized closure.
//!
//! ## Quickstart
//!
//! The whole lifecycle runs through one engine handle, [`Hopi`]:
//!
//! ```
//! use hopi::prelude::*;
//!
//! // Parse a small linked collection and build the index
//! // (new partitioner + new PSG join by default).
//! let mut hopi = Hopi::builder().parse([
//!     ("paper-a", r#"<article><cite xlink:href="paper-b"/></article>"#),
//!     ("paper-b", r#"<article><sec id="s1"/></article>"#),
//! ])?;
//!
//! // paper-a's root reaches paper-b's section across the citation link.
//! let a_root = hopi.resolve("paper-a", "")?;
//! let b_sec = hopi.resolve("paper-b", "s1")?;
//! assert!(hopi.connected(a_root, b_sec));
//!
//! // Path expressions with wildcards ride the same index…
//! assert_eq!(hopi.query("//article//sec")?, vec![b_sec]);
//!
//! // …and the index absorbs updates incrementally (paper §6).
//! let outcome = hopi.delete_document(1)?;
//! assert!(hopi.query("//article//sec")?.is_empty());
//! let _ = outcome;
//! # Ok::<(), hopi::HopiError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`build`] | the [`Hopi`] / [`OnlineHopi`] engine facade, [`HopiError`] |
//! | [`graph`] | digraphs, bit sets, transitive/distance closures, the condensing reachability walk |
//! | [`xml`] | document model, parser, generators, `G_E(X)` / `G_D(X)` |
//! | [`core`] | 2-hop covers, densest-subgraph machinery, the index handle |
//! | [`partition`] | partitioners, skeleton graphs, the §3.3/§4 build pipeline |
//! | [`maintenance`] | insertions, deletions (Thm 2/3), modifications, 24×7 mode |
//! | [`store`] | frozen index files, checkpoints, write-ahead log, pluggable I/O |
//! | [`query`] | path expressions with wildcards, distance-ranked retrieval |
//! | [`server`] | std-only HTTP/1.1 serving over snapshot epochs (`hopi serve`) |
//!
//! See `DESIGN.md` for the paper-to-module inventory and the `hopi-bench`
//! crate for the reproduced evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hopi_build as build;
pub use hopi_core as core;
pub use hopi_graph as graph;
pub use hopi_maintenance as maintenance;
pub use hopi_partition as partition;
pub use hopi_query as query;
pub use hopi_server as server;
pub use hopi_store as store;
pub use hopi_xml as xml;

pub use hopi_build::{
    Hopi, HopiBuilder, HopiError, HopiSnapshot, OnlineHopi, PlanCounts, QueryPlanReport,
    SnapshotStats, Stats, Strategy,
};

/// Convenience re-exports for the common workflow: parse or generate a
/// collection, build a [`Hopi`] engine, query it, maintain it.
pub mod prelude {
    pub use hopi_build::{BuildConfig, BuildReport, PartitionerChoice};
    pub use hopi_build::{
        Hopi, HopiBuilder, HopiError, HopiIndex, HopiSnapshot, OnlineHopi, SnapshotStats, Stats,
        WalRecord,
    };
    pub use hopi_core::{CoverStats, FrozenCover, LabelSource};
    pub use hopi_maintenance::{DeletionAlgorithm, DeletionOutcome, DocumentLinks, RebuildPolicy};
    pub use hopi_partition::{EdgeWeightStrategy, Partitioning, TcPartitionerConfig};
    // `Strategy` stays out of the prelude on purpose: glob-importing it
    // alongside `proptest::prelude::*` (which exports a `Strategy` trait)
    // would make the name ambiguous. Reach it as `hopi::Strategy`.
    pub use hopi_query::{EvalOptions, PlanCounts, QueryPlanReport, RankedMatch};
    pub use hopi_xml::{Collection, CollectionStats, DocId, ElemId, Link, XmlDocument};
}
