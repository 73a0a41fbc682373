//! # hopi-maintenance — incremental maintenance of the HOPI index
//!
//! Implements paper §6: the HOPI index must absorb insertions and deletions
//! of nodes, edges, and whole documents "in an incremental manner, without
//! having to recompute the entire index from scratch".
//!
//! * [`insert`] — new nodes are trivial; a new edge `u → v` is integrated by
//!   the cheapest of three exact label updates built from the labels of
//!   `u` and `v` (make `v` the center — the §3.3 link-join primitive — or
//!   copy `v`'s `Lout` into the ancestors of `u`, or `u`'s `Lin` into the
//!   descendants of `v`); a new document is treated as a fresh partition:
//!   it joins the collection, its own 2-hop cover is computed from the
//!   walk every partition cover reads ([`hopi_xml::DocSet`], confined to
//!   the document) and merged, then its links are integrated. Distance-aware variants return the successor of a
//!   distance-annotated [`hopi_core::FrozenCover`].
//! * [`delete`] — document deletion with two algorithms:
//!   * **Theorem 2 fast path** when the document *separates* the
//!     document-level graph (every ancestor–descendant path runs through
//!     it): simply strip the dead id sets from the affected labels.
//!   * **Theorem 3 general algorithm** otherwise: recompute a *partial*
//!     closure from the deleted document's ancestors into its descendants,
//!     cover that block afresh as `L̂`, and splice it into the old cover.
//!
//!   Single-edge deletion uses the same partial-recomputation scheme.
//! * Document modification is drop + reinsert (paper §6.3):
//!   `hopi_build::Hopi::modify_document` runs [`delete_document`] and
//!   [`insert_document`] itself, to book each to its own operation kind.
//! * [`rebuild`] — drift against the last build, its attribution per
//!   operation kind, and the policy deciding when an occasional full
//!   rebuild with the efficient §4 pipeline pays off ("over time, the
//!   space efficiency … may degrade").
//!
//! 24×7 operation (paper §1.1) — concurrent queries, write-locked
//! incremental updates, background rebuilds with an atomic swap — lives in
//! `hopi_build::OnlineHopi`, which drives these algorithms through the
//! `hopi_build::Hopi` engine.
//!
//! All operations keep the [`hopi_xml::Collection`] and the
//! [`hopi_core::HopiIndex`] in sync and preserve the exactness invariant
//! `index.connected(u,v) ⇔ u →* v in G_E(X)`, which the test suite checks
//! against closure oracles after every operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delete;
#[cfg(test)]
mod exactness;
pub mod insert;
pub mod rebuild;

pub use delete::{
    delete_document, delete_link, separates, DeletionAlgorithm, DeletionCounts, DeletionOutcome,
};
pub use insert::{
    insert_document, insert_edge_distance, insert_link, integrate_document_distance,
    integrate_link, DocumentLinks, Integrated, Integration, IntegrationCounts, LinkError,
};
pub use rebuild::{
    degradation, should_rebuild, BuildBaseline, Degradation, EntriesAdded, RebuildPolicy,
};
