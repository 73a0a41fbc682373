//! # hopi-xml — the XML document model underlying the HOPI index
//!
//! Implements the formal model of paper §2 (Schenkel, Theobald, Weikum;
//! ICDE 2005):
//!
//! * [`model::XmlDocument`] — the element-level tree `T_E(d)` of a document
//!   plus its intra-document links `L_I(d)`.
//! * [`collection::Collection`] — a collection `X = (D, L)` of documents with
//!   inter-document links; provides the element-level graph `G_E(X)`, the
//!   document-level graph `G_D(X)` and the `doc(·)` mapping.
//! * [`parser`] — a quick-xml based parser that extracts elements, `id`
//!   anchors, and `idref`/`xlink:href` references from real XML text.
//! * [`generator`] — synthetic DBLP-like (publications + citation XLinks) and
//!   INEX-like (deep link-free trees) collection generators standing in for
//!   the paper's proprietary datasets (see DESIGN.md, substitutions).
//! * [`stats`] — the collection features reported in the paper's Table 1.
//! * [`walk`] — walks of `G_E(X)` read off the collection: a link index,
//!   a set of documents a walk may enter, and the document-level links;
//!   every region the HOPI index covers is walked through it.
//! * [`codec`] — exact binary serialization of documents and collections
//!   (tombstones and the global id assignment included), the form durable
//!   persistence (checkpoints, WAL records) stores.
//!
//! Following the paper, the model "disregards the ordering of an element's
//! children" for indexing purposes — child order is preserved in the tree
//! for serialization, but no index structure depends on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod collection;
pub mod generator;
pub mod model;
pub mod parser;
pub mod stats;
pub mod walk;

pub use collection::{Collection, DocId, ElemId, Link};
pub use model::{LocalElemId, XmlDocument};
pub use stats::CollectionStats;
pub use walk::{DocLinks, DocSet, LinkIndex};
