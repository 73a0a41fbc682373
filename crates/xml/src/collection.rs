//! Collections of XML documents: `X = (D, L)` with inter-document links,
//! the element-level graph `G_E(X)` and document-level graph `G_D(X)`
//! (paper §2).
//!
//! Element ids are **collection-global and stable**: each document receives a
//! contiguous id range at insertion time, and document removal tombstones the
//! range without reuse — the HOPI index stores these ids, and incremental
//! maintenance (paper §6) must be able to correlate index entries with graph
//! nodes across updates.

use crate::model::{LocalElemId, XmlDocument};
use hopi_graph::DiGraph;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// Document identifier (index into the collection's document table).
pub type DocId = u32;

/// Collection-global element identifier.
pub type ElemId = u32;

/// An inter-document link between two elements of *different* documents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Link {
    /// Link source element (global id).
    pub from: ElemId,
    /// Link target element (global id).
    pub to: ElemId,
}

#[derive(Clone, Debug)]
struct DocEntry {
    /// Shared, because a document never changes once added (modification
    /// is delete + insert, §6.3): clones of a collection — every serving
    /// snapshot is one — point at the same documents.
    doc: Arc<XmlDocument>,
    /// First global element id of this document.
    base: ElemId,
}

/// The documents of a collection and their id ranges: what only a
/// document insert or removal changes.
#[derive(Clone, Debug, Default)]
struct DocTable {
    docs: Vec<Option<DocEntry>>,
    /// Reverse map from global id range start to doc, kept sorted by base.
    ranges: Vec<(ElemId, ElemId, DocId)>, // (base, end_exclusive, doc)
}

/// A collection `X = (D, L)` of XML documents.
///
/// Cloning shares the document table (one reference count) and copies the
/// links: O(links). The first document insert or removal on either side
/// copies the table, not the documents.
#[derive(Clone, Debug, Default)]
pub struct Collection {
    table: Arc<DocTable>,
    links: Vec<Link>,
    /// Fast duplicate check: `L` is a *set* of links (paper §2).
    link_set: FxHashSet<(ElemId, ElemId)>,
    next_elem: ElemId,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document, assigning it a contiguous global element-id range.
    pub fn add_document(&mut self, doc: XmlDocument) -> DocId {
        let table = Arc::make_mut(&mut self.table);
        let id = table.docs.len() as DocId;
        let base = self.next_elem;
        self.next_elem += doc.len() as ElemId;
        table.ranges.push((base, self.next_elem, id));
        table.docs.push(Some(DocEntry {
            doc: Arc::new(doc),
            base,
        }));
        id
    }

    /// Removes a document: tombstones its id range and drops every link
    /// incident to it. Returns `true` if the document existed.
    pub fn remove_document(&mut self, d: DocId) -> bool {
        if self.document(d).is_none() {
            return false;
        }
        let table = Arc::make_mut(&mut self.table);
        if let Some(slot) = table.docs.get_mut(d as usize) {
            *slot = None;
        }
        let (ranges, docs) = (&table.ranges, &table.docs);
        let doc_of = |e: ElemId| -> Option<DocId> {
            let i = ranges.partition_point(|&(b, _, _)| b <= e).checked_sub(1)?;
            let (b, end, doc) = ranges[i];
            (e >= b && e < end && docs[doc as usize].is_some()).then_some(doc)
        };
        self.links
            .retain(|l| doc_of(l.from).is_some() && doc_of(l.to).is_some());
        self.link_set = self.links.iter().map(|l| (l.from, l.to)).collect();
        true
    }

    /// Number of live documents.
    pub fn doc_count(&self) -> usize {
        self.table.docs.iter().filter(|d| d.is_some()).count()
    }

    /// Iterates over live document ids.
    pub fn doc_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        self.table
            .docs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(i, _)| i as DocId)
    }

    /// Upper bound (exclusive) on document ids ever allocated.
    pub fn doc_id_bound(&self) -> usize {
        self.table.docs.len()
    }

    /// The document with id `d`, if live.
    pub fn document(&self, d: DocId) -> Option<&XmlDocument> {
        self.table.docs.get(d as usize)?.as_ref().map(|e| &*e.doc)
    }

    /// Total number of elements in live documents.
    pub fn element_count(&self) -> usize {
        self.table.docs.iter().flatten().map(|e| e.doc.len()).sum()
    }

    /// Upper bound (exclusive) on global element ids ever allocated.
    pub fn elem_id_bound(&self) -> usize {
        self.next_elem as usize
    }

    /// Maps `(document, local element)` to the global element id.
    ///
    /// # Panics
    /// Panics if the document is dead or the local id out of range.
    pub fn global_id(&self, d: DocId, local: LocalElemId) -> ElemId {
        let entry = self.table.docs[d as usize]
            .as_ref()
            .expect("global_id on removed document");
        assert!((local as usize) < entry.doc.len(), "local id out of range");
        entry.base + local
    }

    /// The `doc(·)` mapping of the paper: which live document owns a global
    /// element id.
    pub fn doc_of(&self, e: ElemId) -> Option<DocId> {
        if self.table.ranges.is_empty() {
            return None;
        }
        let i = self.table.ranges.partition_point(|&(b, _, _)| b <= e);
        if i == 0 {
            return None;
        }
        let (b, end, doc) = self.table.ranges[i - 1];
        (e >= b && e < end && self.table.docs[doc as usize].is_some()).then_some(doc)
    }

    /// Converts a global element id back to `(doc, local)`.
    pub fn to_local(&self, e: ElemId) -> Option<(DocId, LocalElemId)> {
        let d = self.doc_of(e)?;
        let base = self.table.docs[d as usize].as_ref().unwrap().base;
        Some((d, e - base))
    }

    /// Direct text of the element with global id `e` (`None` when the id is
    /// dead, `""` when the element carries no text).
    pub fn element_text(&self, e: ElemId) -> Option<&str> {
        let (d, local) = self.to_local(e)?;
        Some(
            self.table.docs[d as usize]
                .as_ref()
                .unwrap()
                .doc
                .text(local),
        )
    }

    /// Adds an inter-document link between two global element ids. `L` is a
    /// set (paper §2), so exact duplicates are ignored; returns `true` when
    /// the link is new.
    ///
    /// # Panics
    /// Panics if either endpoint is dead, or if both lie in the same
    /// document (use [`XmlDocument::add_intra_link`] for intra-links).
    pub fn add_link(&mut self, from: ElemId, to: ElemId) -> bool {
        let fd = self.doc_of(from).expect("link source dead");
        let td = self.doc_of(to).expect("link target dead");
        assert_ne!(fd, td, "same-document links belong to L_I(d)");
        if !self.link_set.insert((from, to)) {
            return false;
        }
        self.links.push(Link { from, to });
        true
    }

    /// The inter-document link set `L`.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Does the inter-document link `from → to` exist? (Set membership in
    /// `L`, constant time.)
    pub fn has_link(&self, from: ElemId, to: ElemId) -> bool {
        self.link_set.contains(&(from, to))
    }

    /// Removes one occurrence of the inter-document link `from → to`.
    /// Returns `true` if it existed.
    pub fn remove_link(&mut self, from: ElemId, to: ElemId) -> bool {
        match self.links.iter().position(|l| l.from == from && l.to == to) {
            Some(pos) => {
                self.links.swap_remove(pos);
                self.link_set.remove(&(from, to));
                true
            }
            None => false,
        }
    }

    /// All links of the collection `L(X) = L ∪ ⋃_d L_I(d)`, as global-id
    /// pairs.
    pub fn all_links(&self) -> Vec<Link> {
        let mut out = self.links.clone();
        for entry in self.table.docs.iter().flatten() {
            for &(f, t) in entry.doc.intra_links() {
                out.push(Link {
                    from: entry.base + f,
                    to: entry.base + t,
                });
            }
        }
        out
    }

    /// Builds the element-level graph `G_E(X)`: all tree edges, intra-links,
    /// and inter-document links over global element ids. Removed documents
    /// leave dead id slots.
    pub fn element_graph(&self) -> DiGraph {
        let mut g = DiGraph::new();
        if self.next_elem > 0 {
            g.ensure_node(self.next_elem - 1);
        }
        // Tombstone ranges of removed docs.
        for (i, slot) in self.table.docs.iter().enumerate() {
            if slot.is_none() {
                let (b, end) = self.range_of(i as DocId);
                for e in b..end {
                    g.remove_node(e);
                }
            }
        }
        for entry in self.table.docs.iter().flatten() {
            for (p, c) in entry.doc.tree_edges() {
                g.add_edge(entry.base + p, entry.base + c);
            }
            for &(f, t) in entry.doc.intra_links() {
                g.add_edge(entry.base + f, entry.base + t);
            }
        }
        for l in &self.links {
            g.add_edge(l.from, l.to);
        }
        g
    }

    fn range_of(&self, d: DocId) -> (ElemId, ElemId) {
        let (b, end, _) = self.table.ranges[self
            .table
            .ranges
            .iter()
            .position(|&(_, _, doc)| doc == d)
            .expect("range_of: unknown doc")];
        (b, end)
    }

    /// Builds the document-level graph `G_D(X)`: documents as nodes, an edge
    /// `(d_i, d_j)` when some link runs from `d_i` to `d_j`. Returns the
    /// graph and the per-edge link counts (the paper's default edge weights,
    /// §3.3).
    pub fn document_graph(&self) -> (DiGraph, FxHashMap<(DocId, DocId), u32>) {
        let mut g = DiGraph::new();
        if !self.table.docs.is_empty() {
            g.ensure_node(self.table.docs.len() as DocId - 1);
        }
        for (i, slot) in self.table.docs.iter().enumerate() {
            if slot.is_none() {
                g.remove_node(i as DocId);
            }
        }
        let mut weights: FxHashMap<(DocId, DocId), u32> = FxHashMap::default();
        for l in &self.links {
            let (Some(fd), Some(td)) = (self.doc_of(l.from), self.doc_of(l.to)) else {
                continue;
            };
            g.add_edge(fd, td);
            *weights.entry((fd, td)).or_insert(0) += 1;
        }
        (g, weights)
    }

    /// Node weight of a document in `G_D(X)`: its element count (paper §3.3).
    pub fn doc_weight(&self, d: DocId) -> u32 {
        self.document(d).map_or(0, |doc| doc.len() as u32)
    }

    /// Serializes a document to XML text including `xlink:href` attributes
    /// for its outgoing inter-document links. Targets are referenced as
    /// `docname` (root targets) or `docname#anchor`; links to unanchored
    /// non-root elements cannot be expressed in text form and degrade to a
    /// root reference. XML attributes are unique per element, so only the
    /// first link of a source element survives text serialization — the
    /// in-memory model is strictly richer than the text form.
    pub fn serialize_document(&self, d: DocId) -> Option<String> {
        let doc = self.document(d)?;
        let mut hrefs: Vec<(LocalElemId, String)> = Vec::new();
        for l in &self.links {
            if self.doc_of(l.from) != Some(d) {
                continue;
            }
            let (_, local_src) = self.to_local(l.from)?;
            let (td, local_tgt) = self.to_local(l.to)?;
            let target_doc = self.document(td)?;
            let target = if local_tgt == target_doc.root() {
                target_doc.name.clone()
            } else {
                match target_doc
                    .anchors()
                    .find(|(_, &el)| el == local_tgt)
                    .map(|(name, _)| name)
                {
                    Some(anchor) => format!("{}#{anchor}", target_doc.name),
                    None => target_doc.name.clone(), // degrade to root
                }
            };
            hrefs.push((local_src, target));
        }
        Some(doc.to_xml_string_with_links(&hrefs))
    }

    /// The global-id range `(base, end_exclusive)` of every document slot
    /// ever allocated, indexed by [`DocId`] — including tombstoned slots,
    /// whose ranges stay reserved forever. Used by the persistence codec
    /// ([`crate::codec`]) to reconstruct the id assignment exactly.
    pub fn slot_ranges(&self) -> Vec<(ElemId, ElemId)> {
        // `ranges` is pushed in `add_document` order and doc ids are
        // assigned sequentially, so entry `i` describes doc id `i`.
        self.table.ranges.iter().map(|&(b, e, _)| (b, e)).collect()
    }

    /// Reconstructs a collection from persisted parts: one slot per ever
    /// allocated doc id (`None` = tombstone), the slot id ranges, and the
    /// inter-document links. The inverse of reading [`Collection::document`]
    /// / [`Collection::slot_ranges`] / [`Collection::links`] — global ids
    /// (including tombstoned ranges) come back exactly as they were.
    pub fn from_parts(
        slots: Vec<Option<XmlDocument>>,
        slot_ranges: Vec<(ElemId, ElemId)>,
        links: Vec<(ElemId, ElemId)>,
    ) -> Result<Collection, String> {
        if slots.len() != slot_ranges.len() {
            return Err(format!(
                "{} document slots but {} id ranges",
                slots.len(),
                slot_ranges.len()
            ));
        }
        let mut next_elem: ElemId = 0;
        let mut docs = Vec::with_capacity(slots.len());
        let mut ranges = Vec::with_capacity(slots.len());
        for (i, (slot, &(base, end))) in slots.into_iter().zip(&slot_ranges).enumerate() {
            if base != next_elem || end < base {
                return Err(format!("slot {i} range [{base}, {end}) is not contiguous"));
            }
            if let Some(doc) = &slot {
                if doc.len() as ElemId != end - base {
                    return Err(format!(
                        "slot {i} holds {} elements but spans {} ids",
                        doc.len(),
                        end - base
                    ));
                }
            }
            ranges.push((base, end, i as DocId));
            docs.push(slot.map(|doc| DocEntry {
                doc: Arc::new(doc),
                base,
            }));
            next_elem = end;
        }
        let mut out = Collection {
            table: Arc::new(DocTable { docs, ranges }),
            links: Vec::new(),
            link_set: FxHashSet::default(),
            next_elem,
        };
        for (from, to) in links {
            let (Some(fd), Some(td)) = (out.doc_of(from), out.doc_of(to)) else {
                return Err(format!("link {from} → {to} has a dead endpoint"));
            };
            if fd == td {
                return Err(format!("link {from} → {to} stays inside document {fd}"));
            }
            if out.link_set.insert((from, to)) {
                out.links.push(Link { from, to });
            }
        }
        Ok(out)
    }

    /// Resolves a `docname#anchor` reference to a global element id.
    pub fn resolve_ref(&self, docname: &str, anchor: &str) -> Option<ElemId> {
        let (d, entry) = self
            .table
            .docs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i as DocId, e)))
            .find(|(_, e)| e.doc.name == docname)?;
        let local = if anchor.is_empty() {
            entry.doc.root()
        } else {
            entry.doc.anchor(anchor)?
        };
        Some(self.global_id(d, local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_doc_collection() -> Collection {
        let mut c = Collection::new();
        let mut d1 = XmlDocument::new("a", "r");
        d1.add_element(0, "x");
        d1.add_element(0, "y");
        let mut d2 = XmlDocument::new("b", "r");
        d2.add_element(0, "z");
        c.add_document(d1); // globals 0,1,2
        c.add_document(d2); // globals 3,4
        c.add_link(1, 3); // a/x -> b(root)
        c
    }

    #[test]
    fn global_id_assignment() {
        let c = two_doc_collection();
        assert_eq!(c.global_id(0, 0), 0);
        assert_eq!(c.global_id(1, 0), 3);
        assert_eq!(c.global_id(1, 1), 4);
        assert_eq!(c.doc_of(2), Some(0));
        assert_eq!(c.doc_of(3), Some(1));
        assert_eq!(c.doc_of(99), None);
        assert_eq!(c.to_local(4), Some((1, 1)));
    }

    #[test]
    fn element_graph_shape() {
        let c = two_doc_collection();
        let g = c.element_graph();
        assert_eq!(g.node_count(), 5);
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2)); // tree d1
        assert!(g.has_edge(3, 4)); // tree d2
        assert!(g.has_edge(1, 3)); // inter link
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn document_graph_shape() {
        let c = two_doc_collection();
        let (g, w) = c.document_graph();
        assert_eq!(g.node_count(), 2);
        assert!(g.has_edge(0, 1));
        assert_eq!(w[&(0, 1)], 1);
    }

    #[test]
    fn remove_document_drops_links_and_ids() {
        let mut c = two_doc_collection();
        assert!(c.remove_document(1));
        assert!(!c.remove_document(1));
        assert_eq!(c.doc_count(), 1);
        assert_eq!(c.doc_of(3), None);
        assert!(c.links().is_empty());
        let g = c.element_graph();
        assert_eq!(g.node_count(), 3);
        assert!(!g.is_alive(3) && !g.is_alive(4));
        // New docs get fresh ids (no reuse).
        let d3 = c.add_document(XmlDocument::new("c", "r"));
        assert_eq!(c.global_id(d3, 0), 5);
    }

    #[test]
    fn intra_links_in_element_graph() {
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "r");
        let x = d.add_element(0, "x");
        let y = d.add_element(0, "y");
        d.add_intra_link(y, x);
        c.add_document(d);
        let g = c.element_graph();
        assert!(g.has_edge(2, 1));
        assert_eq!(c.all_links().len(), 1);
    }

    #[test]
    #[should_panic(expected = "same-document")]
    fn same_doc_link_rejected() {
        let mut c = two_doc_collection();
        c.add_link(0, 1);
    }

    #[test]
    fn resolve_named_refs() {
        let mut c = Collection::new();
        let mut d1 = XmlDocument::new("a", "r");
        let x = d1.add_element(0, "x");
        d1.set_anchor("sec1", x);
        c.add_document(d1);
        assert_eq!(c.resolve_ref("a", "sec1"), Some(1));
        assert_eq!(c.resolve_ref("a", ""), Some(0));
        assert_eq!(c.resolve_ref("a", "nope"), None);
        assert_eq!(c.resolve_ref("zzz", ""), None);
    }

    #[test]
    fn serialize_document_roundtrip() {
        use crate::parser::parse_collection;
        let mut c = Collection::new();
        let mut d0 = XmlDocument::new("a", "r");
        let s1 = d0.add_element(0, "src");
        let s2 = d0.add_element(0, "src");
        c.add_document(d0);
        let mut d1 = XmlDocument::new("b", "r");
        let anchored = d1.add_element(0, "sec");
        d1.set_anchor("s", anchored);
        c.add_document(d1);
        c.add_link(c.global_id(0, s1), c.global_id(1, 0)); // to root
        c.add_link(c.global_id(0, s2), c.global_id(1, anchored)); // to anchor
        let xml_a = c.serialize_document(0).unwrap();
        let xml_b = c.serialize_document(1).unwrap();
        assert!(xml_a.contains("xlink:href=\"b\""));
        assert!(xml_a.contains("xlink:href=\"b#s\""));
        let reparsed = parse_collection([("a", xml_a.as_str()), ("b", xml_b.as_str())]).unwrap();
        assert_eq!(reparsed.links().len(), 2);
        assert_eq!(reparsed.element_count(), c.element_count());
        let mut expect: Vec<Link> = c.links().to_vec();
        let mut got: Vec<Link> = reparsed.links().to_vec();
        expect.sort_by_key(|l| (l.from, l.to));
        got.sort_by_key(|l| (l.from, l.to));
        assert_eq!(expect, got);
    }

    #[test]
    fn element_text_by_global_id() {
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "r");
        let x = d.add_element(0, "x");
        d.set_text(x, "hopi two hop");
        c.add_document(d);
        c.add_document(XmlDocument::new("b", "r"));
        assert_eq!(c.element_text(1), Some("hopi two hop"));
        assert_eq!(c.element_text(0), Some(""));
        assert_eq!(c.element_text(99), None);
        let mut c2 = c.clone();
        c2.remove_document(0);
        assert_eq!(c2.element_text(1), None);
    }

    #[test]
    fn clones_share_documents_and_diverge_independently() {
        let original = two_doc_collection();
        let mut clone = original.clone();
        assert!(std::ptr::eq(
            original.document(0).unwrap(),
            clone.document(0).unwrap()
        ));
        // Mutating the clone leaves the original as it was.
        clone.remove_document(0);
        clone.add_document(XmlDocument::new("c", "r"));
        assert_eq!(original.doc_count(), 2);
        assert_eq!(original.links().len(), 1);
        assert_eq!(original.document(0).unwrap().name, "a");
        assert_eq!(original.elem_id_bound(), 5);
        assert!(clone.document(0).is_none() && clone.links().is_empty());
        assert!(std::ptr::eq(
            original.document(1).unwrap(),
            clone.document(1).unwrap()
        ));
    }

    #[test]
    fn a_clone_keeps_its_documents_when_the_original_gains_or_loses_one() {
        let mut original = two_doc_collection();
        let clone = original.clone();
        assert!(
            Arc::ptr_eq(&original.table, &clone.table),
            "one shared table"
        );
        original.add_link(4, 0);
        assert!(
            Arc::ptr_eq(&original.table, &clone.table),
            "links live beside it"
        );
        original.add_document(XmlDocument::new("c", "r"));
        assert!(!Arc::ptr_eq(&original.table, &clone.table));
        let after_insert = original.clone();
        original.remove_document(0);
        for (c, docs) in [(&clone, 2), (&after_insert, 3)] {
            assert_eq!(c.doc_count(), docs);
            assert_eq!(c.doc_of(1), Some(0));
            assert_eq!(c.document(0).unwrap().name, "a");
            assert_eq!(c.global_id(1, 1), 4);
        }
        assert_eq!(clone.elem_id_bound(), 5);
        assert_eq!(clone.links().len(), 1);
        assert_eq!(after_insert.doc_of(5), Some(2));
        assert_eq!(original.doc_of(1), None);
        assert_eq!(original.doc_count(), 2);
    }

    #[test]
    fn doc_weights() {
        let c = two_doc_collection();
        assert_eq!(c.doc_weight(0), 3);
        assert_eq!(c.doc_weight(1), 2);
    }
}
