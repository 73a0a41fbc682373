//! Inverted element-by-tag index.
//!
//! Path evaluation needs "all elements with tag `t`" to seed `//t` steps
//! and to filter step results — the element-name index every XML engine
//! pairs with a connection index.

use hopi_xml::{Collection, ElemId, XmlDocument};
use rustc_hash::FxHashMap;

/// Maps tag names to sorted lists of global element ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagIndex {
    by_tag: FxHashMap<String, Vec<ElemId>>,
    total: usize,
}

impl TagIndex {
    /// Builds the index over all live documents of a collection.
    pub fn build(collection: &Collection) -> Self {
        let mut index = TagIndex::default();
        // Ascending document ids are ascending id ranges, so every row
        // comes out sorted.
        for d in collection.doc_ids() {
            if let Some(doc) = collection.document(d) {
                index.index_document(collection.global_id(d, 0), doc);
            }
        }
        index
    }

    /// Indexes one **new** document whose elements start at global id
    /// `base`. Ids are never reused, so a new document's ids exceed every
    /// indexed one and a push keeps the rows sorted.
    pub fn index_document(&mut self, base: ElemId, doc: &XmlDocument) {
        for (local, e) in doc.elements() {
            let id = base + local;
            match self.by_tag.get_mut(&e.tag) {
                Some(row) => {
                    debug_assert!(row.last().is_none_or(|&last| last < id));
                    row.push(id);
                }
                None => {
                    self.by_tag.insert(e.tag.clone(), vec![id]);
                }
            }
        }
        self.total += doc.len();
    }

    /// Drops the elements of a document indexed at `base`: its id range is
    /// drained from the row of each of its tags, and a tag left without
    /// elements disappears — the index equals a fresh
    /// [`TagIndex::build`] of the collection without the document.
    pub fn remove_document(&mut self, base: ElemId, doc: &XmlDocument) {
        let end = base + doc.len() as ElemId;
        for (_, e) in doc.elements() {
            let Some(row) = self.by_tag.get_mut(&e.tag) else {
                continue; // emptied by an earlier element of the same tag
            };
            let lo = row.partition_point(|&x| x < base);
            let hi = row.partition_point(|&x| x < end);
            self.total -= row.drain(lo..hi).len();
            if row.is_empty() {
                self.by_tag.remove(&e.tag);
            }
        }
    }

    /// Elements with the given tag (sorted; empty for unknown tags).
    pub fn elements(&self, tag: &str) -> &[ElemId] {
        self.by_tag.get(tag).map_or(&[], Vec::as_slice)
    }

    /// Does any element carry this tag?
    pub fn contains_tag(&self, tag: &str) -> bool {
        self.by_tag.contains_key(tag)
    }

    /// Number of distinct tags.
    pub fn tag_count(&self) -> usize {
        self.by_tag.len()
    }

    /// Total number of indexed elements.
    pub fn element_count(&self) -> usize {
        self.total
    }

    /// Membership test: does element `e` carry tag `tag`?
    pub fn has_tag(&self, e: ElemId, tag: &str) -> bool {
        self.elements(tag).binary_search(&e).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_xml::XmlDocument;

    fn collection() -> Collection {
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "book");
        d.add_element(0, "title");
        d.add_element(0, "author");
        c.add_document(d);
        let mut d = XmlDocument::new("b", "book");
        d.add_element(0, "author");
        c.add_document(d);
        c
    }

    #[test]
    fn indexes_all_tags() {
        let idx = TagIndex::build(&collection());
        assert_eq!(idx.elements("book"), &[0, 3]);
        assert_eq!(idx.elements("author"), &[2, 4]);
        assert_eq!(idx.elements("title"), &[1]);
        assert!(idx.elements("nothing").is_empty());
        assert_eq!(idx.tag_count(), 3);
        assert_eq!(idx.element_count(), 5);
    }

    #[test]
    fn membership_test() {
        let idx = TagIndex::build(&collection());
        assert!(idx.has_tag(0, "book"));
        assert!(!idx.has_tag(0, "author"));
        assert!(idx.contains_tag("title"));
    }

    #[test]
    fn in_place_maintenance_equals_a_rebuild() {
        let mut c = collection();
        let mut idx = TagIndex::build(&c);
        let mut d = XmlDocument::new("c", "note");
        d.add_element(0, "author");
        let id = c.add_document(d);
        idx.index_document(c.global_id(id, 0), c.document(id).unwrap());
        assert_eq!(idx, TagIndex::build(&c));
        assert_eq!(idx.elements("author"), &[2, 4, 6]);
        // Removing the only document with a `title` drops the tag.
        idx.remove_document(c.global_id(0, 0), c.document(0).unwrap());
        c.remove_document(0);
        assert_eq!(idx, TagIndex::build(&c));
        assert!(!idx.contains_tag("title"));
        assert_eq!(idx.element_count(), 4);
    }

    #[test]
    fn skips_removed_documents() {
        let mut c = collection();
        c.remove_document(0);
        let idx = TagIndex::build(&c);
        assert_eq!(idx.elements("book"), &[3]);
        assert_eq!(idx.element_count(), 2);
    }
}
