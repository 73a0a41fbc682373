//! Inverted element-by-tag index with a parent column.
//!
//! Path evaluation needs "all elements with tag `t`" to seed `//t` steps
//! and to filter step results — the element-name index every XML engine
//! pairs with a connection index. Next to the rows it keeps every
//! element's tree parent, so a child step `/t` is one pass over the row of
//! `t` instead of a walk through the context's documents.

use hopi_xml::{Collection, ElemId, XmlDocument};
use rustc_hash::FxHashMap;

/// Parent-column value of a document root, and of every id that belongs to
/// no indexed document.
const NO_PARENT: ElemId = ElemId::MAX;

/// Maps tag names to sorted lists of global element ids, and every global
/// element id to its tree parent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagIndex {
    by_tag: FxHashMap<String, Vec<ElemId>>,
    /// `parent[e]`: the global id of element `e`'s parent, or [`NO_PARENT`].
    /// Dense over the collection's id range, 4 bytes per id ever allocated.
    /// Its length is the collection's [`Collection::elem_id_bound`], which
    /// never shrinks, so a removal resets its range without truncating and
    /// an index maintained in place still equals a rebuild.
    parent: Vec<ElemId>,
    total: usize,
}

impl TagIndex {
    /// Builds the index over all live documents of a collection.
    pub fn build(collection: &Collection) -> Self {
        let mut index = TagIndex {
            parent: vec![NO_PARENT; collection.elem_id_bound()],
            ..TagIndex::default()
        };
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
        let end = base as usize + doc.len();
        if self.parent.len() < end {
            self.parent.resize(end, NO_PARENT);
        }
        let slots = self.parent.get_mut(base as usize..end).unwrap_or_default();
        for ((local, e), slot) in doc.elements().zip(slots) {
            let id = base + local;
            *slot = e.parent.map_or(NO_PARENT, |p| base + p);
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
    /// drained from the row of each of its tags and reset in the parent
    /// column, and a tag left without elements disappears — the index
    /// equals a fresh [`TagIndex::build`] of the collection without the
    /// document.
    pub fn remove_document(&mut self, base: ElemId, doc: &XmlDocument) {
        let end = base + doc.len() as ElemId;
        if let Some(range) = self.parent.get_mut(base as usize..end as usize) {
            range.fill(NO_PARENT);
        }
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

    /// The tree parent of element `e`; `None` for a document root and for
    /// an id of no indexed document.
    #[inline]
    pub fn parent(&self, e: ElemId) -> Option<ElemId> {
        self.parent
            .get(e as usize)
            .copied()
            .filter(|&p| p != NO_PARENT)
    }

    /// The document roots with the given tag, sorted: the row of `tag`
    /// filtered to elements without a parent.
    pub(crate) fn roots<'a>(&'a self, tag: &str) -> impl Iterator<Item = ElemId> + 'a {
        self.elements(tag)
            .iter()
            .copied()
            .filter(move |&e| self.parent(e).is_none())
    }

    /// The elements with the given tag whose parent satisfies
    /// `in_context`, sorted: a child step `/tag` as one pass over the row.
    /// `in_context` never sees a root's (absent) parent.
    pub fn children<'a>(
        &'a self,
        tag: &str,
        in_context: impl Fn(ElemId) -> bool + 'a,
    ) -> impl Iterator<Item = ElemId> + 'a {
        self.elements(tag)
            .iter()
            .copied()
            .filter(move |&e| self.parent(e).is_some_and(&in_context))
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
        assert!(idx.elements("book").contains(&0));
        assert!(!idx.elements("author").contains(&0));
        assert!(idx.contains_tag("title"));
        assert!(!idx.contains_tag("nothing"));
    }

    #[test]
    fn roots_and_children_come_from_the_rows() {
        let idx = TagIndex::build(&collection());
        assert_eq!(idx.roots("book").collect::<Vec<_>>(), [0, 3]);
        assert_eq!(idx.roots("author").count(), 0);
        assert_eq!(idx.roots("nothing").count(), 0);
        assert_eq!(idx.children("author", |p| p == 3).collect::<Vec<_>>(), [4]);
        assert_eq!(idx.children("author", |_| true).collect::<Vec<_>>(), [2, 4]);
        // A root has no parent for the context test to see.
        assert_eq!(idx.children("book", |_| true).count(), 0);
    }

    #[test]
    fn parent_follows_insert_and_remove() {
        let mut c = collection();
        let mut idx = TagIndex::build(&c);
        assert_eq!(
            [0, 1, 2, 3, 4].map(|e| idx.parent(e)),
            [None, Some(0), Some(0), None, Some(3)]
        );
        assert_eq!(idx.parent(5), None, "past the id range");
        let mut d = XmlDocument::new("c", "note");
        let sec = d.add_element(0, "sec");
        d.add_element(sec, "author");
        let id = c.add_document(d);
        idx.index_document(c.global_id(id, 0), c.document(id).unwrap());
        assert_eq!([5, 6, 7].map(|e| idx.parent(e)), [None, Some(5), Some(6)]);
        assert_eq!(idx, TagIndex::build(&c));
        // A removed document's ids have no parent any more.
        idx.remove_document(c.global_id(0, 0), c.document(0).unwrap());
        c.remove_document(0);
        assert_eq!([1, 2].map(|e| idx.parent(e)), [None, None]);
        assert_eq!(idx.parent(4), Some(3));
        assert_eq!(idx, TagIndex::build(&c));
    }

    #[test]
    fn removing_the_last_document_keeps_the_column_length() {
        let mut c = collection();
        let mut idx = TagIndex::build(&c);
        // The highest ids go: the column keeps its length, as a rebuild
        // sizes it to the id bound, which never shrinks.
        idx.remove_document(c.global_id(1, 0), c.document(1).unwrap());
        c.remove_document(1);
        assert_eq!(idx, TagIndex::build(&c));
        assert_eq!(idx.parent(4), None);
        assert_eq!(idx.elements("book"), &[0]);
        // Then every document: only the empty column of the id range is left.
        idx.remove_document(c.global_id(0, 0), c.document(0).unwrap());
        c.remove_document(0);
        assert_eq!(idx, TagIndex::build(&c));
        assert_eq!((idx.tag_count(), idx.element_count()), (0, 0));
        assert!((0..5).all(|e| idx.parent(e).is_none()));
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
