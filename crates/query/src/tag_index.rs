//! Inverted element-by-tag index with a parent column and a tag column.
//!
//! Path evaluation needs "all elements with tag `t`" to seed `//t` steps
//! and to filter step results — the element-name index every XML engine
//! pairs with a connection index. Next to the rows it keeps two dense
//! columns over the element ids:
//!
//! * every element's tree parent, so a child step `/t` is one pass over
//!   the row of `t` instead of a walk through the context's documents;
//! * every element's tag id, so a content predicate's postings become the
//!   candidates of `//t[pred]` in one read per posting
//!   ([`TagIndex::filter_by_tag`]), whatever the length of `t`'s row.
//!
//! Tag ids are numbering only: a tag gets the id a vanished tag left
//! behind, or the next unused one, so an index maintained in place
//! numbers its tags differently from a rebuild. Equality compares tags by
//! name, so the two still compare equal.

use hopi_xml::{Collection, ElemId, XmlDocument};
use rustc_hash::FxHashMap;

/// Parent-column value of a document root, and of every id that belongs to
/// no indexed document.
const NO_PARENT: ElemId = ElemId::MAX;

/// A tag's number in the tag column.
type TagId = u32;

/// Tag-column value of every id that belongs to no indexed document.
const NO_TAG: TagId = TagId::MAX;

/// Maps tag names to sorted lists of global element ids, and every global
/// element id to its tree parent and its tag.
#[derive(Clone, Debug, Default)]
pub struct TagIndex {
    by_tag: FxHashMap<String, TagRow>,
    /// `parent[e]`: the global id of element `e`'s parent, or [`NO_PARENT`].
    /// Dense over the collection's id range, 4 bytes per id ever allocated.
    /// Its length is the collection's [`Collection::elem_id_bound`], which
    /// never shrinks, so a removal resets its range without truncating and
    /// an index maintained in place still equals a rebuild.
    parent: Vec<ElemId>,
    /// `tag[e]`: the id of element `e`'s tag, or [`NO_TAG`]. Sized and
    /// reset like `parent`.
    tag: Vec<TagId>,
    /// Ids of tags that lost their last element, for the next new tags.
    free_ids: Vec<TagId>,
    /// The number of tag ids ever handed out.
    next_id: TagId,
    total: usize,
}

/// One tag's id and its elements.
#[derive(Clone, Debug)]
struct TagRow {
    id: TagId,
    /// The elements with the tag, sorted.
    elems: Vec<ElemId>,
}

impl TagIndex {
    /// Builds the index over all live documents of a collection.
    pub fn build(collection: &Collection) -> Self {
        let bound = collection.elem_id_bound();
        let mut index = TagIndex {
            parent: vec![NO_PARENT; bound],
            tag: vec![NO_TAG; bound],
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
            self.tag.resize(end, NO_TAG);
        }
        let parents = self.parent.get_mut(base as usize..end).unwrap_or_default();
        let tags = self.tag.get_mut(base as usize..end).unwrap_or_default();
        for ((local, e), (parent, tag)) in doc.elements().zip(parents.iter_mut().zip(tags)) {
            let id = base + local;
            *parent = e.parent.map_or(NO_PARENT, |p| base + p);
            *tag = match self.by_tag.get_mut(&e.tag) {
                Some(row) => {
                    debug_assert!(row.elems.last().is_none_or(|&last| last < id));
                    row.elems.push(id);
                    row.id
                }
                None => {
                    let tag_id = self.free_ids.pop().unwrap_or_else(|| {
                        self.next_id += 1;
                        self.next_id - 1
                    });
                    let row = TagRow {
                        id: tag_id,
                        elems: vec![id],
                    };
                    self.by_tag.insert(e.tag.clone(), row);
                    tag_id
                }
            };
        }
        self.total += doc.len();
    }

    /// Drops the elements of a document indexed at `base`: its id range is
    /// drained from the row of each of its tags and reset in both columns,
    /// and a tag left without elements disappears — the index equals a
    /// fresh [`TagIndex::build`] of the collection without the document.
    pub fn remove_document(&mut self, base: ElemId, doc: &XmlDocument) {
        let end = base + doc.len() as ElemId;
        let range = base as usize..end as usize;
        if let Some(parents) = self.parent.get_mut(range.clone()) {
            parents.fill(NO_PARENT);
        }
        if let Some(tags) = self.tag.get_mut(range) {
            tags.fill(NO_TAG);
        }
        for (_, e) in doc.elements() {
            let Some(row) = self.by_tag.get_mut(&e.tag) else {
                continue; // emptied by an earlier element of the same tag
            };
            let lo = row.elems.partition_point(|&x| x < base);
            let hi = row.elems.partition_point(|&x| x < end);
            self.total -= row.elems.drain(lo..hi).len();
            if row.elems.is_empty() {
                self.free_ids.push(row.id);
                self.by_tag.remove(&e.tag);
            }
        }
    }

    /// Elements with the given tag (sorted; empty for unknown tags).
    pub fn elements(&self, tag: &str) -> &[ElemId] {
        self.by_tag.get(tag).map_or(&[], |row| row.elems.as_slice())
    }

    /// Writes the elements of the sorted `elems` that carry `tag` into
    /// `out`, sorted: `elems ∩ elements(tag)` in one tag-column read per
    /// element, whatever the length of the tag's row. Ids past the column
    /// and ids of no indexed document carry no tag; an unknown tag keeps
    /// nothing.
    pub fn filter_by_tag(&self, tag: &str, elems: &[ElemId], out: &mut Vec<ElemId>) {
        out.clear();
        if let Some(row) = self.by_tag.get(tag) {
            let column = &self.tag;
            out.extend(
                elems
                    .iter()
                    .copied()
                    .filter(|&e| column.get(e as usize) == Some(&row.id)),
            );
        }
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

    /// Total number of indexed elements.
    pub fn element_count(&self) -> usize {
        self.total
    }
}

/// Equal rows, equal parents, and every element's tag equal by name: the
/// tag ids themselves are numbering only (see the module docs).
impl PartialEq for TagIndex {
    fn eq(&self, other: &Self) -> bool {
        if self.total != other.total
            || self.parent != other.parent
            || self.tag.len() != other.tag.len()
            || self.by_tag.len() != other.by_tag.len()
        {
            return false;
        }
        // `to_other[id]`: the id `other` gives the tag `self` numbers `id`.
        let mut to_other: Vec<Option<TagId>> = vec![None; self.next_id as usize];
        for (name, row) in &self.by_tag {
            match (other.by_tag.get(name), to_other.get_mut(row.id as usize)) {
                (Some(theirs), Some(slot)) if theirs.elems == row.elems => *slot = Some(theirs.id),
                _ => return false,
            }
        }
        self.tag.iter().zip(&other.tag).all(|(&ours, &theirs)| {
            if ours == NO_TAG {
                theirs == NO_TAG
            } else {
                to_other.get(ours as usize).copied().flatten() == Some(theirs)
            }
        })
    }
}

impl Eq for TagIndex {}

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
        assert_eq!(idx.by_tag.len(), 3);
        assert_eq!(idx.element_count(), 5);
    }

    #[test]
    fn membership_test() {
        let idx = TagIndex::build(&collection());
        assert!(idx.elements("book").contains(&0));
        assert!(!idx.elements("author").contains(&0));
        assert!(idx.by_tag.contains_key("title"));
        assert!(!idx.by_tag.contains_key("nothing"));
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
        assert_eq!((idx.by_tag.len(), idx.element_count()), (0, 0));
        assert!((0..5).all(|e| idx.parent(e).is_none()));
        assert_eq!(idx.tag, [NO_TAG; 5]);
        let mut out = vec![9];
        idx.filter_by_tag("book", &[0, 3], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn in_place_maintenance_equals_a_rebuild() {
        let mut c = collection();
        let mut idx = TagIndex::build(&c);
        let title = idx.by_tag["title"].id;
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
        assert!(!idx.by_tag.contains_key("title"));
        assert_eq!(idx.element_count(), 4);
        assert_column_matches_rows(&idx, &["book", "title", "author", "note"]);
        // A new tag takes the id `title` left behind, where a rebuild
        // numbers it last: the indexes still compare equal.
        let mut d = XmlDocument::new("d", "chapter");
        d.add_element(0, "title");
        let id = c.add_document(d);
        idx.index_document(c.global_id(id, 0), c.document(id).unwrap());
        let rebuilt = TagIndex::build(&c);
        assert_eq!(idx.by_tag["chapter"].id, title);
        assert_ne!(rebuilt.by_tag["chapter"].id, title);
        assert_eq!(idx, rebuilt);
        assert_column_matches_rows(&idx, &["book", "title", "author", "note", "chapter"]);
        // The comparison sees the column: one element filed under another
        // tag makes the indexes differ.
        let mut wrong = idx.clone();
        wrong.tag[4] = wrong.by_tag["book"].id;
        assert_ne!(wrong, rebuilt);
    }

    /// Filtering every id through the column gives each tag's row back.
    fn assert_column_matches_rows(idx: &TagIndex, tags: &[&str]) {
        let every: Vec<ElemId> = (0..idx.tag.len() as ElemId + 2).collect();
        let mut out = Vec::new();
        for tag in tags {
            idx.filter_by_tag(tag, &every, &mut out);
            assert_eq!(out, idx.elements(tag), "{tag}");
        }
    }

    #[test]
    fn filter_by_tag_reads_the_column() {
        let idx = TagIndex::build(&collection());
        let mut out = Vec::new();
        // Postings that are no `author`, or past the id range, drop out.
        idx.filter_by_tag("author", &[0, 2, 3, 4, 9], &mut out);
        assert_eq!(out, [2, 4]);
        idx.filter_by_tag("nothing", &[0, 2], &mut out);
        assert!(out.is_empty());
        assert_column_matches_rows(&idx, &["book", "title", "author"]);
    }

    proptest::proptest! {
        /// On random collections maintained in place through removals and
        /// re-inserts, filtering any sorted id list through the column
        /// equals intersecting it with the tag's row — unknown tags, dead
        /// ids and ids past the range included.
        #[test]
        fn filtering_through_the_column_equals_intersecting_the_row(
            seed in 0u64..1_000,
            removed in proptest::collection::vec(0usize..8, 0..5),
            probe in proptest::collection::vec(0u32..120, 0..60),
        ) {
            use hopi_xml::generator::{random_collection, RandomConfig};
            let mut c = random_collection(&RandomConfig {
                num_docs: 8,
                elements_range: (1, 8),
                num_links: 0,
                num_intra_links: 0,
                allow_cycles: false,
                text: Default::default(),
                seed,
            });
            let mut idx = TagIndex::build(&c);
            for &d in &removed {
                let Some(doc) = c.document(d as u32).cloned() else { continue };
                idx.remove_document(c.global_id(d as u32, 0), &doc);
                c.remove_document(d as u32);
                // Re-inserting the document gives it fresh ids at the end.
                let id = c.add_document(doc);
                idx.index_document(c.global_id(id, 0), c.document(id).unwrap());
            }
            proptest::prop_assert_eq!(&idx, &TagIndex::build(&c));
            let mut probe = probe;
            probe.sort_unstable();
            probe.dedup();
            let mut out = Vec::new();
            for tag in ["root", "e0", "e3", "e7", "zz"] {
                let row = idx.elements(tag);
                let expect: Vec<ElemId> = probe
                    .iter()
                    .copied()
                    .filter(|e| row.binary_search(e).is_ok())
                    .collect();
                idx.filter_by_tag(tag, &probe, &mut out);
                proptest::prop_assert_eq!(&out, &expect, "{}", tag);
            }
        }
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
