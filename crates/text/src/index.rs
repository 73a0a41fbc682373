//! The term index: postings in CSR buffers, built straight from a
//! collection and rewritten per document.
//!
//! Mirrors `FrozenCover`'s CSR layout. Terms are sorted lexicographically
//! and stored back to back in one string; row `t` brackets term `t`'s
//! postings inside one concatenated element-id buffer and one parallel
//! term-frequency buffer. Lookup is a binary search over the term table,
//! then two slice borrows.
//!
//! The index is immutable. A document write builds its successor in one
//! pass over the buffers ([`TextIndex::with_document`],
//! [`TextIndex::without_document`]), so an engine swaps the successor in
//! behind a fresh `Arc` and its snapshots share one index until the next
//! document write.

use crate::{tokenize, PostingsRef, TextStats};
use hopi_xml::collection::{Collection, ElemId};
use hopi_xml::model::XmlDocument;
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::ops::Range;

/// An element-granular term index in CSR layout (see the module docs).
///
/// Every way to reach an index — a [`TextIndex::build`], or any sequence
/// of per-document successors — holds exactly the terms that have
/// postings, sorted, each row sorted by element id; so a maintained index
/// `==` the fresh build of its collection.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TextIndex {
    /// The terms, sorted lexicographically, back to back.
    terms: String,
    /// Where each term ends in `terms` (it starts where the previous ends).
    term_ends: Vec<u32>,
    /// Where each term's row ends in the posting buffers.
    row_ends: Vec<u32>,
    /// Concatenated posting element ids, each row sorted ascending.
    elems: Vec<ElemId>,
    /// Term frequencies, parallel to `elems`.
    tfs: Vec<u32>,
    /// Elements carrying at least one token, sorted ascending.
    len_elems: Vec<ElemId>,
    /// Token count per element, parallel to `len_elems`.
    len_vals: Vec<u32>,
    /// Total token occurrences.
    total_tokens: u64,
}

impl TextIndex {
    /// Indexes every live document of a collection: one pass tokenizes
    /// the text and counts each term's postings, the terms are sorted once,
    /// and a fill pass writes every posting into its row.
    pub fn build(collection: &Collection) -> Self {
        let mut gather = Gather::default();
        for d in collection.doc_ids() {
            if let Some(doc) = collection.document(d) {
                gather.document(collection.global_id(d, 0), doc);
            }
        }
        gather.into_index()
    }

    /// The successor after `doc` joined the collection at global ids
    /// `base..`. Its ids exceed every indexed one, so its postings append
    /// to their rows and its new terms join the table in order.
    pub fn with_document(&self, base: ElemId, doc: &XmlDocument) -> Self {
        let added = TextIndex::of_document(base, doc);
        // The indexed postings first: the document's ids follow them.
        let mut out = self.spliced(&added, |row, new| [row, new]);
        out.len_elems = [self.len_elems.as_slice(), &added.len_elems].concat();
        out.len_vals = [self.len_vals.as_slice(), &added.len_vals].concat();
        out.total_tokens = self.total_tokens + added.total_tokens;
        out
    }

    /// The successor after `doc`, indexed at global id `base`, left the
    /// collection. Its elements are the one id range `base..base + len`,
    /// which a range filter drops from the rows of its terms; terms left
    /// without postings leave the table.
    pub fn without_document(&self, base: ElemId, doc: &XmlDocument) -> Self {
        let gone = base..base + doc.len() as ElemId;
        let removed = TextIndex::of_document(base, doc);
        let mut out = self.spliced(&removed, |row, _| around(row, &gone));
        let lens = PostingsRef {
            elems: &self.len_elems,
            tfs: &self.len_vals,
        };
        for p in around(lens, &gone) {
            out.len_elems.extend_from_slice(p.elems);
            out.len_vals.extend_from_slice(p.tfs);
        }
        out.total_tokens = self.total_tokens.saturating_sub(removed.total_tokens);
        out
    }

    /// The term's posting list, `None` when no element holds it.
    pub fn lookup(&self, term: &str) -> Option<PostingsRef<'_>> {
        self.find(term).ok().map(|t| self.row(t))
    }

    /// Document frequency of a term (posting-list length).
    pub fn df(&self, term: &str) -> usize {
        self.lookup(term).map_or(0, |p| p.len())
    }

    /// Token count of an element (0 when it carries no text).
    pub fn elem_len(&self, elem: ElemId) -> u32 {
        match self.len_elems.binary_search(&elem) {
            Ok(i) => self.len_vals.get(i).copied().unwrap_or(0),
            Err(_) => 0,
        }
    }

    /// Number of elements carrying any text — the `N` of idf.
    pub fn indexed_elements(&self) -> usize {
        self.len_elems.len()
    }

    /// Total token occurrences across all elements.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Mean token count over indexed elements (1.0 when empty, so length
    /// normalization stays well-defined).
    pub fn avg_elem_len(&self) -> f64 {
        match self.len_elems.len() {
            0 => 1.0,
            n => self.total_tokens as f64 / n as f64,
        }
    }

    /// Size and shape statistics.
    pub fn stats(&self) -> TextStats {
        TextStats {
            vocabulary: self.term_ends.len(),
            postings: self.elems.len(),
            postings_bytes: self.elems.len()
                * (std::mem::size_of::<ElemId>() + std::mem::size_of::<u32>()),
            indexed_elements: self.len_elems.len(),
            total_tokens: self.total_tokens,
        }
    }

    /// The index of one document whose elements start at global id `base`.
    fn of_document(base: ElemId, doc: &XmlDocument) -> Self {
        let mut gather = Gather::default();
        gather.document(base, doc);
        gather.into_index()
    }

    /// Where `term` sits in the sorted table, or where it would go.
    fn find(&self, term: &str) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.term_ends.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.term(mid).cmp(term) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Term `t` of the sorted table.
    fn term(&self, t: usize) -> &str {
        let at = spans(&self.term_ends, t..t + 1);
        self.terms.get(at).unwrap_or_default()
    }

    /// Term `t`'s posting list.
    fn row(&self, t: usize) -> PostingsRef<'_> {
        postings(&self.elems, &self.tfs, spans(&self.row_ends, t..t + 1))
    }

    /// A copy of this index in which the row of each term of `edits`
    /// becomes `rewrite(indexed row, edits' row)`, given as two parts,
    /// and every other row is copied in bulk. A term whose rewritten row
    /// is empty leaves the table.
    fn spliced<'a>(
        &'a self,
        edits: &'a TextIndex,
        rewrite: impl Fn(PostingsRef<'a>, PostingsRef<'a>) -> [PostingsRef<'a>; 2],
    ) -> TextIndex {
        let mut out = TextIndex {
            terms: String::with_capacity(self.terms.len() + edits.terms.len()),
            term_ends: Vec::with_capacity(self.term_ends.len() + edits.term_ends.len()),
            row_ends: Vec::with_capacity(self.row_ends.len() + edits.row_ends.len()),
            elems: Vec::with_capacity(self.elems.len() + edits.elems.len()),
            tfs: Vec::with_capacity(self.tfs.len() + edits.tfs.len()),
            ..TextIndex::default()
        };
        // Rows of `self` before `copied` are in `out` already.
        let mut copied = 0;
        for t in 0..edits.term_ends.len() {
            let term = edits.term(t);
            let (at, row) = match self.find(term) {
                Ok(i) => (i..i + 1, self.row(i)),
                Err(i) => (i..i, PostingsRef::default()),
            };
            out.copy_rows(self, copied..at.start);
            copied = at.end;
            let parts = rewrite(row, edits.row(t));
            if parts.iter().any(|p| !p.is_empty()) {
                parts.into_iter().for_each(|p| out.extend_row(p));
                out.close_row(term);
            }
        }
        out.copy_rows(self, copied..self.term_ends.len());
        out
    }

    /// Appends rows `rows` of `src` in bulk, moving their ends along.
    fn copy_rows(&mut self, src: &TextIndex, rows: Range<usize>) {
        let terms = spans(&src.term_ends, rows.clone());
        let (from, to) = (terms.start as u32, self.terms.len() as u32);
        let ends = src.term_ends.get(rows.clone()).unwrap_or_default();
        self.term_ends.extend(ends.iter().map(|&e| e - from + to));
        self.terms
            .push_str(src.terms.get(terms).unwrap_or_default());
        let posts = spans(&src.row_ends, rows.clone());
        let (from, to) = (posts.start as u32, self.elems.len() as u32);
        let ends = src.row_ends.get(rows).unwrap_or_default();
        self.row_ends.extend(ends.iter().map(|&e| e - from + to));
        self.extend_row(postings(&src.elems, &src.tfs, posts));
    }

    /// Appends postings to the row being written.
    fn extend_row(&mut self, p: PostingsRef<'_>) {
        self.elems.extend_from_slice(p.elems);
        self.tfs.extend_from_slice(p.tfs);
    }

    /// Ends the row being written as `term`'s.
    fn close_row(&mut self, term: &str) {
        self.terms.push_str(term);
        self.term_ends.push(self.terms.len() as u32);
        self.row_ends.push(self.elems.len() as u32);
    }
}

/// The part of a CSR column that rows `rows` occupy, given the ends of
/// all rows: from where the first starts to where the next one starts.
fn spans(ends: &[u32], rows: Range<usize>) -> Range<usize> {
    let start = |r: usize| {
        r.checked_sub(1)
            .and_then(|p| ends.get(p))
            .map_or(0, |&e| e as usize)
    };
    start(rows.start)..start(rows.end)
}

/// The postings at positions `at` of two parallel columns.
fn postings<'a>(elems: &'a [ElemId], tfs: &'a [u32], at: Range<usize>) -> PostingsRef<'a> {
    PostingsRef {
        elems: elems.get(at.clone()).unwrap_or_default(),
        tfs: tfs.get(at).unwrap_or_default(),
    }
}

/// The postings of `p` before and after the element range `gone`.
fn around<'a>(p: PostingsRef<'a>, gone: &Range<ElemId>) -> [PostingsRef<'a>; 2] {
    let lo = p.elems.partition_point(|&e| e < gone.start);
    let hi = p.elems.partition_point(|&e| e < gone.end);
    [
        postings(p.elems, p.tfs, 0..lo),
        postings(p.elems, p.tfs, hi..p.len()),
    ]
}

/// Postings gathered in element order, before the terms are sorted.
#[derive(Default)]
struct Gather {
    /// Term → gather id, in first-seen order.
    ids: FxHashMap<String, u32>,
    /// Postings per gather id.
    df: Vec<u32>,
    /// `(element, gather id, term frequency)`, elements ascending.
    hits: Vec<(ElemId, u32, u32)>,
    /// Elements carrying tokens, ascending, and their token counts.
    len_elems: Vec<ElemId>,
    len_vals: Vec<u32>,
    total_tokens: u64,
    /// The gather ids of one element's tokens (reused).
    tokens: Vec<u32>,
}

impl Gather {
    /// Gathers one document whose elements start at global id `base`;
    /// documents come in ascending id order.
    fn document(&mut self, base: ElemId, doc: &XmlDocument) {
        for (local, text) in doc.texts() {
            self.tokens.clear();
            for token in tokenize(text) {
                let next = self.df.len() as u32;
                let id = *self.ids.entry(token).or_insert(next);
                if id == next {
                    self.df.push(0);
                }
                self.tokens.push(id);
            }
            if self.tokens.is_empty() {
                continue;
            }
            let elem = base + local;
            self.tokens.sort_unstable();
            for run in self.tokens.chunk_by(|a, b| a == b) {
                let Some(&id) = run.first() else { continue };
                if let Some(df) = self.df.get_mut(id as usize) {
                    *df += 1;
                }
                self.hits.push((elem, id, run.len() as u32));
            }
            let len = self.tokens.len() as u32;
            self.len_elems.push(elem);
            self.len_vals.push(len);
            self.total_tokens += u64::from(len);
        }
    }

    /// Sorts the terms once, lays their rows out by the counted postings,
    /// and fills each posting into its row in element order.
    fn into_index(self) -> TextIndex {
        let mut order: Vec<(String, u32)> = self.ids.into_iter().collect();
        order.sort_unstable();
        let mut index = TextIndex {
            terms: String::with_capacity(order.iter().map(|(t, _)| t.len()).sum()),
            term_ends: Vec::with_capacity(order.len()),
            row_ends: Vec::with_capacity(order.len()),
            elems: vec![0; self.hits.len()],
            tfs: vec![0; self.hits.len()],
            len_elems: self.len_elems,
            len_vals: self.len_vals,
            total_tokens: self.total_tokens,
        };
        // Each gather id's next free slot in the posting buffers.
        let mut next = vec![0u32; order.len()];
        let mut end = 0;
        for (term, id) in &order {
            let id = *id as usize;
            if let (Some(slot), Some(&df)) = (next.get_mut(id), self.df.get(id)) {
                *slot = end;
                end += df;
            }
            index.terms.push_str(term);
            index.term_ends.push(index.terms.len() as u32);
            index.row_ends.push(end);
        }
        for (elem, id, tf) in self.hits {
            let Some(slot) = next.get_mut(id as usize) else {
                continue;
            };
            let at = *slot as usize;
            *slot += 1;
            if let (Some(e), Some(t)) = (index.elems.get_mut(at), index.tfs.get_mut(at)) {
                (*e, *t) = (elem, tf);
            }
        }
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Collection {
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "book");
        let t = d.add_element(0, "title");
        let s = d.add_element(0, "sec");
        d.set_text(t, "XML indexing with HOPI");
        d.set_text(s, "indexing indexing hop");
        c.add_document(d); // globals 0..3
        let mut d2 = XmlDocument::new("b", "article");
        let p = d2.add_element(0, "p");
        d2.set_text(p, "two hop cover");
        c.add_document(d2); // globals 3..5
        c
    }

    #[test]
    fn builds_postings_with_frequencies() {
        let idx = TextIndex::build(&sample());
        let p = idx.lookup("indexing").unwrap();
        assert_eq!(p.elems, &[1, 2]);
        assert_eq!(p.tfs, &[1, 2]);
        let hop = idx.lookup("hop").unwrap();
        assert_eq!(hop.elems, &[2, 4]);
        assert_eq!(hop.tfs, &[1, 1]);
        assert!(idx.lookup("absent").is_none());
        assert_eq!(idx.df("indexing"), 2);
    }

    #[test]
    fn element_lengths_and_totals() {
        let idx = TextIndex::build(&sample());
        assert_eq!(idx.elem_len(1), 4);
        assert_eq!(idx.elem_len(2), 3);
        assert_eq!(idx.elem_len(0), 0); // no text
        assert_eq!(idx.indexed_elements(), 3);
        assert_eq!(idx.total_tokens(), 10);
        assert!((idx.avg_elem_len() - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn stats_shape() {
        let idx = TextIndex::build(&sample());
        let s = idx.stats();
        assert_eq!((s.vocabulary, s.postings, s.postings_bytes), (7, 9, 72));
        assert_eq!((s.indexed_elements, s.total_tokens), (3, 10));
    }

    #[test]
    fn term_table_is_sorted_csr() {
        let idx = TextIndex::build(&sample());
        let terms: Vec<&str> = (0..idx.term_ends.len()).map(|t| idx.term(t)).collect();
        assert_eq!(
            terms,
            ["cover", "hop", "hopi", "indexing", "two", "with", "xml"]
        );
        assert_eq!(idx.row_ends.len(), terms.len());
        assert!(idx.row_ends.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(idx.row_ends.last().copied(), Some(idx.elems.len() as u32));
    }

    #[test]
    fn incremental_matches_batch() {
        let mut c = sample();
        let mut idx = TextIndex::default();
        for d in c.doc_ids() {
            idx = idx.with_document(c.global_id(d, 0), c.document(d).unwrap());
        }
        assert_eq!(idx, TextIndex::build(&c));
        // New terms merge into the table, known ones append to their rows.
        let mut doc = XmlDocument::new("c", "note");
        doc.set_text(0, "zig hop XML");
        let d = c.add_document(doc);
        idx = idx.with_document(c.global_id(d, 0), c.document(d).unwrap());
        assert_eq!(idx, TextIndex::build(&c));
        assert_eq!(idx.lookup("hop").unwrap().elems, &[2, 4, 5]);
    }

    #[test]
    fn deletion_drops_the_range_and_dead_terms() {
        let mut c = sample();
        let idx = TextIndex::build(&c);
        // The first document holds every "indexing", "hopi" and "with".
        let idx = idx.without_document(0, c.document(0).unwrap());
        c.remove_document(0);
        assert_eq!(idx, TextIndex::build(&c));
        assert!(idx.lookup("indexing").is_none());
        assert_eq!(idx.lookup("hop").unwrap().elems, &[4]);
        assert_eq!((idx.stats().vocabulary, idx.total_tokens()), (3, 3));
    }

    #[test]
    fn empty_index() {
        let idx = TextIndex::build(&Collection::new());
        assert_eq!(idx, TextIndex::default());
        assert!(idx.lookup("x").is_none());
        assert_eq!(idx.stats(), TextStats::default());
        assert!((idx.avg_elem_len() - 1.0).abs() < 1e-9);
    }
}
