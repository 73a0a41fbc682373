//! The mutable term index: vocabulary plus growable posting lists.

use crate::{tokenize, PostingsRef, TermId, TextSource, TextStats};
use hopi_xml::collection::{Collection, ElemId};
use hopi_xml::model::XmlDocument;
use rustc_hash::FxHashMap;

/// Interns terms to dense [`TermId`]s.
#[derive(Clone, Debug, Default)]
pub struct Vocabulary {
    terms: Vec<String>,
    map: FxHashMap<String, TermId>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id of `term`, interning it if new.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.map.get(term) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(term.to_string());
        self.map.insert(term.to_string(), id);
        id
    }

    /// Looks a term up without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.map.get(term).copied()
    }

    /// The term string behind an id.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Bytes held by the term strings themselves.
    pub fn term_bytes(&self) -> usize {
        self.terms.iter().map(|t| t.len()).sum()
    }
}

#[derive(Clone, Debug, Default)]
pub(crate) struct PostingList {
    pub(crate) elems: Vec<ElemId>,
    pub(crate) tfs: Vec<u32>,
}

impl PostingList {
    /// Adds `tf` occurrences of the term in `elem`, keeping `elems`
    /// sorted. Appends are O(1) — the common case, since documents are
    /// indexed in ascending global-id order.
    fn add(&mut self, elem: ElemId, tf: u32) {
        match self.elems.last() {
            Some(&last) if last < elem => {
                self.elems.push(elem);
                self.tfs.push(tf);
            }
            None => {
                self.elems.push(elem);
                self.tfs.push(tf);
            }
            _ => match self.elems.binary_search(&elem) {
                Ok(i) => self.tfs[i] += tf,
                Err(i) => {
                    self.elems.insert(i, elem);
                    self.tfs.insert(i, tf);
                }
            },
        }
    }

    /// Drops the postings of elements `base..end`.
    fn remove_range(&mut self, base: ElemId, end: ElemId) {
        let lo = self.elems.partition_point(|&e| e < base);
        let hi = self.elems.partition_point(|&e| e < end);
        self.elems.drain(lo..hi);
        self.tfs.drain(lo..hi);
    }
}

/// A term-level inverted index over a collection's element text.
///
/// Follows the collection in place: [`TextIndex::index_document`] appends
/// one document's text, [`TextIndex::remove_document`] drains it again,
/// [`TextIndex::build`] indexes a whole collection. A term whose last
/// posting was removed stays interned (term ids are positions) but is
/// invisible: lookups miss it, the statistics and the frozen form skip it,
/// so a maintained index answers and counts like a fresh build.
#[derive(Clone, Debug, Default)]
pub struct TextIndex {
    vocab: Vocabulary,
    postings: Vec<PostingList>,
    elem_lens: FxHashMap<ElemId, u32>,
    total_tokens: u64,
}

impl TextIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes every live document of a collection.
    pub fn build(collection: &Collection) -> Self {
        let mut index = Self::new();
        for d in collection.doc_ids() {
            let base = collection.global_id(d, 0);
            if let Some(doc) = collection.document(d) {
                index.index_document(base, doc);
            }
        }
        index
    }

    /// Indexes one document whose elements start at global id `base`.
    pub fn index_document(&mut self, base: ElemId, doc: &XmlDocument) {
        let mut counts: FxHashMap<TermId, u32> = FxHashMap::default();
        for (local, text) in doc.texts() {
            counts.clear();
            let mut len = 0u32;
            for token in tokenize(text) {
                *counts.entry(self.vocab.intern(&token)).or_insert(0) += 1;
                len += 1;
            }
            if len == 0 {
                continue;
            }
            let elem = base + local;
            self.postings
                .resize_with(self.vocab.len(), Default::default);
            // Sorted term order keeps posting construction deterministic.
            let mut terms: Vec<(TermId, u32)> = counts.iter().map(|(&t, &c)| (t, c)).collect();
            terms.sort_unstable();
            for (term, tf) in terms {
                self.postings[term as usize].add(elem, tf);
            }
            *self.elem_lens.entry(elem).or_insert(0) += len;
            self.total_tokens += u64::from(len);
        }
    }

    /// Removes one document indexed at global id `base`: drains its id
    /// range from the posting list of each of its terms and forgets its
    /// element lengths.
    pub fn remove_document(&mut self, base: ElemId, doc: &XmlDocument) {
        let end = base + doc.len() as ElemId;
        for (local, text) in doc.texts() {
            for token in tokenize(text) {
                let list = self.vocab.get(&token);
                if let Some(list) = list.and_then(|t| self.postings.get_mut(t as usize)) {
                    list.remove_range(base, end);
                }
            }
            if let Some(len) = self.elem_lens.remove(&(base + local)) {
                self.total_tokens -= u64::from(len);
            }
        }
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The posting list of a term id.
    pub fn postings(&self, term: TermId) -> PostingsRef<'_> {
        let p = &self.postings[term as usize];
        PostingsRef {
            elems: &p.elems,
            tfs: &p.tfs,
        }
    }

    pub(crate) fn posting_lists(&self) -> &[PostingList] {
        &self.postings
    }

    pub(crate) fn elem_lens(&self) -> &FxHashMap<ElemId, u32> {
        &self.elem_lens
    }
}

impl TextSource for TextIndex {
    fn lookup(&self, term: &str) -> Option<PostingsRef<'_>> {
        let postings = self.postings(self.vocab.get(term)?);
        (!postings.is_empty()).then_some(postings)
    }

    fn elem_len(&self, elem: ElemId) -> u32 {
        self.elem_lens.get(&elem).copied().unwrap_or(0)
    }

    fn indexed_elements(&self) -> usize {
        self.elem_lens.len()
    }

    fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    fn stats(&self) -> TextStats {
        let postings: usize = self.postings.iter().map(|p| p.elems.len()).sum();
        TextStats {
            vocabulary: self.postings.iter().filter(|p| !p.elems.is_empty()).count(),
            postings,
            postings_bytes: postings * (std::mem::size_of::<ElemId>() + std::mem::size_of::<u32>()),
            indexed_elements: self.elem_lens.len(),
            total_tokens: self.total_tokens,
        }
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
        assert_eq!(s.vocabulary, idx.vocabulary().len());
        assert!(s.postings >= s.vocabulary); // every term occurs somewhere
        assert_eq!(s.postings_bytes, s.postings * 8);
    }

    #[test]
    fn incremental_matches_batch() {
        let c = sample();
        let batch = TextIndex::build(&c);
        let mut inc = TextIndex::new();
        for d in c.doc_ids() {
            inc.index_document(c.global_id(d, 0), c.document(d).unwrap());
        }
        assert_eq!(batch.stats(), inc.stats());
        for term in ["xml", "indexing", "hop", "cover"] {
            let (b, i) = (batch.lookup(term).unwrap(), inc.lookup(term).unwrap());
            assert_eq!(b.elems, i.elems);
            assert_eq!(b.tfs, i.tfs);
        }
    }
}
