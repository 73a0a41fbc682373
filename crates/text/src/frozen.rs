//! The frozen term index: postings in two contiguous buffers.
//!
//! Mirrors `FrozenCover`'s CSR layout. Terms are sorted
//! lexicographically; row `t` of the offset array brackets term `t`'s
//! postings inside one concatenated element-id buffer and one parallel
//! term-frequency buffer. Lookup is a binary search over the sorted
//! term table, then two slice borrows — no per-term allocation, and the
//! buffers are position-independent enough to serve from a shared
//! `Arc` across snapshot epochs.

use crate::{PostingsRef, TextIndex, TextSource, TextStats};
use hopi_xml::collection::ElemId;

/// An immutable term index over contiguous buffers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrozenTextIndex {
    /// Terms, sorted lexicographically.
    terms: Vec<String>,
    /// `terms.len() + 1` row offsets into the posting buffers.
    offsets: Vec<u32>,
    /// Concatenated posting element ids, each row sorted ascending.
    elems: Vec<ElemId>,
    /// Term frequencies, parallel to `elems`.
    tfs: Vec<u32>,
    /// Elements carrying text, sorted ascending.
    len_elems: Vec<ElemId>,
    /// Token count per element, parallel to `len_elems`.
    len_vals: Vec<u32>,
    /// Total token occurrences.
    total_tokens: u64,
}

impl FrozenTextIndex {
    /// Freezes a mutable [`TextIndex`] into contiguous buffers. Terms whose
    /// postings were all removed ([`TextIndex::remove_document`]) are left
    /// out, so the frozen form of a maintained index equals that of a
    /// fresh build.
    pub fn from_index(index: &TextIndex) -> Self {
        let vocab = index.vocabulary();
        let lists = index.posting_lists();
        let mut order: Vec<u32> = (0..vocab.len() as u32)
            .filter(|&t| lists.get(t as usize).is_some_and(|p| !p.elems.is_empty()))
            .collect();
        order.sort_unstable_by(|&a, &b| vocab.term(a).cmp(vocab.term(b)));
        let total: usize = lists.iter().map(|p| p.elems.len()).sum();
        let mut terms = Vec::with_capacity(order.len());
        let mut offsets = Vec::with_capacity(order.len() + 1);
        let mut elems = Vec::with_capacity(total);
        let mut tfs = Vec::with_capacity(total);
        offsets.push(0);
        for &t in &order {
            terms.push(vocab.term(t).to_string());
            let p = &lists[t as usize];
            elems.extend_from_slice(&p.elems);
            tfs.extend_from_slice(&p.tfs);
            offsets.push(elems.len() as u32);
        }
        let mut lens: Vec<(ElemId, u32)> =
            index.elem_lens().iter().map(|(&e, &l)| (e, l)).collect();
        lens.sort_unstable();
        FrozenTextIndex {
            terms,
            offsets,
            elems,
            tfs,
            len_elems: lens.iter().map(|&(e, _)| e).collect(),
            len_vals: lens.iter().map(|&(_, l)| l).collect(),
            total_tokens: index.total_tokens(),
        }
    }

    /// Number of distinct terms.
    pub fn vocab_len(&self) -> usize {
        self.terms.len()
    }

    /// The sorted term table.
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// Total bytes of the posting buffers (ids + frequencies).
    pub fn postings_bytes(&self) -> usize {
        self.elems.len() * (std::mem::size_of::<ElemId>() + std::mem::size_of::<u32>())
    }
}

impl TextSource for FrozenTextIndex {
    fn lookup(&self, term: &str) -> Option<PostingsRef<'_>> {
        let t = self
            .terms
            .binary_search_by(|probe| probe.as_str().cmp(term))
            .ok()?;
        let (lo, hi) = (self.offsets[t] as usize, self.offsets[t + 1] as usize);
        Some(PostingsRef {
            elems: &self.elems[lo..hi],
            tfs: &self.tfs[lo..hi],
        })
    }

    fn elem_len(&self, elem: ElemId) -> u32 {
        match self.len_elems.binary_search(&elem) {
            Ok(i) => self.len_vals[i],
            Err(_) => 0,
        }
    }

    fn indexed_elements(&self) -> usize {
        self.len_elems.len()
    }

    fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    fn stats(&self) -> TextStats {
        TextStats {
            vocabulary: self.terms.len(),
            postings: self.elems.len(),
            postings_bytes: self.postings_bytes(),
            indexed_elements: self.len_elems.len(),
            total_tokens: self.total_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_xml::collection::Collection;
    use hopi_xml::model::XmlDocument;

    fn sample_index() -> TextIndex {
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "book");
        let t = d.add_element(0, "title");
        let s = d.add_element(0, "sec");
        d.set_text(t, "XML indexing with HOPI");
        d.set_text(s, "indexing indexing hop");
        c.add_document(d);
        let mut d2 = XmlDocument::new("b", "article");
        let p = d2.add_element(0, "p");
        d2.set_text(p, "two hop cover");
        c.add_document(d2);
        TextIndex::build(&c)
    }

    #[test]
    fn frozen_agrees_with_mutable() {
        let idx = sample_index();
        let frozen = FrozenTextIndex::from_index(&idx);
        assert_eq!(frozen.stats(), idx.stats());
        for t in 0..idx.vocabulary().len() as u32 {
            let term = idx.vocabulary().term(t);
            let (m, f) = (idx.postings(t), frozen.lookup(term).unwrap());
            assert_eq!(m.elems, f.elems, "postings of {term}");
            assert_eq!(m.tfs, f.tfs, "tfs of {term}");
        }
        for e in 0..6 {
            assert_eq!(frozen.elem_len(e), idx.elem_len(e), "len of {e}");
        }
        assert!(frozen.lookup("absent").is_none());
    }

    #[test]
    fn term_table_is_sorted_csr() {
        let frozen = FrozenTextIndex::from_index(&sample_index());
        assert!(frozen.terms().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(frozen.offsets.len(), frozen.vocab_len() + 1);
        assert!(frozen.offsets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*frozen.offsets.last().unwrap() as usize, frozen.elems.len());
    }

    #[test]
    fn empty_index_freezes() {
        let frozen = FrozenTextIndex::from_index(&TextIndex::new());
        assert_eq!(frozen.vocab_len(), 0);
        assert!(frozen.lookup("x").is_none());
        assert_eq!(frozen.stats(), TextStats::default());
        assert!((frozen.avg_elem_len() - 1.0).abs() < 1e-9);
    }
}
