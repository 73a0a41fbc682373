//! Element-granular term index for content-and-structure queries.
//!
//! HOPI's workload (INEX) mixes structural axes with term predicates —
//! `//section[about(., "xml indexing")]` — so the structure index needs a
//! content-side companion. This crate provides it:
//!
//! * [`TextIndex`] — a term-level inverted index over a [`Collection`]'s
//!   element text in CSR layout, mirroring `FrozenCover`: a sorted term
//!   table, one row per term, postings `(element id, term frequency)`
//!   concatenated in term order. It is built straight from a collection
//!   and rewritten in one pass per inserted or deleted document.
//! * [`Bm25Scorer`] — BM25-style tf·idf with element-length
//!   normalization, fused into ranked retrieval by `hopi_query`.
//!
//! Tokenization ([`tokenize`]) is deliberately plain: Unicode
//! alphanumeric runs, lowercased. Posting lists are handed out as sorted
//! slices so evaluation can intersect them with sorted candidate sets by
//! merge or galloping search.
//!
//! [`Collection`]: hopi_xml::Collection

#![forbid(unsafe_code)]

mod index;
mod score;

pub use index::TextIndex;
pub use score::{Bm25Scorer, B, K1};

use hopi_xml::collection::ElemId;

/// Splits text into lowercase Unicode-alphanumeric tokens.
pub fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
}

/// One term's posting list: parallel slices of element ids (sorted
/// ascending, unique) and term frequencies.
#[derive(Clone, Copy, Debug, Default)]
pub struct PostingsRef<'a> {
    /// Element ids holding the term, sorted ascending.
    pub elems: &'a [ElemId],
    /// Term frequency per element, parallel to `elems`.
    pub tfs: &'a [u32],
}

impl<'a> PostingsRef<'a> {
    /// Number of postings (the term's document frequency, element-granular).
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when the term occurs nowhere.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Term frequency in `elem` (0 when absent).
    pub fn tf(&self, elem: ElemId) -> u32 {
        match self.elems.binary_search(&elem) {
            Ok(i) => self.tfs.get(i).copied().unwrap_or(0),
            Err(_) => 0,
        }
    }
}

/// Size and shape statistics of a term index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TextStats {
    /// Distinct terms.
    pub vocabulary: usize,
    /// Total postings across all terms.
    pub postings: usize,
    /// Bytes held by posting storage (element ids + term frequencies).
    pub postings_bytes: usize,
    /// Elements that carry at least one token.
    pub indexed_elements: usize,
    /// Total token occurrences.
    pub total_tokens: u64,
}

impl TextStats {
    /// Posting storage cost per posting (0 when empty).
    pub fn bytes_per_posting(&self) -> f64 {
        if self.postings == 0 {
            0.0
        } else {
            self.postings_bytes as f64 / self.postings as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        let toks: Vec<String> = tokenize("XML-Indexing, 2-hop (HOPI)!").collect();
        assert_eq!(toks, ["xml", "indexing", "2", "hop", "hopi"]);
        assert_eq!(tokenize("").count(), 0);
        assert_eq!(tokenize("  ,,  ").count(), 0);
    }

    #[test]
    fn postings_tf_lookup() {
        let p = PostingsRef {
            elems: &[2, 5, 9],
            tfs: &[1, 3, 2],
        };
        assert_eq!(p.len(), 3);
        assert_eq!(p.tf(5), 3);
        assert_eq!(p.tf(4), 0);
    }

    #[test]
    fn stats_bytes_per_posting() {
        let s = TextStats {
            vocabulary: 2,
            postings: 4,
            postings_bytes: 32,
            indexed_elements: 3,
            total_tokens: 10,
        };
        assert!((s.bytes_per_posting() - 8.0).abs() < 1e-9);
        assert_eq!(TextStats::default().bytes_per_posting(), 0.0);
    }
}
