//! BM25-style scoring of elements against a bag of query terms.
//!
//! The classic Okapi formulation with element-length normalization:
//! elements are the retrieval unit (INEX-style), so `N`, df, and the
//! length prior all speak elements, not documents.

use crate::{PostingsRef, TextIndex};
use hopi_xml::collection::ElemId;

/// Term-frequency saturation.
pub const K1: f64 = 1.2;
/// Length-normalization strength.
pub const B: f64 = 0.75;

/// Scores elements against a fixed set of query terms, with per-term
/// posting lists and idf resolved once at construction.
pub struct Bm25Scorer<'a> {
    src: &'a TextIndex,
    avg_len: f64,
    /// `(postings, idf)` for each query term found in the vocabulary.
    terms: Vec<(PostingsRef<'a>, f64)>,
}

impl<'a> Bm25Scorer<'a> {
    /// Prepares a scorer for `terms`. Out-of-vocabulary terms
    /// contribute nothing.
    pub fn new(src: &'a TextIndex, terms: &[String]) -> Self {
        let n = src.indexed_elements() as f64;
        let resolved = terms
            .iter()
            .filter_map(|t| src.lookup(t))
            .map(|p| {
                let df = p.len() as f64;
                // Robertson-Sparck Jones idf in its always-positive form.
                let idf = (1.0 + (n - df + 0.5) / (df + 0.5)).ln();
                (p, idf)
            })
            .collect();
        Bm25Scorer {
            src,
            avg_len: src.avg_elem_len(),
            terms: resolved,
        }
    }

    /// BM25 score of one element: sum over query terms of
    /// `idf · tf·(k1+1) / (tf + k1·(1−b+b·len/avg_len))`.
    pub fn score(&self, elem: ElemId) -> f64 {
        if self.terms.is_empty() {
            return 0.0;
        }
        let len = f64::from(self.src.elem_len(elem));
        let norm = K1 * (1.0 - B + B * len / self.avg_len);
        let mut score = 0.0;
        for (postings, idf) in &self.terms {
            let tf = f64::from(postings.tf(elem));
            if tf > 0.0 {
                score += idf * tf * (K1 + 1.0) / (tf + norm);
            }
        }
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_xml::collection::Collection;
    use hopi_xml::model::XmlDocument;

    fn sample() -> TextIndex {
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "r");
        for (i, text) in [
            "xml indexing",              // elem 1
            "xml xml xml",               // elem 2
            "databases and other words", // elem 3
        ]
        .iter()
        .enumerate()
        {
            let e = d.add_element(0, format!("s{i}"));
            d.set_text(e, *text);
        }
        c.add_document(d);
        TextIndex::build(&c)
    }

    #[test]
    fn matching_elements_outscore_nonmatching() {
        let idx = sample();
        let scorer = Bm25Scorer::new(&idx, &["xml".into(), "indexing".into()]);
        let both = scorer.score(1);
        let one = scorer.score(2);
        let none = scorer.score(3);
        assert!(both > one, "both terms {both} vs one {one}");
        assert!(one > 0.0);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn rare_terms_weigh_more() {
        let idx = sample();
        // "indexing" (df 1) should out-weigh "xml" (df 2) at equal tf.
        let rare = Bm25Scorer::new(&idx, &["indexing".into()]).score(1);
        let common = Bm25Scorer::new(&idx, &["xml".into()]).score(1);
        assert!(rare > common, "rare {rare} vs common {common}");
    }

    #[test]
    fn tf_saturates() {
        let idx = sample();
        let scorer = Bm25Scorer::new(&idx, &["xml".into()]);
        // tf 3 at equal-ish length beats tf 1, but by less than 3x (k1 caps it).
        let heavy = scorer.score(2);
        let light = scorer.score(1);
        assert!(heavy > light);
        assert!(heavy < light * 3.0);
    }

    #[test]
    fn out_of_vocabulary_scores_zero() {
        let idx = sample();
        let scorer = Bm25Scorer::new(&idx, &["nonexistent".into()]);
        assert_eq!(scorer.score(1), 0.0);
    }
}
