//! Distance-ranked path evaluation with content-score fusion (paper §5.1).
//!
//! For IR-style XML retrieval, "the ranking of entire XML paths may take
//! into consideration … the length of the connections between qualifying
//! elements. For example, a path where an author element is found far away
//! from a book element should be ranked lower than an author that is a
//! child or grandchild of a book." This module evaluates a path expression
//! against a distance-annotated [`FrozenCover`], tracking for every result
//! the minimal total link distance along the step chain, and scores
//! matches XXL-style with a decaying `1 / (1 + distance)`.
//!
//! Content predicates fuse in: predicates on intermediate steps filter
//! membership (an element without the terms cannot bind the step), while
//! the **final** step's predicate additionally contributes a BM25 text
//! score so that `//book//sec[about(., "xml indexing")]` ranks sections
//! by both structural proximity and term relevance.

use crate::eval::{candidates, roots, tree_children, Corpus};
use crate::expr::{Axis, ContentPredicate, PathExpr};
use hopi_core::FrozenCover;
use hopi_text::{Bm25Scorer, TextIndex};
use hopi_xml::ElemId;
use rustc_hash::FxHashMap;

/// A ranked match: an element plus the minimal accumulated distance of a
/// qualifying path binding and the BM25 text score of the final step's
/// content predicate (0 when the step has none).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedMatch {
    /// The matched (final-step) element.
    pub element: ElemId,
    /// Minimal total number of edges across all steps.
    pub distance: u32,
    /// BM25 score against the final step's predicate terms; `0.0` for
    /// structure-only queries.
    pub text_score: f64,
}

impl RankedMatch {
    /// Fused relevance: the XXL-style `1 / (1 + distance)` structural
    /// decay, scaled up by `1 + text_score`. With no content predicate
    /// this reduces to the pure distance score in `(0, 1]`.
    pub fn score(&self) -> f64 {
        (1.0 + self.text_score) / (1.0 + self.distance as f64)
    }
}

/// Evaluates `expr` with distance tracking and content-score fusion, over
/// a cover carrying distance annotations — paper §5.1's
/// `MIN(LOUT.DIST + LIN.DIST)` ([`FrozenCover::distance`]; a cover without
/// them reports no distance for `u != v`). Intermediate-step predicates
/// filter bindings; the final step's
/// predicate both filters and supplies each match's BM25 `text_score`.
/// Without a term index, steps carrying predicates match nothing.
/// Results are sorted by descending fused score (ties by element id).
pub fn rank(corpus: Corpus<'_, FrozenCover>, expr: &PathExpr) -> Vec<RankedMatch> {
    let Corpus {
        collection,
        index: cover,
        tags,
        text,
    } = corpus;
    // dist[e] = minimal accumulated distance of a binding ending at e.
    let mut dist: FxHashMap<ElemId, u32> = FxHashMap::default();
    let Some(first) = expr.steps.first() else {
        return Vec::new();
    };
    let mut cand_buf = Vec::new();
    match first.axis {
        Axis::Child => dist.extend(
            roots(collection, tags, first.tag.as_deref())
                .into_iter()
                .map(|e| (e, 0)),
        ),
        Axis::Connection => {
            let seeds = candidates(collection, tags, first.tag.as_deref(), &mut cand_buf);
            dist.extend(seeds.iter().map(|&e| (e, 0)));
        }
    }
    filter_by_predicate(&mut dist, first.predicate.as_ref(), text);

    for step in expr.steps.iter().skip(1) {
        let mut next: FxHashMap<ElemId, u32> = FxHashMap::default();
        match step.axis {
            // A tree child has exactly one parent, so its distance is its
            // parent's plus one: no relaxation.
            Axis::Child => match step.tag.as_deref() {
                Some(t) => {
                    next.extend(tags.elements(t).iter().filter_map(|&c| {
                        let du = dist.get(&tags.parent(c)?)?;
                        Some((c, du + 1))
                    }));
                }
                None => {
                    for (&u, &du) in &dist {
                        next.extend(tree_children(collection, u).map(|c| (c, du + 1)));
                    }
                }
            },
            Axis::Connection => {
                let cands = candidates(collection, tags, step.tag.as_deref(), &mut cand_buf);
                for &t in cands {
                    let mut best: Option<u32> = None;
                    for (&u, &du) in &dist {
                        if u == t {
                            continue;
                        }
                        if let Some(d) = cover.distance(u, t) {
                            let total = du + d;
                            best = Some(best.map_or(total, |b| b.min(total)));
                        }
                    }
                    if let Some(b) = best {
                        relax(&mut next, t, b);
                    }
                }
            }
        }
        filter_by_predicate(&mut next, step.predicate.as_ref(), text);
        dist = next;
        if dist.is_empty() {
            break;
        }
    }

    // The final step's predicate supplies the text component.
    let scorer = match (expr.steps.last().and_then(|s| s.predicate.as_ref()), text) {
        (Some(pred), Some(src)) => Some(Bm25Scorer::new(src, &pred.terms)),
        _ => None,
    };
    let mut out: Vec<RankedMatch> = dist
        .into_iter()
        .map(|(element, distance)| RankedMatch {
            element,
            distance,
            text_score: scorer.as_ref().map_or(0.0, |s| s.score(element)),
        })
        .collect();
    out.sort_unstable_by(|a, b| {
        b.score()
            .total_cmp(&a.score())
            .then(a.element.cmp(&b.element))
    });
    out
}

/// Drops bindings whose element fails `pred`. A predicate with no text
/// index empties the map (content is unknowable, so nothing qualifies).
fn filter_by_predicate(
    dist: &mut FxHashMap<ElemId, u32>,
    pred: Option<&ContentPredicate>,
    text: Option<&TextIndex>,
) {
    let Some(pred) = pred else { return };
    match text {
        None => dist.clear(),
        Some(src) => {
            let mut matches = Vec::new();
            crate::eval::predicate_matches(src, pred, &mut matches, &mut Vec::new());
            dist.retain(|e, _| matches.binary_search(e).is_ok());
        }
    }
}

fn relax(map: &mut FxHashMap<ElemId, u32>, e: ElemId, d: u32) {
    map.entry(e)
        .and_modify(|cur| *cur = (*cur).min(d))
        .or_insert(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_path;
    use crate::tag_index::TagIndex;
    use hopi_core::DistanceCoverBuilder;
    use hopi_graph::DistanceClosure;
    use hopi_xml::parser::parse_collection;
    use hopi_xml::Collection;

    fn ranked(
        c: &Collection,
        cover: &FrozenCover,
        tags: &TagIndex,
        expr: &PathExpr,
        text: Option<&TextIndex>,
    ) -> Vec<RankedMatch> {
        let corpus = Corpus {
            collection: c,
            index: cover,
            tags,
            text,
        };
        rank(corpus, expr)
    }

    fn fixture() -> (Collection, FrozenCover, TagIndex) {
        let c = parse_collection([
            (
                "near",
                r#"<book><chapter><author id="close">xml indexing expert</author></chapter></book>"#,
            ),
            (
                "far",
                r#"<book><refs><link xlink:href="elsewhere"/></refs></book>"#,
            ),
            (
                "elsewhere",
                r#"<page><sec><sub><author id="distant">xml novelist</author></sub></sec></page>"#,
            ),
        ])
        .unwrap();
        let dc = DistanceClosure::from_graph(&c.element_graph());
        let cover = DistanceCoverBuilder::new(&dc).build();
        let tags = TagIndex::build(&c);
        (c, cover, tags)
    }

    #[test]
    fn ranks_close_matches_first() {
        let (c, cover, tags) = fixture();
        let expr = parse_path("//book//author").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, None);
        assert_eq!(r.len(), 2);
        let close = c.resolve_ref("near", "close").unwrap();
        let distant = c.resolve_ref("elsewhere", "distant").unwrap();
        assert_eq!(r[0].element, close);
        assert_eq!(r[0].distance, 2); // book → chapter → author
        assert_eq!(r[1].element, distant);
        // book → refs → link → page → sec → sub → author = 6 edges.
        assert_eq!(r[1].distance, 6);
        assert!(r[0].score() > r[1].score());
    }

    #[test]
    fn child_steps_add_one() {
        let (c, cover, tags) = fixture();
        let expr = parse_path("/book/chapter/author").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, None);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].distance, 2);
    }

    #[test]
    fn distances_accumulate_over_steps() {
        let (c, cover, tags) = fixture();
        let expr = parse_path("//book//link//author").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, None);
        assert_eq!(r.len(), 1);
        // book →2 link, link →4 author = 6.
        assert_eq!(r[0].distance, 6);
    }

    #[test]
    fn empty_result_for_unmatched() {
        let (c, cover, tags) = fixture();
        let expr = parse_path("//author//book").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, None);
        assert!(r.is_empty());
    }

    #[test]
    fn score_is_monotone_in_distance() {
        let a = RankedMatch {
            element: 0,
            distance: 0,
            text_score: 0.0,
        };
        let b = RankedMatch {
            element: 0,
            distance: 5,
            text_score: 0.0,
        };
        assert!(a.score() > b.score());
        assert_eq!(a.score(), 1.0);
    }

    #[test]
    fn text_score_lifts_fused_score() {
        let near = RankedMatch {
            element: 0,
            distance: 2,
            text_score: 0.0,
        };
        let far_but_relevant = RankedMatch {
            element: 1,
            distance: 5,
            text_score: 3.0,
        };
        assert!(far_but_relevant.score() > near.score());
    }

    #[test]
    fn ranked_agrees_with_boolean_eval_on_membership() {
        use hopi_partition::{build_index, BuildConfig};
        let (c, cover, tags) = fixture();
        let (index, _) = build_index(&c, &BuildConfig::default());
        let expr = parse_path("//book//author").unwrap();
        let ranked: Vec<ElemId> = ranked(&c, &cover, &tags, &expr, None)
            .into_iter()
            .map(|m| m.element)
            .collect();
        let mut ranked_sorted = ranked.clone();
        ranked_sorted.sort_unstable();
        let boolean = crate::eval::evaluate_with(&c, &index, &tags, &expr, &Default::default());
        assert_eq!(ranked_sorted, boolean);
    }

    #[test]
    fn final_step_predicate_filters_and_scores() {
        let (c, cover, tags) = fixture();
        let text = hopi_text::TextIndex::build(&c);
        let expr = parse_path("//book//author[contains(., \"xml\")]").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, Some(&text));
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|m| m.text_score > 0.0));
        // "indexing" appears only in the close author's text.
        let expr = parse_path("//book//author[contains(., \"indexing\")]").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, Some(&text));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].element, c.resolve_ref("near", "close").unwrap());
        // Predicate but no text index: nothing qualifies.
        let r = ranked(&c, &cover, &tags, &expr, None);
        assert!(r.is_empty());
    }

    #[test]
    fn intermediate_predicates_filter_membership_only() {
        let (c, cover, tags) = fixture();
        let text = hopi_text::TextIndex::build(&c);
        // Restrict the middle binding to the close author's subtree path.
        let expr = parse_path("//chapter[about(., \"expert\")]//author").unwrap();
        // chapter has no direct text — the text sits on author — so no match.
        let r = ranked(&c, &cover, &tags, &expr, Some(&text));
        assert!(r.is_empty());
        // But a predicate naming the author's own text on the author step works,
        // and an intermediate structure-only step leaves text_score at 0 when the
        // final step carries no predicate.
        let expr = parse_path("//author[about(., \"novelist\")]//author").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, Some(&text));
        assert!(r.is_empty()); // authors are leaves; sanity only.
        let expr = parse_path("//book//author").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, Some(&text));
        assert!(r.iter().all(|m| m.text_score == 0.0));
    }

    #[test]
    fn ranked_fusion_orders_by_combined_score() {
        let (c, cover, tags) = fixture();
        let text = hopi_text::TextIndex::build(&c);
        let expr = parse_path("//book//author[about(., \"xml indexing expert\")]").unwrap();
        let r = ranked(&c, &cover, &tags, &expr, Some(&text));
        assert_eq!(r.len(), 2);
        // The close author matches all three terms AND is structurally
        // nearer — it must rank first with a strictly higher fused score.
        let close = c.resolve_ref("near", "close").unwrap();
        assert_eq!(r[0].element, close);
        assert!(r[0].score() > r[1].score());
        assert!(r[0].text_score > r[1].text_score);
    }
}
