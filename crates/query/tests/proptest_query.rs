//! Property tests for path evaluation: on arbitrary collections, the
//! index-backed evaluator must agree with a naive BFS-based oracle for
//! every expression shape (including content predicates against random
//! element text), and the ranked evaluator must agree on membership with
//! correct minimal distances.

use hopi_core::{DistanceCoverBuilder, FrozenCover, LabelSource};
use hopi_graph::{traversal, DistanceClosure};
use hopi_partition::{build_index, BuildConfig};
use hopi_query::{
    evaluate_with, parse_path, rank, Axis, ContentOp, ContentPredicate, Corpus, EvalOptions,
    Evaluator, PathExpr, RankedMatch, Step, Strategy as PlanStrategy, TagIndex,
};
use hopi_text::TextIndex;
use hopi_xml::{Collection, ElemId, XmlDocument};
use proptest::prelude::*;
use rustc_hash::FxHashSet;

/// (element counts per doc, links, per-doc text entropy).
type CollectionBlueprint = (Vec<usize>, Vec<(usize, usize)>, Vec<(usize, usize)>);

/// Arbitrary collection with a limited tag alphabet so expressions match.
fn arb_collection() -> impl Strategy<Value = CollectionBlueprint> {
    let docs = proptest::collection::vec(2usize..7, 2..6);
    docs.prop_flat_map(|docs| {
        let n = docs.len();
        let links = proptest::collection::vec((0..n, 0..n), 0..8);
        let texts = proptest::collection::vec((0..n, 0usize..4096), 0..12);
        (Just(docs), links, texts)
    })
}

/// Small term alphabet so query phrases actually hit.
const TERMS: [&str; 5] = ["xml", "hop", "index", "cover", "zig"];

fn realize(docs: &[usize], links: &[(usize, usize)], texts: &[(usize, usize)]) -> Collection {
    let tags = ["a", "b", "c"];
    let mut c = Collection::new();
    for (i, &n) in docs.iter().enumerate() {
        let mut d = XmlDocument::new(format!("d{i}"), "root");
        for k in 1..n {
            d.add_element((k / 2) as u32, tags[k % tags.len()]);
        }
        // Scatter random multi-term text over random elements; repeated
        // hits on one element append (so term frequencies vary too).
        for &(_, ent) in texts.iter().filter(|&&(di, _)| di == i) {
            let target = (ent % n) as u32;
            let picked: Vec<&str> = TERMS
                .iter()
                .enumerate()
                .filter(|(j, _)| (ent >> (j + 4)) & 1 == 1)
                .map(|(_, t)| *t)
                .collect();
            if !picked.is_empty() {
                d.append_text(target, &picked.join(" "));
            }
        }
        c.add_document(d);
    }
    for &(da, db) in links {
        if da == db {
            continue;
        }
        let (da, db) = (da as u32, db as u32);
        let la = (da as usize) % c.document(da).unwrap().len();
        let lb = (db as usize + 1) % c.document(db).unwrap().len();
        c.add_link(c.global_id(da, la as u32), c.global_id(db, lb as u32));
    }
    c
}

/// Full-scan predicate check against the element's raw text.
fn pred_holds(collection: &Collection, e: ElemId, pred: &ContentPredicate) -> bool {
    let text = collection.element_text(e).unwrap_or_default();
    let tokens: FxHashSet<String> = hopi_text::tokenize(text).collect();
    match pred.op {
        ContentOp::Contains => pred.terms.iter().all(|t| tokens.contains(t)),
        ContentOp::About => pred.terms.iter().any(|t| tokens.contains(t)),
    }
}

/// Naive oracle: evaluate step-by-step with BFS reachability.
fn oracle(collection: &Collection, expr: &PathExpr) -> Vec<ElemId> {
    let g = collection.element_graph();
    let all: Vec<ElemId> = (0..g.id_bound() as u32)
        .filter(|&e| g.is_alive(e))
        .collect();
    let tag_of = |e: ElemId| -> String {
        let (d, l) = collection.to_local(e).unwrap();
        collection.document(d).unwrap().element(l).tag.clone()
    };
    let matches = |e: ElemId, tag: &Option<String>| match tag {
        None => true,
        Some(t) => &tag_of(e) == t,
    };
    let mut current: Vec<ElemId> = match expr.steps[0].axis {
        Axis::Child => collection
            .doc_ids()
            .map(|d| collection.global_id(d, 0))
            .filter(|&r| matches(r, &expr.steps[0].tag))
            .collect(),
        Axis::Connection => all
            .iter()
            .copied()
            .filter(|&e| matches(e, &expr.steps[0].tag))
            .collect(),
    };
    if let Some(pred) = &expr.steps[0].predicate {
        current.retain(|&e| pred_holds(collection, e, pred));
    }
    for step in &expr.steps[1..] {
        let mut next: FxHashSet<ElemId> = FxHashSet::default();
        match step.axis {
            Axis::Child => {
                for &u in &current {
                    let (d, l) = collection.to_local(u).unwrap();
                    let doc = collection.document(d).unwrap();
                    let base = collection.global_id(d, 0);
                    for &ch in &doc.element(l).children {
                        if matches(base + ch, &step.tag) {
                            next.insert(base + ch);
                        }
                    }
                }
            }
            Axis::Connection => {
                for &t in &all {
                    if !matches(t, &step.tag) {
                        continue;
                    }
                    if current
                        .iter()
                        .any(|&u| u != t && traversal::is_reachable(&g, u, t))
                    {
                        next.insert(t);
                    }
                }
            }
        }
        current = next.into_iter().collect();
        if let Some(pred) = &step.predicate {
            current.retain(|&e| pred_holds(collection, e, pred));
        }
        current.sort_unstable();
    }
    current.sort_unstable();
    current
}

/// Expression shapes over `realize`'s trees, where every root is tagged
/// `root` and element `k` hangs under `k / 2` with tag `a`, `b` or `c` by
/// `k % 3`. Child steps read the tag index's parent column: `//c/c` puts a
/// parent and its same-tag child in one context (`c` is the only tag
/// nested under itself within a document of at most six elements),
/// `/*/*/b` and `/*/*/c` follow the document walk of `/*` with a tagged
/// step, `//b/c//a` takes a child step from a context of every `b` into a
/// `//` step, `/*/zz` names a tag no element carries, and `/a//b` seeds
/// from a tag that only occurs below the roots.
fn expressions() -> Vec<PathExpr> {
    [
        "//a",
        "//b//c",
        "/root//a",
        "/root/a",
        "/root/*//b",
        "//a//*",
        "//c//a//b",
        "/root/a/b",
        "//*//a",
        "//c/c",
        "/*/*/b",
        "/*/*/c",
        "//b/c//a",
        "/*/zz",
        "/a//b",
    ]
    .iter()
    .map(|s| parse_path(s).unwrap())
    .collect()
}

/// Expressions exercising content predicates at the seed, middle, and
/// final step, in conjunctive and disjunctive form, plus an out-of-
/// vocabulary term ("zag").
fn content_expressions() -> Vec<PathExpr> {
    [
        "//a[contains(., \"xml\")]",
        "//b[about(., \"xml hop\")]",
        "//a[about(., \"hop cover\")]//b",
        "/root//b[contains(., \"hop index\")]",
        "//*[about(., \"cover\")]",
        "//a//c[contains(., \"zig zag\")]",
        "/root/a[contains(., \"index\")]/b",
        "//c[contains(., \"xml\")]//a[about(., \"zig\")]",
    ]
    .iter()
    .map(|s| parse_path(s).unwrap())
    .collect()
}

/// Boolean evaluation resolving content predicates against `text`.
fn eval_text<S: LabelSource>(
    c: &Collection,
    index: &S,
    tags: &TagIndex,
    expr: &PathExpr,
    options: &EvalOptions,
    text: &TextIndex,
) -> Vec<ElemId> {
    let corpus = Corpus {
        collection: c,
        index,
        tags,
        text: Some(text),
    };
    Evaluator::new().run(corpus, expr, options, None)
}

/// Ranked evaluation over a distance-annotated cover.
fn ranked(
    c: &Collection,
    distances: &FrozenCover,
    tags: &TagIndex,
    expr: &PathExpr,
    text: Option<&TextIndex>,
) -> Vec<RankedMatch> {
    let corpus = Corpus {
        collection: c,
        index: distances,
        tags,
        text,
    };
    rank(corpus, expr)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn eval_matches_oracle((docs, links, shapes) in arb_collection()) {
        let c = realize(&docs, &links, &shapes);
        let (index, _) = build_index(&c, &BuildConfig::default());
        let tags = TagIndex::build(&c);
        for expr in expressions() {
            let got = evaluate_with(&c, &index, &tags, &expr, &EvalOptions::default());
            let expect = oracle(&c, &expr);
            prop_assert_eq!(got, expect, "expr {}", expr);
        }
    }

    #[test]
    fn all_four_strategies_match_oracle((docs, links, shapes) in arb_collection()) {
        // Every physical `//`-step strategy — forced via `EvalOptions` —
        // agrees with the BFS oracle on arbitrary (cyclic) collections,
        // against both the mutable index and the frozen CSR cover.
        let c = realize(&docs, &links, &shapes);
        let (index, _) = build_index(&c, &BuildConfig::default());
        let frozen = FrozenCover::from_cover(index.cover());
        let tags = TagIndex::build(&c);
        for expr in expressions() {
            let expect = oracle(&c, &expr);
            for strategy in PlanStrategy::ALL {
                let options = EvalOptions {
                    force_strategy: Some(strategy),
                    ..EvalOptions::default()
                };
                let mutable = evaluate_with(&c, &index, &tags, &expr, &options);
                prop_assert_eq!(&mutable, &expect, "expr {} strategy {} mutable", expr, strategy);
                let frozen_r = evaluate_with(&c, &frozen, &tags, &expr, &options);
                prop_assert_eq!(&frozen_r, &expect, "expr {} strategy {} frozen", expr, strategy);
            }
        }
    }

    #[test]
    fn ranked_matches_boolean_membership((docs, links, shapes) in arb_collection()) {
        let c = realize(&docs, &links, &shapes);
        let (index, _) = build_index(&c, &BuildConfig::default());
        let dc = DistanceClosure::from_graph(&c.element_graph());
        let cover = DistanceCoverBuilder::new(&dc).build();
        let tags = TagIndex::build(&c);
        for expr in expressions() {
            let boolean = evaluate_with(&c, &index, &tags, &expr, &EvalOptions::default());
            let mut ranked: Vec<ElemId> = ranked(&c, &cover, &tags, &expr, None)
                .into_iter()
                .map(|m| m.element)
                .collect();
            ranked.sort_unstable();
            prop_assert_eq!(ranked, boolean, "expr {}", expr);
        }
    }

    #[test]
    fn content_predicates_match_full_scan_oracle((docs, links, texts) in arb_collection()) {
        // Content-and-structure queries agree with a naive full-scan
        // oracle, over the mutable AND frozen covers, on the boolean AND
        // ranked paths.
        let c = realize(&docs, &links, &texts);
        let (index, _) = build_index(&c, &BuildConfig::default());
        let frozen_cover = FrozenCover::from_cover(index.cover());
        let tags = TagIndex::build(&c);
        let text = TextIndex::build(&c);
        let dc = DistanceClosure::from_graph(&c.element_graph());
        let distance_cover = DistanceCoverBuilder::new(&dc).build();
        let options = EvalOptions::default();
        for expr in content_expressions() {
            let expect = oracle(&c, &expr);
            let mutable = eval_text(&c, &index, &tags, &expr, &options, &text);
            prop_assert_eq!(&mutable, &expect, "expr {} mutable", expr);
            let frozen = eval_text(&c, &frozen_cover, &tags, &expr, &options, &text);
            prop_assert_eq!(&frozen, &expect, "expr {} frozen", expr);
            let live = ranked(&c, &distance_cover, &tags, &expr, Some(&text));
            let mut members: Vec<ElemId> = live.iter().map(|m| m.element).collect();
            members.sort_unstable();
            prop_assert_eq!(&members, &expect, "expr {} ranked", expr);
        }
    }

    #[test]
    fn single_connection_step_distances_are_minimal((docs, links, shapes) in arb_collection()) {
        // For two-step //X//Y expressions, the reported distance must equal
        // the minimal BFS distance from any X element.
        let c = realize(&docs, &links, &shapes);
        let dc = DistanceClosure::from_graph(&c.element_graph());
        let cover = DistanceCoverBuilder::new(&dc).build();
        let tags = TagIndex::build(&c);
        let expr = parse_path("//a//b").unwrap();
        let ranked = ranked(&c, &cover, &tags, &expr, None);
        let g = c.element_graph();
        for m in ranked {
            let expect = tags
                .elements("a")
                .iter()
                .filter(|&&u| u != m.element)
                .filter_map(|&u| {
                    let d = traversal::bfs_distances(&g, u)[m.element as usize];
                    (d != u32::MAX).then_some(d)
                })
                .min()
                .expect("ranked match must be reachable");
            prop_assert_eq!(m.distance, expect, "element {}", m.element);
        }
    }
}

#[test]
fn step_struct_is_constructible() {
    // API sanity: Step/PathExpr are plain data for programmatic building.
    let expr = PathExpr {
        steps: vec![
            Step {
                axis: Axis::Connection,
                tag: Some("a".into()),
                predicate: ContentPredicate::new(ContentOp::About, "hop"),
            },
            Step {
                axis: Axis::Child,
                tag: None,
                predicate: None,
            },
        ],
    };
    assert_eq!(expr.to_string(), "//a[about(., \"hop\")]/*");
}
