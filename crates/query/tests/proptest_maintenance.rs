//! In-place maintenance of the derived indexes: after any sequence of
//! document insertions, deletions and modifications, a tag index and a
//! term index that followed along step by step equal the ones a fresh
//! build of the resulting collection produces — rows, parent column,
//! term table, postings, element lengths and totals — and child steps
//! read from the maintained tag index answer like a walk of the
//! documents.

use hopi_partition::{build_index, BuildConfig};
use hopi_query::{evaluate_with, parse_path, TagIndex};
use hopi_text::TextIndex;
use hopi_xml::{Collection, ElemId, XmlDocument};
use proptest::prelude::*;

/// Tags and terms come from small alphabets, some of them rare, so that
/// deletions regularly remove the last element of a tag and the last
/// posting of a term.
const TAGS: [&str; 6] = ["a", "b", "c", "rare", "odd", "once"];
const TERMS: [&str; 7] = ["xml", "hop", "index", "cover", "zig", "Rare", "once"];

/// A document of `2 + seed % 5` elements whose tags and text are spelled
/// out by the bits of `seed`.
fn document(name: String, seed: usize) -> XmlDocument {
    let mut d = XmlDocument::new(name, TAGS[seed % 3]);
    for k in 1..2 + seed % 5 {
        let tag = TAGS[(seed >> k) % TAGS.len()];
        let e = d.add_element((k / 2) as u32, tag);
        let words: Vec<&str> = TERMS
            .iter()
            .enumerate()
            .filter(|(j, _)| (seed >> (j + k)) & 1 == 1)
            .map(|(_, t)| *t)
            .collect();
        if (seed >> (k + 3)) & 1 == 1 {
            d.set_text(e, words.join(", "));
        }
        if seed % 7 == k {
            d.append_text(e, " hop hop");
        }
    }
    d
}

/// Child-axis expressions checked after every step, as (expression,
/// parent must be a root, parent tag, child tag): a root seed and a child
/// step after a `//` seed, both answered from the parent column.
const CHILD_EXPRESSIONS: [(&str, bool, &str, &str); 2] =
    [("/a/b", true, "a", "b"), ("//b/a", false, "b", "a")];

/// Oracle for `/p/t` and `//p/t`: a walk of every live document for the
/// elements tagged `t` whose parent is tagged `p` (and is the root).
fn child_oracle(c: &Collection, rooted: bool, parent_tag: &str, tag: &str) -> Vec<ElemId> {
    let mut out = Vec::new();
    for d in c.doc_ids() {
        let doc = c.document(d).expect("live document");
        let base = c.global_id(d, 0);
        for (local, e) in doc.elements() {
            let Some(p) = e.parent else { continue };
            if e.tag == tag && doc.element(p).tag == parent_tag && (!rooted || p == 0) {
                out.push(base + local);
            }
        }
    }
    out
}

fn assert_child_steps_match_oracle(c: &Collection, tags: &TagIndex) -> Result<(), TestCaseError> {
    let (index, _) = build_index(c, &BuildConfig::default());
    for (expr, rooted, parent_tag, tag) in CHILD_EXPRESSIONS {
        let parsed = parse_path(expr).expect("valid expression");
        let got = evaluate_with(c, &index, tags, &parsed, &Default::default());
        prop_assert_eq!(got, child_oracle(c, rooted, parent_tag, tag), "{}", expr);
    }
    Ok(())
}

fn assert_equals_rebuild(
    c: &Collection,
    tags: &TagIndex,
    text: &TextIndex,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(tags, &TagIndex::build(c));
    // One equality covers the term table, every row, the element lengths
    // and the totals, so BM25 scores are bit-identical to a fresh build's.
    prop_assert_eq!(text, &TextIndex::build(c));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A step is an operation selector, the document it picks (modulo
    /// the live ones) and a seed for the content of a new document.
    #[test]
    fn in_place_maintenance_equals_a_rebuild(
        steps in proptest::collection::vec((0u32..4, 0usize..64, 0usize..1 << 14), 1..40),
    ) {
        let mut c = Collection::new();
        let (mut tags, mut text) = (TagIndex::default(), TextIndex::default());
        for (i, (op, pick, seed)) in steps.into_iter().enumerate() {
            let live: Vec<u32> = c.doc_ids().collect();
            let victim = live.get(pick % live.len().max(1)).copied();
            // Delete (op 2) or modify (op 3): the old version goes —
            // un-indexed while the collection still has it.
            if let (2 | 3, Some(d)) = (op, victim) {
                let base = c.global_id(d, 0);
                let doc = c.document(d).expect("live document");
                tags.remove_document(base, doc);
                text = text.without_document(base, doc);
                c.remove_document(d);
            }
            // Insert (ops 0, 1) or modify: a new version arrives.
            if op != 2 {
                let d = c.add_document(document(format!("d{i}"), seed));
                let base = c.global_id(d, 0);
                let doc = c.document(d).expect("just added");
                tags.index_document(base, doc);
                text = text.with_document(base, doc);
            }
            assert_equals_rebuild(&c, &tags, &text)?;
            assert_child_steps_match_oracle(&c, &tags)?;
        }
    }
}
