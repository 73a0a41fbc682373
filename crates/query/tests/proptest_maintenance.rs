//! In-place maintenance of the derived indexes: after any sequence of
//! document insertions, deletions and modifications, a tag index and a
//! term index that followed along step by step equal the ones a fresh
//! build of the resulting collection produces — rows, postings per term
//! *string*, element lengths, totals and frozen forms.

use hopi_query::TagIndex;
use hopi_text::{FrozenTextIndex, TextIndex, TextSource};
use hopi_xml::{Collection, XmlDocument};
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

fn assert_equals_rebuild(
    c: &Collection,
    tags: &TagIndex,
    text: &TextIndex,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(tags, &TagIndex::build(c));

    let fresh = TextIndex::build(c);
    prop_assert_eq!(text.stats(), fresh.stats());
    prop_assert_eq!(text.total_tokens(), fresh.total_tokens());
    prop_assert_eq!(text.indexed_elements(), fresh.indexed_elements());
    // Term ids differ between the two (the maintained index interned its
    // terms in another order and keeps dead ones): compare by string.
    for term in TERMS.map(str::to_lowercase) {
        match (text.lookup(&term), fresh.lookup(&term)) {
            (Some(kept), Some(built)) => {
                prop_assert_eq!(kept.elems, built.elems, "postings of {}", &term);
                prop_assert_eq!(kept.tfs, built.tfs, "frequencies of {}", &term);
            }
            (None, None) => {}
            (kept, built) => prop_assert!(false, "{}: {:?} vs {:?}", term, kept, built),
        }
    }
    for e in 0..c.elem_id_bound() as u32 {
        prop_assert_eq!(text.elem_len(e), fresh.elem_len(e), "length of {}", e);
    }
    prop_assert_eq!(
        FrozenTextIndex::from_index(text),
        FrozenTextIndex::from_index(&fresh)
    );
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
        let (mut tags, mut text) = (TagIndex::default(), TextIndex::new());
        for (i, (op, pick, seed)) in steps.into_iter().enumerate() {
            let live: Vec<u32> = c.doc_ids().collect();
            let victim = live.get(pick % live.len().max(1)).copied();
            // Delete (op 2) or modify (op 3): the old version goes —
            // un-indexed while the collection still has it.
            if let (2 | 3, Some(d)) = (op, victim) {
                let base = c.global_id(d, 0);
                let doc = c.document(d).expect("live document");
                tags.remove_document(base, doc);
                text.remove_document(base, doc);
                c.remove_document(d);
            }
            // Insert (ops 0, 1) or modify: a new version arrives.
            if op != 2 {
                let d = c.add_document(document(format!("d{i}"), seed));
                let base = c.global_id(d, 0);
                let doc = c.document(d).expect("just added");
                tags.index_document(base, doc);
                text.index_document(base, doc);
            }
            assert_equals_rebuild(&c, &tags, &text)?;
        }
    }
}
