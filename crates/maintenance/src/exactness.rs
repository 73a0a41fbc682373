//! Exactness of §6 maintenance under every link-integration choice.
//!
//! Random programs of link and document insertions — and, in the second
//! property, Theorem 2 and Theorem 3 deletions — run on random cyclic
//! collections four times: once with each [`Integration`] forced for every
//! link, once with the cost-picked choice of the public entry points.
//! After every step the cover must answer every live pair as a BFS over
//! the element graph does, hold only true connections, and pass
//! [`hopi_core::TwoHopCover::check_invariants`]. The deletions pin that
//! the Theorem 3 splice stays exact on label-copied covers.

use crate::delete::{delete_document, delete_link, DeletionAlgorithm};
use crate::insert::{insert_document, insert_link, integrate_link_as, DocumentLinks, Integration};
use hopi_core::HopiIndex;
use hopi_graph::traversal;
use hopi_partition::{build_index, BuildConfig};
use hopi_xml::generator::{random_collection, RandomConfig};
use hopi_xml::{Collection, ElemId, XmlDocument};
use proptest::prelude::*;

/// The forced choices, then `None`: the cost-picked one.
const MODES: [Option<Integration>; 4] = [
    Some(Integration::Center),
    Some(Integration::LoutCopy),
    Some(Integration::LinCopy),
    None,
];

/// One step: an operation selector and three raw picks, each read modulo
/// whatever it picks from at that point of the program.
type Step = (u32, usize, usize, usize);

fn collection(seed: u64) -> Collection {
    random_collection(&RandomConfig {
        num_docs: 7,
        elements_range: (1, 4),
        num_links: 9,
        num_intra_links: 3,
        allow_cycles: true,
        text: Default::default(),
        seed,
    })
}

fn live_elements(c: &Collection) -> Vec<ElemId> {
    c.doc_ids()
        .flat_map(|d| {
            let base = c.global_id(d, 0);
            let len = c.document(d).map_or(0, XmlDocument::len) as u32;
            base..base + len
        })
        .collect()
}

fn pick<T: Copy>(items: &[T], raw: usize) -> Option<T> {
    items.get(raw % items.len().max(1)).copied()
}

/// Inserts `from → to` integrated as `mode` says.
fn link(
    c: &mut Collection,
    index: &mut HopiIndex,
    from: ElemId,
    to: ElemId,
    mode: Option<Integration>,
) {
    match mode {
        None => {
            insert_link(c, index, from, to).expect("live endpoints in two documents");
        }
        Some(choice) => {
            if c.add_link(from, to) {
                integrate_link_as(index.cover_mut(), from, to, choice);
            }
        }
    }
}

/// Inserts a document with its links integrated as `mode` says: with a
/// forced choice, the document goes in without links and each link is
/// then integrated like a standalone one — what [`insert_document`] does.
fn document(
    c: &mut Collection,
    index: &mut HopiIndex,
    doc: XmlDocument,
    links: &DocumentLinks,
    mode: Option<Integration>,
) {
    let Some(choice) = mode else {
        insert_document(c, index, doc, links);
        return;
    };
    let (d, _) = insert_document(c, index, doc, &DocumentLinks::default());
    for &(local, target) in &links.outgoing {
        link(c, index, c.global_id(d, local), target, Some(choice));
    }
    for &(source, local) in &links.incoming {
        link(c, index, source, c.global_id(d, local), Some(choice));
    }
}

/// Applies one step; returns the deletion algorithm when a document was
/// deleted.
fn apply(
    c: &mut Collection,
    index: &mut HopiIndex,
    step: Step,
    serial: usize,
    deletes: bool,
    mode: Option<Integration>,
) -> Option<DeletionAlgorithm> {
    let (op, a, b, e) = step;
    let live = live_elements(c);
    match op % if deletes { 8 } else { 6 } {
        0..=3 => {
            let (Some(from), Some(to)) = (pick(&live, a), pick(&live, b)) else {
                return None;
            };
            if c.doc_of(from) != c.doc_of(to) {
                link(c, index, from, to, mode);
            }
        }
        4 | 5 => {
            let mut doc = XmlDocument::new(format!("new{serial}"), "r");
            for k in 1..=a % 3 {
                doc.add_element((k - 1) as u32, "x");
            }
            let last = doc.len() as u32 - 1;
            let links = DocumentLinks {
                outgoing: pick(&live, b).map(|t| (last, t)).into_iter().collect(),
                incoming: pick(&live, e).map(|s| (s, 0)).into_iter().collect(),
            };
            document(c, index, doc, &links, mode);
        }
        6 => {
            if let Some(l) = pick(c.links(), a) {
                delete_link(c, index, l.from, l.to);
            }
        }
        _ => {
            let docs: Vec<u32> = c.doc_ids().collect();
            if docs.len() > 2 {
                let d = pick(&docs, a).expect("live documents");
                return Some(delete_document(c, index, d).algorithm);
            }
        }
    }
    None
}

/// The cover answers every live pair as BFS does, holds only true
/// connections between live elements, and is internally consistent.
fn assert_exact(c: &Collection, index: &HopiIndex) -> Result<(), TestCaseError> {
    let g = c.element_graph();
    let cover = index.cover();
    for u in 0..g.id_bound() as u32 {
        if !g.is_alive(u) {
            prop_assert!(cover.lout(u).is_empty() && cover.lin(u).is_empty());
            continue;
        }
        let reach = traversal::reachable_from(&g, u);
        for v in (0..g.id_bound() as u32).filter(|&v| g.is_alive(v)) {
            prop_assert_eq!(index.connected(u, v), reach.contains(v), "({}, {})", u, v);
        }
        for &w in cover.lout(u) {
            prop_assert!(g.is_alive(w) && reach.contains(w), "Lout({}) ∋ {}", u, w);
        }
    }
    for v in (0..g.id_bound() as u32).filter(|&v| g.is_alive(v)) {
        for &w in cover.lin(v) {
            let reach = traversal::reachable_from(&g, w);
            prop_assert!(g.is_alive(w) && reach.contains(v), "Lin({}) ∋ {}", v, w);
        }
    }
    cover.check_invariants();
    Ok(())
}

fn run(seed: u64, steps: &[Step], deletes: bool) -> Result<[usize; 2], TestCaseError> {
    let mut algorithms = [0usize; 2];
    for mode in MODES {
        let mut c = collection(seed);
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        for (serial, &step) in steps.iter().enumerate() {
            match apply(&mut c, &mut index, step, serial, deletes, mode) {
                Some(DeletionAlgorithm::FastSeparator) => algorithms[0] += 1,
                Some(DeletionAlgorithm::General) => algorithms[1] += 1,
                None => {}
            }
            assert_exact(&c, &index)?;
        }
    }
    Ok(algorithms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn inserts_stay_exact_under_every_choice(
        seed in 0u64..1 << 20,
        steps in proptest::collection::vec((0u32..8, 0usize..64, 0usize..64, 0usize..64), 1..14),
    ) {
        run(seed, &steps, false)?;
    }

    #[test]
    fn deletes_stay_exact_on_label_copied_covers(
        seed in 0u64..1 << 20,
        steps in proptest::collection::vec((0u32..8, 0usize..64, 0usize..64, 0usize..64), 1..14),
    ) {
        run(seed, &steps, true)?;
    }
}

/// The deletion programs reach both theorems (a property that never ran
/// Theorem 2 or never ran Theorem 3 would pin nothing about it).
#[test]
fn deletion_programs_run_both_theorems() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(7);
    let mut seen = [0usize; 2];
    for _ in 0..24 {
        let steps: Vec<Step> = (0..12)
            .map(|_| {
                (
                    rng.gen_range(0..8),
                    rng.gen_range(0..64),
                    rng.gen_range(0..64),
                    rng.gen_range(0..64),
                )
            })
            .collect();
        let ran = run(rng.gen_range(0..1 << 20), &steps, true).expect("exact");
        seen[0] += ran[0];
        seen[1] += ran[1];
    }
    assert!(
        seen[0] > 0 && seen[1] > 0,
        "Theorem 2 / Theorem 3 runs: {seen:?}"
    );
}
