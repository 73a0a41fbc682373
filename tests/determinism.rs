//! Determinism and concurrency tests: the engine must produce the same
//! cover regardless of worker-thread count (partition covers are computed
//! concurrently but merged in partition order), and repeated builds must be
//! bit-identical (all randomness is seeded).

use hopi::prelude::*;
use hopi::xml::generator::{dblp, DblpConfig};

fn covers_equal(a: &Hopi, b: &Hopi, n: u32) -> bool {
    if a.index().size() != b.index().size() {
        return false;
    }
    (0..n).all(|u| {
        a.index().cover().lin(u) == b.index().cover().lin(u)
            && a.index().cover().lout(u) == b.index().cover().lout(u)
    })
}

#[test]
fn thread_count_does_not_change_the_cover() {
    let c = dblp(&DblpConfig::scaled(0.01));
    let n = c.elem_id_bound() as u32;
    let one = Hopi::builder().threads(1).build(c.clone()).unwrap();
    for threads in [2, 4, 8] {
        let multi = Hopi::builder().threads(threads).build(c.clone()).unwrap();
        assert!(
            covers_equal(&one, &multi, n),
            "cover differs between 1 and {threads} threads"
        );
    }
}

/// The engine's default build, twice over. `hopi-bench`'s
/// `tests/baseline.rs` repeats the §3.3 baseline build the same way.
#[test]
fn repeated_builds_are_identical() {
    let c = dblp(&DblpConfig::scaled(0.008));
    let n = c.elem_id_bound() as u32;
    let a = Hopi::build(c.clone()).unwrap();
    let b = Hopi::build(c).unwrap();
    assert!(covers_equal(&a, &b, n), "non-deterministic build");
}

#[test]
fn generators_are_reproducible_across_scales() {
    for scale in [0.002, 0.01] {
        let a = dblp(&DblpConfig::scaled(scale));
        let b = dblp(&DblpConfig::scaled(scale));
        assert_eq!(a.element_count(), b.element_count());
        assert_eq!(a.links(), b.links());
    }
}

/// FNV-1a over every `lin`/`lout` row (row lengths included, so entries
/// cannot migrate between rows unnoticed).
fn cover_checksum(h: &Hopi) -> u64 {
    let cover = h.index().cover();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for u in 0..cover.num_nodes() as u32 {
        for row in [cover.lin(u), cover.lout(u)] {
            eat(row.len() as u32);
            row.iter().copied().for_each(&mut eat);
        }
    }
    hash
}

/// Pins the cover §6.1 maintenance leaves behind: a fixed script of link
/// insertions (leaf-to-root citations and root-to-root links) and one
/// document with links both ways, on the default build of DBLP 0.01. The
/// size must stay below 23,478 entries, what integrating every link with
/// `v` as its center (the §3.3 join's `integrate_link`, which lives in
/// `hopi-bench`) leaves after the same script. Re-pinned (13,564 → 9,210)
/// when integration stopped writing to the rows a link does not change.
#[test]
fn maintained_cover_is_pinned() {
    let mut h = Hopi::build(dblp(&DblpConfig::scaled(0.01))).unwrap();
    let docs: Vec<u32> = h.collection().doc_ids().collect();
    let n = docs.len();
    let root = |h: &Hopi, d: u32| h.collection().global_id(d, 0);
    let leaf = |h: &Hopi, d: u32| {
        let len = h.collection().document(d).unwrap().len() as u32;
        h.collection().global_id(d, len - 1)
    };
    for i in 0..24 {
        let (a, b) = (docs[(i * 7 + 3) % n], docs[(i * 13 + 5) % n]);
        if a == b {
            continue;
        }
        let from = if i % 3 == 0 { root(&h, a) } else { leaf(&h, a) };
        h.insert_link(from, root(&h, b)).unwrap();
    }
    let mut doc = XmlDocument::new("pinned", "article");
    let cites = doc.add_element(0, "citations");
    let first = doc.add_element(cites, "cite");
    let second = doc.add_element(cites, "cite");
    let links = DocumentLinks {
        outgoing: vec![(first, root(&h, docs[1])), (second, root(&h, docs[n / 2]))],
        incoming: vec![(leaf(&h, docs[n - 1]), 0)],
    };
    h.insert_document(doc, &links).unwrap();
    assert!(
        h.index().size() < 23_478,
        "smaller than the v-centered cover"
    );
    assert_eq!(h.index().size(), 9_210);
    assert_eq!(
        cover_checksum(&h),
        0xc712_a0a2_86b6_7253,
        "maintained cover"
    );
    // Every entry the script added is booked to an operation kind.
    let m = h.maintenance_stats();
    let booked: i64 = m.entries_added.as_labeled().iter().map(|&(_, n)| n).sum();
    assert_eq!(m.at_build.entries as i64 + booked, h.index().size() as i64);
}

/// Pins the cover itself, not just its size: the built-cover checksum was
/// recorded before the greedy kernel was rewritten, and a kernel edit that
/// changes any removal order, tie-break or density changes it. (a) is a
/// 3-partition build with a PSG join, (b) the same engine after one
/// Theorem-3 link deletion and one Theorem-3 document deletion — every
/// path that reaches `CoverBuilder`. (b) was re-pinned when the Theorem-3
/// splice was restricted to `A_di × D_di` (`CoverBuilder::only_from`),
/// which shrank it from 4148 entries to 3737. Both were re-pinned when the
/// PSG join started lifting each label from its nearest skeleton node
/// only: (a) 4878 → 4153 entries, (b) 3737 → 3689.
#[test]
fn covers_are_pinned() {
    let c = dblp(&DblpConfig::scaled(0.01));
    let mut h = Hopi::builder()
        .partitioner(PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: 20_000,
            ..Default::default()
        }))
        .threads(1)
        .build(c)
        .unwrap();
    assert_eq!(h.report().partitions, 3);
    assert!(h.report().psg.as_ref().is_some_and(|p| p.nodes > 0));
    assert_eq!(h.index().size(), 4153);
    assert_eq!(cover_checksum(&h), 0xa433_7265_a99f_d2b5, "built cover");

    let link = h.collection().links()[h.collection().links().len() / 2];
    let outcome = h.delete_link(link.from, link.to).unwrap();
    assert_eq!(outcome.algorithm, DeletionAlgorithm::General);
    let doc = h
        .collection()
        .doc_ids()
        .find(|&d| !hopi::maintenance::separates(h.collection(), d))
        .expect("a document that does not separate");
    let outcome = h.delete_document(doc).unwrap();
    assert_eq!(outcome.algorithm, DeletionAlgorithm::General);
    assert_eq!(h.index().size(), 3689);
    assert_eq!(
        cover_checksum(&h),
        0x98b5_f5df_af29_b0b3,
        "maintained cover"
    );
}

/// Pins the greedy kernel's own counters on the build `covers_are_pinned`
/// checks (`BuildStats`, summed over the partition and skeleton covers).
/// The checksum catches a change to the covers; this catches a change to
/// how much work the lazy queue and the peel do to reach them.
#[test]
fn greedy_counters_are_pinned() {
    let h = Hopi::builder()
        .partitioner(PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: 20_000,
            ..Default::default()
        }))
        .threads(1)
        .build(dblp(&DblpConfig::scaled(0.01)))
        .unwrap();
    let g = h.report().greedy;
    assert_eq!(
        (g.centers, g.densest_evals, g.reinsertions),
        (551, 2083, 1532)
    );
    assert_eq!((g.peel_offered, g.peel_removed), (98_285, 50_128));
    // Row words the degree passes read: the kernel's own cost.
    assert_eq!(g.degree_words, 53_037);
}

/// Guards the closure's memory: every row of the closure a `flat` build
/// of DBLP 0.01 covers, in both directions, and both uncovered-row tables
/// of a cover builder over it store exactly the words from their first to
/// their last non-zero word. The word counts are pinned; full-width rows
/// would store `n · ⌈n/64⌉` words per table.
#[test]
fn closure_rows_store_only_their_span() {
    use hopi::core::CoverBuilder;
    use hopi::graph::{FixedBitSet, TransitiveClosure};

    let c = dblp(&DblpConfig::scaled(0.01));
    let tc = TransitiveClosure::from_graph(&c.element_graph());
    let n = tc.num_nodes() as u32;
    let stored = |row: &FixedBitSet| {
        assert_eq!(
            row.stored_span(),
            row.word_span(),
            "a row stores words past its bits"
        );
        row.stored_span().len() as usize
    };
    let desc: usize = (0..n).map(|u| stored(tc.descendants(u))).sum();
    let anc: usize = (0..n).map(|u| stored(tc.ancestors(u))).sum();
    let builder = CoverBuilder::new(&tc);
    let (mut out, mut inn) = (0, 0);
    for u in 0..n {
        let (row_out, row_in) = builder.uncovered(u).expect("a node of the closure");
        out += stored(row_out);
        inn += stored(row_in);
    }
    let full_width = n as usize * n.div_ceil(64) as usize;
    assert_eq!((n, full_width), (1607, 41_782));
    assert_eq!((desc, anc), (9_090, 23_435), "closure rows");
    assert_eq!((out, inn), (8_140, 23_266), "uncovered rows");
}
