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

#[test]
fn repeated_builds_are_identical() {
    let c = dblp(&DblpConfig::scaled(0.008));
    let n = c.elem_id_bound() as u32;
    let builders = || {
        [
            Hopi::builder(),
            Hopi::builder()
                .partitioner(PartitionerChoice::Old(OldPartitionerConfig::default()))
                .join(JoinAlgorithm::Incremental),
        ]
    };
    for (first, second) in builders().into_iter().zip(builders()) {
        let config = format!("{:?}", first.clone());
        let a = first.build(c.clone()).unwrap();
        let b = second.build(c.clone()).unwrap();
        assert!(covers_equal(&a, &b, n), "non-deterministic build: {config}");
    }
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

/// Pins the cover itself, not just its size: the checksums below were
/// recorded at the commit before the greedy kernel was rewritten (PR 17),
/// and a kernel edit that changes any removal order, tie-break or density
/// changes them. (a) is a 3-partition build with a PSG join, (b) the same
/// engine after one Theorem-3 link deletion and one Theorem-3 document
/// deletion — every path that reaches `CoverBuilder`.
#[test]
fn covers_are_pinned() {
    let c = dblp(&DblpConfig::scaled(0.01));
    let mut h = Hopi::builder()
        .partitioner(PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: 20_000,
            ..Default::default()
        }))
        .join(JoinAlgorithm::Psg)
        .threads(1)
        .build(c)
        .unwrap();
    assert_eq!(h.report().partitions, 3);
    assert!(h.report().psg.as_ref().is_some_and(|p| p.nodes > 0));
    assert_eq!(h.index().size(), 4878);
    assert_eq!(cover_checksum(&h), 0xd203_7786_74c6_f500, "built cover");

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
    assert_eq!(h.index().size(), 4148);
    assert_eq!(
        cover_checksum(&h),
        0x9f02_6a57_c43c_d381,
        "maintained cover"
    );
}
