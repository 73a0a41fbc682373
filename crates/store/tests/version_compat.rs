//! On-disk format compatibility: files written by older writers must keep
//! loading. The version 2 fixtures come from the pre-text codec (store and
//! checkpoint version 2, WAL version 1); `v4_rows_dist.idx` is the last
//! row-table layout, written by the row writer before it was removed.
//! `v4_frozen.idx` and `v4_frozen_dist.idx` are the current frozen blob,
//! written from one contiguous CSR buffer before the frozen cover was
//! stored as row blocks; the current writer must reproduce them byte for
//! byte. The fixtures under `tests/fixtures/` are committed byte-for-byte
//! — regenerating them with the current writer would defeat the test.

use hopi_core::{CoverBuilder, DistanceCoverBuilder, FrozenCover};
use hopi_graph::{DiGraph, DistanceClosure, TransitiveClosure};
use hopi_store::persist::{load_checkpoint, load_index, save_frozen, CoverBaseline};
use hopi_store::vfs::StdVfs;
use hopi_store::wal::{Wal, WalRecord};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The fixture cover's graph: (0,1), (1,2), (0,3), (3,2), (2,4).
fn assert_fixture_reachability(connected: impl Fn(u32, u32) -> bool) {
    let expect = |u: u32, v: u32| {
        u == v // covers are reflexive
            || matches!(
                (u, v),
                (0, 1) | (0, 2) | (0, 3) | (0, 4) | (1, 2) | (1, 4) | (3, 2) | (3, 4) | (2, 4)
            )
    };
    for u in 0..5 {
        for v in 0..5 {
            assert_eq!(connected(u, v), expect(u, v), "({u},{v})");
        }
    }
}

#[test]
fn loads_v2_row_store() {
    // Row files load one way into the frozen form: the same cover as the
    // frozen file written from the same labels.
    let (rows, baseline) =
        load_index(&StdVfs, &fixture("v2_rows.idx")).expect("v2 row file must load");
    assert_eq!(baseline, None);
    assert!(!rows.with_dist());
    assert_fixture_reachability(|u, v| rows.connected(u, v));
    let (frozen, _) = load_index(&StdVfs, &fixture("v2_frozen.idx")).unwrap();
    assert_eq!(rows, frozen);
}

#[test]
fn loads_v2_frozen_cover() {
    let (frozen, baseline) =
        load_index(&StdVfs, &fixture("v2_frozen.idx")).expect("v2 frozen file must load");
    assert_eq!(baseline, None, "build baselines arrived in version 4");
    assert_fixture_reachability(|u, v| frozen.connected(u, v));
}

/// The collection `v4_rows_dist.idx` was built from: its distance cover
/// was saved with a baseline of 8 entries and 9 live elements.
fn v4_fixture_collection() -> hopi_xml::Collection {
    hopi_xml::parser::parse_collection([
        ("a", r#"<r><s><t/></s><cite xlink:href="b"/></r>"#),
        ("b", r#"<r><s/><cite xlink:href="c"/></r>"#),
        ("c", r#"<r><s/></r>"#),
    ])
    .unwrap()
}

#[test]
fn loads_v4_distance_rows_with_their_baseline() {
    let (rows, baseline) =
        load_index(&StdVfs, &fixture("v4_rows_dist.idx")).expect("v4 row file must load");
    assert_eq!(
        baseline,
        Some(CoverBaseline {
            entries: 8,
            live_elements: 9
        })
    );
    assert!(rows.with_dist());
    // The cover it was written from, rebuilt, and the true distances.
    let graph = v4_fixture_collection().element_graph();
    let closure = DistanceClosure::from_graph(&graph);
    let live = DistanceCoverBuilder::new(&closure).build();
    assert_eq!(rows, FrozenCover::from_distance_cover(&live));
    assert_eq!(rows.size(), 11);
    for u in 0..9 {
        for v in 0..9 {
            assert_eq!(rows.distance(u, v), closure.dist(u, v), "dist({u},{v})");
            assert_eq!(rows.distance(u, v), live.distance(u, v), "dist({u},{v})");
        }
    }
    assert_eq!(rows.distance(0, 8), Some(5));
}

#[test]
fn loads_v2_checkpoint_with_empty_text() {
    let ckpt =
        load_checkpoint(&StdVfs, &fixture("v2_checkpoint.hopi")).expect("v2 checkpoint must load");
    assert_eq!(ckpt.seq, 7);
    assert_eq!(ckpt.baseline, None, "build baselines arrived in version 4");
    let c = &ckpt.collection;
    assert_eq!(c.doc_ids().count(), 2);
    let a = c.document(0).expect("doc a");
    assert_eq!(a.name, "a");
    assert_eq!(a.element(0).tag, "book");
    assert_eq!(a.element(1).tag, "title");
    assert_eq!(a.element(2).tag, "author");
    assert_eq!(a.anchor("t1"), Some(1));
    let b = c.document(1).expect("doc b");
    assert_eq!(b.name, "b");
    assert_eq!(b.element(0).tag, "article");
    assert_eq!(b.element(1).tag, "sec");
    assert_eq!(c.links().len(), 1);
    assert_eq!((c.links()[0].from, c.links()[0].to), (2, 3));
    // A pre-text collection has no element text anywhere.
    for d in c.doc_ids() {
        let doc = c.document(d).unwrap();
        assert_eq!(doc.texts().count(), 0, "doc {d} must decode with no text");
    }
    // The frozen cover inside the checkpoint still answers.
    assert!(ckpt.frozen.connected(0, 1));
}

#[test]
fn replays_v1_wal() {
    // Opening must not rewrite the file: a v1 log stays v1 on disk.
    let before = std::fs::read(fixture("v1_wal.log")).unwrap();
    let (wal, records) =
        Wal::open(StdVfs::arc(), &fixture("v1_wal.log")).expect("v1 WAL must open");
    assert_eq!(wal.base_seq(), 0);
    let seqs: Vec<u64> = records.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, vec![1, 2, 3]);
    match &records[0].1 {
        WalRecord::InsertDocument {
            doc,
            outgoing,
            incoming,
        } => {
            assert_eq!(doc.name, "c");
            assert_eq!(doc.element(0).tag, "report");
            assert_eq!(doc.element(1).tag, "summary");
            assert_eq!(doc.texts().count(), 0, "pre-text blob decodes textless");
            assert_eq!(outgoing, &[(1, 0)]);
            assert!(incoming.is_empty());
        }
        other => panic!("record 1 should be InsertDocument, got {other:?}"),
    }
    assert_eq!(records[1].1, WalRecord::InsertLink { from: 1, to: 5 });
    assert_eq!(records[2].1, WalRecord::DeleteLink { from: 1, to: 5 });
    drop(wal);
    assert_eq!(
        std::fs::read(fixture("v1_wal.log")).unwrap(),
        before,
        "opening a clean v1 log must leave it byte-identical"
    );
}

/// The graph of the `v4_frozen*.idx` fixtures: the ternary tree over `n`
/// nodes (`u / 3 → u`) plus `n / 20` cross edges.
fn v4_frozen_graph(n: u32) -> DiGraph {
    let mut g = DiGraph::new();
    g.ensure_node(n - 1);
    for u in 1..n {
        g.add_edge(u / 3, u);
    }
    for i in 0..n / 20 {
        g.add_edge((i * 37 + 11) % n, (i * 101 + 5) % n);
    }
    g
}

#[test]
fn frozen_blobs_load_and_save_back_byte_for_byte() {
    // `v4_frozen.idx`: the plain cover of the 600-node graph, several row
    // blocks, saved with a baseline. `v4_frozen_dist.idx`: the distance
    // cover of the 300-node graph, without one.
    for (name, n, dist) in [
        ("v4_frozen.idx", 600, false),
        ("v4_frozen_dist.idx", 300, true),
    ] {
        let bytes = std::fs::read(fixture(name)).unwrap();
        let (frozen, baseline) = load_index(&StdVfs, &fixture(name)).expect(name);
        assert_eq!(frozen.num_nodes(), n as usize);
        assert_eq!(frozen.with_dist(), dist);
        let graph = v4_frozen_graph(n);
        if dist {
            assert_eq!(baseline, None);
            let closure = DistanceClosure::from_graph(&graph);
            let live = DistanceCoverBuilder::new(&closure).build();
            assert_eq!(frozen, FrozenCover::from_distance_cover(&live));
            for u in (0..n).step_by(7) {
                for v in (0..n).step_by(3) {
                    assert_eq!(frozen.distance(u, v), closure.dist(u, v), "dist({u},{v})");
                }
            }
        } else {
            let entries = frozen.size() as u64;
            assert_eq!(
                baseline,
                Some(CoverBaseline {
                    entries,
                    live_elements: 600
                })
            );
            let closure = TransitiveClosure::from_graph(&graph);
            assert_eq!(
                frozen,
                FrozenCover::from_cover(&CoverBuilder::new(&closure).build())
            );
            for u in 0..n {
                for v in (0..n).step_by(5) {
                    assert_eq!(
                        frozen.connected(u, v),
                        u == v || closure.contains(u, v),
                        "({u},{v})"
                    );
                }
            }
        }
        let path = std::env::temp_dir().join(format!("hopi_compat_{name}_{}", std::process::id()));
        save_frozen(&StdVfs, &frozen, &path, baseline).unwrap();
        let saved = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(saved == bytes, "{name}: load → save changed the bytes");
    }
}
