//! On-disk format compatibility: files written by the pre-text codec
//! (store/checkpoint version 2, WAL version 1) must keep loading after
//! the element-text format bump. The fixtures under `tests/fixtures/`
//! were generated by the old writer and are committed byte-for-byte —
//! regenerating them with the current writer would defeat the test.

use hopi_store::persist::{load_checkpoint, load_frozen, load_index, load_store, StoredIndex};
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
    let store = load_store(&StdVfs, &fixture("v2_rows.idx")).expect("v2 row file must load");
    assert_fixture_reachability(|u, v| store.connected(u, v));
    assert!(matches!(
        load_index(&StdVfs, &fixture("v2_rows.idx")),
        Ok((StoredIndex::Rows(_), None))
    ));
}

#[test]
fn loads_v2_frozen_cover() {
    let frozen = load_frozen(&StdVfs, &fixture("v2_frozen.idx")).expect("v2 frozen file must load");
    assert_fixture_reachability(|u, v| frozen.connected(u, v));
    assert!(matches!(
        load_index(&StdVfs, &fixture("v2_frozen.idx")),
        Ok((StoredIndex::Frozen(_), None))
    ));
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
