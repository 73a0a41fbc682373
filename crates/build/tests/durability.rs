//! Durability integration tests: WAL + checkpoint recovery on the engine
//! facade, including the torn-tail property test — a crash may cut the
//! log at *any* byte, and recovery must come back as exactly some prefix
//! of the applied mutations, verified against a closure oracle.

use hopi_build::{DurableConfig, Hopi, HopiError, OnlineHopi, SyncPolicy};
use hopi_graph::TransitiveClosure;
use hopi_maintenance::DocumentLinks;
use hopi_store::{StdVfs, Wal, WalRecord};
use hopi_xml::{Collection, XmlDocument};
use proptest::prelude::*;
use std::path::PathBuf;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hopi_durability_{name}_{}_{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").len()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two documents with a couple of elements each.
fn bootstrap() -> Collection {
    let mut c = Collection::new();
    for name in ["seed-a", "seed-b"] {
        let mut d = XmlDocument::new(name, "r");
        d.add_element(0, "s");
        c.add_document(d);
    }
    c
}

/// Asserts `recovered` matches `expected` structurally and that its index
/// answers exactly like a BFS/closure oracle over its element graph.
fn assert_state_eq(recovered: &Hopi, expected: &Hopi) {
    let (rc, ec) = (recovered.collection(), expected.collection());
    assert_eq!(rc.doc_id_bound(), ec.doc_id_bound());
    assert_eq!(rc.elem_id_bound(), ec.elem_id_bound());
    let sorted = |c: &Collection| {
        let mut l: Vec<(u32, u32)> = c.links().iter().map(|l| (l.from, l.to)).collect();
        l.sort_unstable();
        l
    };
    assert_eq!(sorted(rc), sorted(ec));
    for d in ec.doc_ids() {
        assert_eq!(rc.document(d), ec.document(d), "doc {d}");
    }
    let g = rc.element_graph();
    let tc = TransitiveClosure::from_graph(&g);
    let n = g.id_bound() as u32;
    for u in (0..n).filter(|&u| g.is_alive(u)) {
        for v in (0..n).filter(|&v| g.is_alive(v)) {
            assert_eq!(
                recovered.connected(u, v),
                tc.contains(u, v),
                "recovered index diverges from the closure oracle on ({u},{v})"
            );
        }
    }
}

#[test]
fn acked_mutations_survive_without_checkpoint() {
    let dir = tempdir("no_ckpt");
    let config = DurableConfig::new(&dir);
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
    let (a, b) = online.read(|h| {
        (
            h.collection().global_id(0, 1),
            h.collection().global_id(1, 0),
        )
    });
    online.insert_link(a, b).unwrap();
    let d = online
        .insert_xml("fresh", r#"<r><cite xlink:href="seed-a"/></r>"#)
        .unwrap();
    online
        .modify_document(
            1,
            XmlDocument::new("seed-b2", "r"),
            &DocumentLinks::default(),
        )
        .unwrap();
    let expected = online.read(|h| h.clone());
    drop(online); // a kill -9 equivalent for in-memory state: no checkpoint ran

    let recovered = Hopi::recover(&dir).unwrap();
    assert_state_eq(&recovered, &expected);
    // The replayed document is queryable and linked.
    let root = recovered.collection().global_id(d, 0);
    assert!(recovered.connected(root, recovered.collection().global_id(0, 0)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_truncates_wal_and_recovery_combines_both() {
    let dir = tempdir("ckpt");
    let config = DurableConfig::new(&dir);
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
    let (a, b) = online.read(|h| {
        (
            h.collection().global_id(0, 1),
            h.collection().global_id(1, 0),
        )
    });
    online.insert_link(a, b).unwrap();
    let before = online.wal_stats().unwrap();
    assert_eq!(before.records_since_checkpoint, 1);
    assert_eq!(before.durable_seq, 1, "ack implies fsync");

    let ck = online.checkpoint().unwrap();
    assert_eq!(ck.seq, 1);
    assert!(ck.wal_bytes_truncated > 0);
    let after = online.wal_stats().unwrap();
    assert_eq!(after.records_since_checkpoint, 0);
    assert_eq!(after.last_checkpoint_seq, 1);

    // Post-checkpoint mutations land in the (rotated) WAL tail.
    online.delete_link(a, b).unwrap();
    online.insert_xml("tail-doc", "<r><p/></r>").unwrap();
    let expected = online.read(|h| h.clone());
    drop(online);

    let recovered = Hopi::recover(&dir).unwrap();
    assert_state_eq(&recovered, &expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drift_baseline_survives_checkpoint_and_recovery() {
    let dir = tempdir("drift");
    let config = DurableConfig::new(&dir);
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
    let built = online.read(|h| h.maintenance_stats().at_build);
    let docs: Vec<u32> = (0..4)
        .map(|i| {
            online
                .insert_xml(&format!("d{i}"), r#"<r><p><q/></p></r>"#)
                .unwrap()
        })
        .collect();
    let link = |from: u32, to: u32| {
        let (f, t) = online.read(|h| {
            let c = h.collection();
            (c.global_id(from, 2), c.global_id(to, 0))
        });
        online.insert_link(f, t).unwrap();
    };
    link(docs[0], docs[1]);
    link(docs[1], docs[2]);
    online.checkpoint().unwrap();
    // Past the checkpoint: these arrive by WAL replay.
    link(docs[2], docs[3]);
    link(docs[3], docs[0]);
    let expected = online.read(|h| h.clone());
    drop(online);

    let drifted = expected.degradation();
    assert!(drifted.drift_ratio > 1.0, "{drifted:?}");
    let recovered = Hopi::recover(&dir).unwrap();
    assert_state_eq(&recovered, &expected);
    // The restart neither rebuilt the cover nor reset its yardstick.
    assert_eq!(recovered.maintenance_stats().at_build, built);
    assert_eq!(recovered.degradation(), drifted);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_between_checkpoint_and_rotation_does_not_double_apply() {
    let dir = tempdir("rotation_crash");
    let config = DurableConfig::new(&dir);
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
    let (a, b) = online.read(|h| {
        (
            h.collection().global_id(0, 1),
            h.collection().global_id(1, 0),
        )
    });
    online.insert_link(a, b).unwrap();
    online.insert_xml("doc-x", "<r/>").unwrap();
    // Simulate the crash window: the checkpoint file becomes durable but
    // the WAL rotation never happens — restore the pre-rotation log.
    let wal_path = dir.join(hopi_build::WAL_FILE);
    let pre_rotation_wal = std::fs::read(&wal_path).unwrap();
    online.checkpoint().unwrap();
    let expected = online.read(|h| h.clone());
    drop(online);
    std::fs::write(&wal_path, &pre_rotation_wal).unwrap();

    // Recovery must skip the records the checkpoint already covers
    // (replaying the InsertDocument would mint a duplicate document).
    let recovered = Hopi::recover(&dir).unwrap();
    assert_state_eq(&recovered, &expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// The record of inserting `xml` as document `name`, resolved against the
/// engine's live collection.
fn insert_record(online: &OnlineHopi, name: &str, xml: &str) -> WalRecord {
    let (doc, links) = online.read(|h| h.prepare_xml(name, xml)).unwrap();
    WalRecord::InsertDocument {
        doc,
        outgoing: links.outgoing,
        incoming: links.incoming,
    }
}

#[test]
fn durable_batch_logs_each_record_under_one_fsync() {
    let dir = tempdir("batch");
    let config = DurableConfig::new(&dir).policy(SyncPolicy::GroupCommit);
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
    let (a, b) = online.read(|h| {
        (
            h.collection().global_id(0, 1),
            h.collection().global_id(1, 0),
        )
    });
    let batch = vec![
        WalRecord::InsertLink { from: a, to: b },
        insert_record(&online, "bulk-1", "<r><s/></r>"),
        insert_record(&online, "bulk-2", r#"<r><cite xlink:href="seed-a"/></r>"#),
    ];
    let n = batch.len() as u64;
    let fsyncs = online.wal_histograms().unwrap().fsync.count();
    online.apply(batch).unwrap();
    let stats = online.wal_stats().unwrap();
    assert_eq!(stats.records_since_checkpoint, n, "one record per mutation");
    assert_eq!(stats.durable_seq, stats.appended_seq, "ack implies fsync");
    assert_eq!(
        online.wal_histograms().unwrap().fsync.count(),
        fsyncs + 1,
        "one group commit for the whole batch"
    );
    let expected = online.read(|h| h.clone());
    drop(online);
    let recovered = Hopi::recover(&dir).unwrap();
    assert_state_eq(&recovered, &expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_group_committed_acks_all_survive() {
    let dir = tempdir("group");
    let config = DurableConfig::new(&dir).policy(SyncPolicy::GroupCommit);
    // Enough single-element documents for distinct cross links.
    let mut c = Collection::new();
    for i in 0..32 {
        c.add_document(XmlDocument::new(format!("d{i}"), "r"));
    }
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(c)).unwrap();
    let acked: Vec<(u32, u32)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let online = online.clone();
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..6u32 {
                        let from = (t * 6 + i) % 32;
                        let to = (from + 7 + t) % 32;
                        if from != to && online.insert_link(from, to).is_ok() {
                            mine.push((from, to));
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert!(!acked.is_empty());
    drop(online);
    let recovered = Hopi::recover(&dir).unwrap();
    for (from, to) in acked {
        assert!(
            recovered.collection().has_link(from, to),
            "acked link {from} → {to} lost"
        );
        assert!(recovered.connected(from, to));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_only_restore_keeps_new_acks_recoverable() {
    // An operator restores only checkpoint.hopi from backup (no wal.log).
    // The recreated log must start at the checkpoint's sequence — a base
    // of 0 would make the *next* recovery skip fresh records as "already
    // inside the checkpoint" and silently drop acknowledged mutations.
    let dir = tempdir("ckpt_only");
    let config = DurableConfig::new(&dir);
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
    let (a, b) = online.read(|h| {
        (
            h.collection().global_id(0, 1),
            h.collection().global_id(1, 0),
        )
    });
    online.insert_link(a, b).unwrap();
    online.checkpoint().unwrap(); // checkpoint seq 1
    drop(online);
    std::fs::remove_file(dir.join(hopi_build::WAL_FILE)).unwrap();

    let online = OnlineHopi::open_durable(&config, Hopi::builder(), None).unwrap();
    assert_eq!(online.wal_stats().unwrap().last_checkpoint_seq, 1);
    online.insert_xml("post-restore", "<r/>").unwrap();
    assert_eq!(online.wal_stats().unwrap().records_since_checkpoint, 1);
    let expected = online.read(|h| h.clone());
    drop(online);

    let recovered = Hopi::recover(&dir).unwrap();
    assert_state_eq(&recovered, &expected);
    assert!(
        recovered.collection().doc_ids().any(|d| recovered
            .collection()
            .document(d)
            .is_some_and(|doc| doc.name == "post-restore")),
        "acked post-restore insert must survive"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_open_is_refused_while_lock_held_and_released_on_drop() {
    let dir = tempdir("dirlock");
    let config = DurableConfig::new(&dir);
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
    // A second engine on the same directory would share the WAL — one
    // side's rotation would strand the other's acked writes. Refused.
    assert!(OnlineHopi::open_durable(&config, Hopi::builder(), None).is_err());
    assert!(Hopi::recover(&dir).is_err());
    drop(online); // dropping the engine releases the flock
                  // The lock file persisting is irrelevant — only the held OS lock
                  // matters, and the kernel drops it with the process (kill -9
                  // included), so a leftover file never blocks a restart.
    assert!(dir.join(hopi_build::LOCK_FILE).exists());
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), None).unwrap();
    assert!(online.is_durable());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recover_refuses_wal_without_checkpoint() {
    let dir = tempdir("orphan_wal");
    std::fs::write(dir.join(hopi_build::WAL_FILE), b"HOPW").unwrap();
    assert!(matches!(
        Hopi::recover(&dir),
        Err(HopiError::Persist(_)) | Err(HopiError::Xml(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Torn-tail property test.
// ---------------------------------------------------------------------

/// Applies one WAL record to a plain engine — the oracle replay used to
/// compute "the state after exactly k durable mutations".
fn apply_record_oracle(h: &mut Hopi, rec: WalRecord) {
    match rec {
        WalRecord::InsertLink { from, to } => {
            h.insert_link(from, to).unwrap();
        }
        WalRecord::DeleteLink { from, to } => {
            h.delete_link(from, to).unwrap();
        }
        WalRecord::InsertDocument {
            doc,
            outgoing,
            incoming,
        } => {
            h.insert_document(doc, &DocumentLinks { outgoing, incoming })
                .unwrap();
        }
        WalRecord::DeleteDocument { doc } => {
            h.delete_document(doc).unwrap();
        }
        WalRecord::ModifyDocument {
            doc,
            new_doc,
            outgoing,
            incoming,
        } => {
            h.modify_document(doc, new_doc, &DocumentLinks { outgoing, incoming })
                .unwrap();
        }
    }
}

/// Interprets one fuzzed op against the durable engine; invalid picks
/// simply fail and append nothing, which is part of the contract.
fn apply_fuzzed_op(online: &OnlineHopi, kind: u8, a: u32, b: u32, fresh_names: &mut u32) {
    let docs: Vec<u32> = online.read(|h| h.collection().doc_ids().collect());
    let root = |d: u32| online.read(|h| h.collection().global_id(d, 0));
    match kind % 6 {
        0 => {
            *fresh_names += 1;
            let _ = online.insert_xml(&format!("fuzz-{fresh_names}"), "<r><s/></r>");
        }
        1 => {
            if docs.len() >= 2 {
                let (da, db) = (docs[a as usize % docs.len()], docs[b as usize % docs.len()]);
                if da != db {
                    let (f, t) = online.read(|h| {
                        (
                            h.collection().global_id(da, 0),
                            h.collection().global_id(db, 0),
                        )
                    });
                    let _ = online.insert_link(f, t);
                }
            }
        }
        2 => {
            let links: Vec<(u32, u32)> = online.read(|h| {
                h.collection()
                    .links()
                    .iter()
                    .map(|l| (l.from, l.to))
                    .collect()
            });
            if !links.is_empty() {
                let (f, t) = links[a as usize % links.len()];
                let _ = online.delete_link(f, t);
            }
        }
        3 => {
            if docs.len() > 2 {
                let _ = online.delete_document(docs[a as usize % docs.len()]);
            }
        }
        4 => {
            if !docs.is_empty() {
                *fresh_names += 1;
                let mut doc = XmlDocument::new(format!("mod-{fresh_names}"), "r");
                doc.add_element(0, "s");
                let _ = online.modify_document(
                    docs[a as usize % docs.len()],
                    doc,
                    &DocumentLinks::default(),
                );
            }
        }
        _ => {
            // A batch of 2–3 records, each its own WAL frame: two documents
            // linked to live ones, then (for even `a`) a link between two
            // live documents.
            let (da, db) = (docs[a as usize % docs.len()], docs[b as usize % docs.len()]);
            let mut batch = Vec::new();
            for links in [(vec![(1, root(da))], vec![]), (vec![], vec![(root(db), 0)])] {
                *fresh_names += 1;
                let mut doc = XmlDocument::new(format!("batch-{fresh_names}"), "r");
                doc.add_element(0, "s");
                batch.push(WalRecord::InsertDocument {
                    doc,
                    outgoing: links.0,
                    incoming: links.1,
                });
            }
            if a.is_multiple_of(2) && da != db {
                batch.push(WalRecord::InsertLink {
                    from: root(da),
                    to: root(db),
                });
            }
            let _ = online.apply(batch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Run a random mutation sequence through the WAL, cut the log at an
    /// arbitrary byte, recover, and check the result equals the state
    /// after exactly the mutations whose records survived the cut — and
    /// that its index matches the closure oracle. A batch is no unit
    /// here: a cut inside one recovers the prefix of its records that
    /// survived.
    #[test]
    fn torn_tail_recovers_exact_prefix(
        ops in proptest::collection::vec((0u8..6, 0u32..64, 0u32..64), 1..10),
        cut_frac in 0u32..1000,
    ) {
        let dir = tempdir("torn");
        let config = DurableConfig::new(&dir).policy(SyncPolicy::Never);
        let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
        let mut fresh_names = 0u32;
        for &(kind, a, b) in &ops {
            apply_fuzzed_op(&online, kind, a, b, &mut fresh_names);
        }
        drop(online);

        let wal_path = dir.join(hopi_build::WAL_FILE);
        let full = std::fs::read(&wal_path).unwrap();
        let (_, all_records) = Wal::open(StdVfs::arc(), &wal_path).unwrap();

        // Frame boundaries → how many records survive a cut at byte `cut`.
        let mut boundaries = vec![16usize];
        let mut pos = 16usize;
        while pos + 8 <= full.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
            boundaries.push(pos);
        }
        let cut = 16 + (cut_frac as usize * (full.len() - 16)) / 1000;
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let surviving = boundaries.iter().filter(|&&bnd| bnd <= cut).count() - 1;

        let recovered = Hopi::recover(&dir).unwrap();

        // Oracle: bootstrap + exactly the surviving records.
        let mut oracle = Hopi::build(bootstrap()).unwrap();
        for (_, rec) in all_records.into_iter().take(surviving) {
            apply_record_oracle(&mut oracle, rec);
        }
        let rc = recovered.collection();
        let oc = oracle.collection();
        prop_assert_eq!(rc.doc_id_bound(), oc.doc_id_bound());
        prop_assert_eq!(rc.elem_id_bound(), oc.elem_id_bound());
        let sorted = |c: &Collection| {
            let mut l: Vec<(u32, u32)> = c.links().iter().map(|l| (l.from, l.to)).collect();
            l.sort_unstable();
            l
        };
        prop_assert_eq!(sorted(rc), sorted(oc));
        // Index exactness against the closure oracle.
        let g = rc.element_graph();
        let tc = TransitiveClosure::from_graph(&g);
        let n = g.id_bound() as u32;
        for u in (0..n).filter(|&u| g.is_alive(u)) {
            for v in (0..n).filter(|&v| g.is_alive(v)) {
                prop_assert_eq!(recovered.connected(u, v), tc.contains(u, v));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
