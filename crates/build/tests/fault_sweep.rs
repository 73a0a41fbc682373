//! The fault-sweep harness: every durability syscall site fails exactly
//! once.
//!
//! A counting run first executes a fixed durable workload through
//! [`FaultVfs::counting`], enumerating every durability-relevant
//! operation (write, fdatasync, fsync, truncate, rename, directory sync)
//! the workload performs. The sweep then replays the workload once per
//! enumerated op, injecting a failure at exactly that op — torn writes at
//! write sites, ENOSPC at sync sites, EIO elsewhere — and asserts the
//! robustness contract per injection:
//!
//! 1. every error surfaced to the caller is *typed* ([`HopiError::Persist`]
//!    or [`HopiError::Degraded`]), never a panic;
//! 2. after a failed mutation the engine still serves reads;
//! 3. reopening the directory with the real filesystem recovers, and
//!    every *acknowledged* mutation is present — verified structurally
//!    and against a transitive-closure oracle over the recovered graph;
//!    an unacknowledged batch recovers a prefix of its records.

use hopi_build::{
    DurableConfig, FaultKind, FaultOpKind, FaultVfs, Hopi, HopiError, OnlineHopi, SyncPolicy,
    WalRecord,
};
use hopi_graph::TransitiveClosure;
use hopi_xml::{Collection, XmlDocument};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hopi_fault_sweep_{name}_{}", std::process::id()));
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

/// What the workload managed to get acknowledged before/despite the
/// injected fault.
#[derive(Debug, Default)]
struct Acked {
    /// Links whose insert was acknowledged.
    links: Vec<(u32, u32)>,
    /// Whether the (single) link delete was attempted, and whether it
    /// was acknowledged.
    delete_attempted: bool,
    delete_acked: bool,
    /// Document names whose insert was acknowledged.
    docs: Vec<String>,
}

/// Asserts a mutation error is one of the two typed shapes the engine is
/// allowed to surface under I/O failure.
fn assert_typed(e: &HopiError) {
    assert!(
        matches!(e, HopiError::Persist(_) | HopiError::Degraded(_)),
        "injected fault must surface as Persist or Degraded, got: {e}"
    );
}

/// Asserts the engine still answers reads (snapshot queries and probes)
/// after a write-path failure.
fn assert_reads_serve(online: &OnlineHopi) {
    online.read(|h| {
        let n = h.collection().elem_id_bound() as u32;
        for u in 0..n.min(4) {
            let _ = h.connected(u, u);
        }
        h.query("//r//s").expect("reads must survive a write fault");
    });
}

/// The fixed durable workload the sweep injects into: bootstrap, two
/// link mutations, two document inserts, a batch of two more, and two
/// checkpoints — together they exercise every WAL append/sync path, the
/// atomic checkpoint write, and the log rotation.
///
/// Returns the acknowledged-mutation record, or the typed error when the
/// engine could not even be opened (fault during bootstrap).
fn run_workload(vfs: Arc<dyn hopi_build::Vfs>, dir: &Path) -> Result<Acked, HopiError> {
    let config = DurableConfig::new(dir).policy(SyncPolicy::PerOp).vfs(vfs);
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap()))?;
    let mut acked = Acked::default();
    let (a, b) = online.read(|h| {
        (
            h.collection().global_id(0, 1),
            h.collection().global_id(1, 0),
        )
    });

    match online.insert_link(a, b) {
        Ok(_) => acked.links.push((a, b)),
        Err(e) => {
            assert_typed(&e);
            assert_reads_serve(&online);
        }
    }
    match online.insert_xml("w1", r#"<r><cite xlink:href="seed-a"/></r>"#) {
        Ok(_) => acked.docs.push("w1".into()),
        Err(e) => {
            assert_typed(&e);
            assert_reads_serve(&online);
        }
    }
    if let Err(e) = online.checkpoint() {
        assert_typed(&e);
        assert_reads_serve(&online);
    }
    match online.insert_xml("w2", "<r><s/></r>") {
        Ok(_) => acked.docs.push("w2".into()),
        Err(e) => {
            assert_typed(&e);
            assert_reads_serve(&online);
        }
    }
    // Only delete a link whose insert was acknowledged; deleting an
    // unacked link is a semantic error, not a durability probe.
    if acked.links.contains(&(a, b)) {
        acked.delete_attempted = true;
        match online.delete_link(a, b) {
            Ok(_) => acked.delete_acked = true,
            Err(e) => {
                assert_typed(&e);
                assert_reads_serve(&online);
            }
        }
    }
    // One batch of two records: each is its own WAL append.
    let batch = ["w3", "w4"].map(|name| {
        let xml = r#"<r><cite xlink:href="seed-b"/></r>"#;
        let (doc, links) = online.read(|h| h.prepare_xml(name, xml)).unwrap();
        WalRecord::InsertDocument {
            doc,
            outgoing: links.outgoing,
            incoming: links.incoming,
        }
    });
    match online.apply(batch.into()) {
        Ok(()) => acked.docs.extend(["w3".into(), "w4".into()]),
        Err(e) => {
            assert_typed(&e);
            assert_reads_serve(&online);
        }
    }
    if let Err(e) = online.checkpoint() {
        assert_typed(&e);
        assert_reads_serve(&online);
    }
    Ok(acked)
}

/// Post-recovery contract: every acked mutation present, and the index
/// answers exactly like a BFS/closure oracle over the recovered graph.
fn assert_recovered(recovered: &Hopi, acked: &Acked) {
    let c = recovered.collection();
    let has = |name: &str| {
        c.doc_ids()
            .any(|d| c.document(d).is_some_and(|doc| doc.name == name))
    };
    for name in &acked.docs {
        assert!(has(name), "acked document '{name}' lost in recovery");
    }
    // Acknowledged or not, the batch comes back as a prefix of its records.
    assert!(
        has("w3") || !has("w4"),
        "batch record 2 recovered without 1"
    );
    for &(from, to) in &acked.links {
        if acked.delete_acked {
            assert!(
                !c.has_link(from, to),
                "acked delete of {from} → {to} lost in recovery"
            );
        } else if !acked.delete_attempted {
            assert!(
                c.has_link(from, to),
                "acked link {from} → {to} lost in recovery"
            );
        }
        // Delete attempted but errored: the link may legitimately be in
        // either state (the record may or may not have become durable).
    }
    // Index exactness: recovered 2-hop answers == closure oracle.
    let g = c.element_graph();
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

/// The fault kind chosen per op class: the most adversarial shape each
/// site can encounter.
fn kind_for(op: FaultOpKind) -> FaultKind {
    match op {
        FaultOpKind::Write => FaultKind::Torn,
        FaultOpKind::SyncData | FaultOpKind::SyncAll => FaultKind::Enospc,
        FaultOpKind::SetLen | FaultOpKind::Rename | FaultOpKind::DirSync => FaultKind::Eio,
    }
}

#[test]
fn every_fault_point_fails_once_and_acked_writes_survive() {
    // Enumeration run: no faults, the journal lists every fault point.
    let dir = tempdir("enumerate");
    let counting = FaultVfs::counting();
    let acked =
        run_workload(Arc::new(counting.clone()), &dir).expect("fault-free workload must succeed");
    assert_eq!(acked.docs, ["w1", "w2", "w3", "w4"]);
    assert!(acked.delete_acked);
    let ops = counting.ops();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        ops.len() >= 15,
        "expected a rich op surface (WAL appends, syncs, checkpoint \
         writes, renames, dir syncs), got {} ops",
        ops.len()
    );
    // The workload must traverse every op class the VFS counts.
    for class in [
        FaultOpKind::Write,
        FaultOpKind::SyncData,
        FaultOpKind::SyncAll,
        FaultOpKind::Rename,
        FaultOpKind::DirSync,
    ] {
        assert!(
            ops.iter().any(|o| o.op == class),
            "workload never exercises {class}; the sweep would miss that \
             syscall site"
        );
    }

    // The sweep: fail each enumerated op exactly once.
    for op in &ops {
        let dir = tempdir(&format!("inject_{}", op.index));
        let fault = FaultVfs::failing(op.index, kind_for(op.op));
        let outcome = run_workload(Arc::new(fault.clone()), &dir);
        assert!(
            fault.fired(),
            "op {} ({} on {}) never executed under injection — the \
             workload diverged from the enumeration",
            op.index,
            op.op,
            op.path.display()
        );
        match outcome {
            Ok(acked) => {
                // The engine survived the fault in-process. Its directory
                // must recover on the real filesystem with every acked
                // write intact.
                let recovered = Hopi::recover(&dir).unwrap_or_else(|e| {
                    panic!(
                        "recovery failed after injected {} on {} (op {}): {e}",
                        op.op,
                        op.path.display(),
                        op.index
                    )
                });
                assert_recovered(&recovered, &acked);
            }
            Err(e) => {
                // The fault hit during bootstrap: nothing was ever
                // acknowledged, so the only contract is a typed error.
                assert_typed(&e);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn wal_poisoning_degrades_writes_until_checkpoint_heals() {
    let dir = tempdir("degrade");
    // Enumerate just far enough to find the first WAL append after boot.
    let counting = FaultVfs::counting();
    {
        let config = DurableConfig::new(&dir)
            .policy(SyncPolicy::PerOp)
            .vfs(Arc::new(counting.clone()));
        let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
        drop(online);
    }
    let boot_ops = counting.op_count();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Fail the first post-boot durability op: the WAL append of the
    // first mutation.
    let fault = FaultVfs::failing(boot_ops + 1, FaultKind::Eio);
    let config = DurableConfig::new(&dir)
        .policy(SyncPolicy::PerOp)
        .vfs(Arc::new(fault.clone()));
    let online = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap())).unwrap();
    let (a, b) = online.read(|h| {
        (
            h.collection().global_id(0, 1),
            h.collection().global_id(1, 0),
        )
    });

    // The poisoning write: a typed Persist error.
    let err = online.insert_link(a, b).unwrap_err();
    assert_typed(&err);
    assert!(fault.fired());
    assert!(!online.wal_stats().unwrap().healthy, "WAL must be poisoned");

    // Degraded mode: further writes are refused with Degraded — even
    // though the disk has healed — while reads keep serving.
    let err = online.insert_xml("refused", "<r/>").unwrap_err();
    assert!(
        matches!(err, HopiError::Degraded(_)),
        "poisoned WAL must refuse writes with Degraded, got: {err}"
    );
    assert_reads_serve(&online);

    // A successful checkpoint re-establishes the durable baseline.
    online
        .checkpoint()
        .expect("healed disk checkpoints cleanly");
    assert!(online.wal_stats().unwrap().healthy);
    online
        .insert_link(a, b)
        .expect("writes resume after checkpoint");
    let expected = online.read(|h| h.clone());
    drop(online);

    // And the post-heal ack survives recovery.
    let recovered = Hopi::recover(&dir).unwrap();
    assert!(recovered.collection().has_link(a, b));
    assert_eq!(
        recovered.collection().doc_id_bound(),
        expected.collection().doc_id_bound()
    );
    std::fs::remove_dir_all(&dir).ok();
}
