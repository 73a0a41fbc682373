//! Facade API suite: the whole lifecycle — build → query → insert/delete →
//! rebuild → re-query — exercised through [`Hopi`] and [`OnlineHopi`] only,
//! including the typed error paths of [`HopiError`].

use hopi::graph::TransitiveClosure;
use hopi::prelude::*;

fn library() -> Hopi {
    Hopi::builder()
        .parse([
            (
                "survey",
                r#"<article>
                     <related>
                       <cite xlink:href="systems"/>
                       <cite xlink:href="theory#thm1"/>
                     </related>
                   </article>"#,
            ),
            (
                "systems",
                r#"<article><body><sec id="eval"/></body><cite xlink:href="theory"/></article>"#,
            ),
            ("theory", r#"<article><thm id="thm1"/></article>"#),
        ])
        .expect("fixture parses")
}

fn oracle_check(hopi: &Hopi) {
    let g = hopi.collection().element_graph();
    let tc = TransitiveClosure::from_graph(&g);
    for u in (0..g.id_bound() as u32).filter(|&u| g.is_alive(u)) {
        for v in (0..g.id_bound() as u32).filter(|&v| g.is_alive(v)) {
            assert_eq!(hopi.connected(u, v), tc.contains(u, v), "pair ({u},{v})");
        }
    }
}

#[test]
fn build_query_maintain_rebuild_requery() {
    let mut hopi = library();
    oracle_check(&hopi);

    // Query.
    let survey = hopi.resolve("survey", "").unwrap();
    let thm = hopi.resolve("theory", "thm1").unwrap();
    assert!(hopi.connected(survey, thm));
    assert_eq!(hopi.query("//article//thm").unwrap(), vec![thm]);

    // Insert a document through the XML fast path (href resolved against
    // the collection), then through the explicit-links path.
    let review = hopi
        .insert_xml(
            "review",
            r#"<article><cite xlink:href="survey"/></article>"#,
        )
        .unwrap();
    let review_root = hopi.collection().global_id(review, 0);
    assert!(hopi.connected(review_root, thm), "review → survey → theory");
    oracle_check(&hopi);

    let mut appendix = XmlDocument::new("appendix", "article");
    let cite = appendix.add_element(0, "cite");
    let appendix_id = hopi
        .insert_document(
            appendix,
            &DocumentLinks {
                outgoing: vec![(cite, survey)],
                incoming: vec![],
            },
        )
        .unwrap();
    oracle_check(&hopi);

    // Link churn.
    let theory_root = hopi.resolve("theory", "").unwrap();
    let appendix_root = hopi.collection().global_id(appendix_id, 0);
    hopi.insert_link(theory_root, appendix_root).unwrap();
    assert!(hopi.connected(survey, appendix_root), "cycle closed");
    oracle_check(&hopi);
    hopi.delete_link(theory_root, appendix_root).unwrap();
    assert!(!hopi.connected(survey, appendix_root));
    oracle_check(&hopi);

    // Delete, rebuild, re-query.
    hopi.delete_document(review).unwrap();
    oracle_check(&hopi);
    let churned = hopi.stats().cover_entries;
    let report = hopi.rebuild().clone();
    assert_eq!(report.cover_size, hopi.stats().cover_entries);
    assert!(hopi.stats().cover_entries <= churned);
    oracle_check(&hopi);
    assert_eq!(hopi.query("//article//thm").unwrap(), vec![thm]);
    assert!(hopi.query("//review//*").unwrap().is_empty());
}

#[test]
fn error_paths_are_typed() {
    let mut hopi = library();

    // Malformed path expressions.
    for bad in ["", "article", "//", "//a///b"] {
        assert!(
            matches!(hopi.query(bad), Err(HopiError::Path(_))),
            "query({bad:?}) should be a path error"
        );
    }

    // Unknown document ids (never existed / already deleted).
    assert!(matches!(
        hopi.delete_document(77),
        Err(HopiError::UnknownDocument(77))
    ));
    let theory = hopi.resolve("theory", "").unwrap();
    let theory_doc = hopi.collection().doc_of(theory).unwrap();
    hopi.delete_document(theory_doc).unwrap();
    assert!(matches!(
        hopi.delete_document(theory_doc),
        Err(HopiError::UnknownDocument(_))
    ));
    assert!(matches!(
        hopi.modify_document(
            theory_doc,
            XmlDocument::new("x", "r"),
            &DocumentLinks::default()
        ),
        Err(HopiError::UnknownDocument(_))
    ));

    // Unresolvable refs: by name and in inserted XML.
    assert!(matches!(
        hopi.resolve("no-such-doc", ""),
        Err(HopiError::UnresolvedRef { .. })
    ));
    assert!(matches!(
        hopi.resolve("survey", "no-such-anchor"),
        Err(HopiError::UnresolvedRef { .. })
    ));
    let err = hopi
        .insert_xml("orphan", r#"<a><cite xlink:href="missing#x"/></a>"#)
        .unwrap_err();
    assert!(matches!(err, HopiError::UnresolvedRef { .. }), "{err}");
    assert!(
        hopi.resolve("orphan", "").is_err(),
        "failed insert must not leave a document behind"
    );

    // Malformed XML.
    assert!(matches!(
        hopi.insert_xml("broken", "<a><b></a>"),
        Err(HopiError::Xml(_))
    ));
    // Duplicate names are rejected before parsing.
    assert!(matches!(
        hopi.insert_xml("survey", "<a/>"),
        Err(HopiError::DuplicateDocumentName(_))
    ));

    // Link endpoint validation.
    let survey = hopi.resolve("survey", "").unwrap();
    assert!(matches!(
        hopi.insert_link(survey, 9_999),
        Err(HopiError::UnknownElement(9_999))
    ));
    assert!(matches!(
        hopi.insert_link(survey, survey + 1),
        Err(HopiError::SameDocumentLink { .. })
    ));
    assert!(matches!(
        hopi.delete_link(survey, survey + 1),
        Err(HopiError::UnknownLink { .. })
    ));
    let mut doc = XmlDocument::new("tiny", "r");
    doc.add_element(0, "s");
    assert!(matches!(
        hopi.insert_document(
            doc,
            &DocumentLinks {
                outgoing: vec![(9, survey)],
                incoming: vec![],
            }
        ),
        Err(HopiError::InvalidLocalElement { local: 9, .. })
    ));

    // Distance queries without distance_aware(true).
    assert!(matches!(
        hopi.distance(0, 1),
        Err(HopiError::DistanceDisabled)
    ));
    assert!(matches!(
        hopi.query_ranked("//a//b"),
        Err(HopiError::DistanceDisabled)
    ));

    // After all those rejections the engine is still consistent.
    oracle_check(&hopi);
}

/// Modification is drop + reinsert (§6.3). A restructured version that
/// links back closes a cycle; it is checked against the closure.
#[test]
fn modify_document_restructures_and_closes_a_cycle() {
    let mut c = Collection::new();
    for name in ["d0", "d1"] {
        let mut d = XmlDocument::new(name, "r");
        d.add_element(0, "s");
        c.add_document(d);
    }
    c.add_link(c.global_id(0, 1), c.global_id(1, 0));
    let mut hopi = Hopi::build(c).unwrap();

    // Restructure d1: a deeper tree, now linking back to d0's root.
    let mut new_d1 = XmlDocument::new("d1v2", "r");
    let a = new_d1.add_element(0, "a");
    let b = new_d1.add_element(a, "b");
    let links = DocumentLinks {
        outgoing: vec![(b, 0)],
        incoming: vec![(hopi.collection().global_id(0, 1), 0)],
    };
    let new_id = hopi.modify_document(1, new_d1, &links).unwrap();
    assert_eq!(new_id, 2);
    assert_eq!(hopi.collection().doc_count(), 2);
    oracle_check(&hopi);
    // The back link closed a cycle: d0's root reaches itself via d1v2.
    assert!(hopi.connected(hopi.collection().global_id(new_id, 0), 0));
    hopi.index().cover().check_invariants();
}

/// A document without links is modified in place of the only one.
#[test]
fn modify_isolated_document() {
    let mut c = Collection::new();
    c.add_document(XmlDocument::new("solo", "r"));
    let mut hopi = Hopi::build(c).unwrap();
    let mut v2 = XmlDocument::new("solo-v2", "r");
    v2.add_element(0, "extra");
    let solo = hopi
        .modify_document(0, v2, &DocumentLinks::default())
        .unwrap();
    assert_eq!(hopi.collection().doc_count(), 1);
    let root = hopi.collection().global_id(solo, 0);
    assert!(hopi.connected(root, hopi.collection().global_id(solo, 1)));
    oracle_check(&hopi);
}

#[test]
fn online_engine_full_lifecycle() {
    let online = OnlineHopi::new(library());
    let (survey, thm) = online.read(|h| {
        (
            h.resolve("survey", "").unwrap(),
            h.resolve("theory", "thm1").unwrap(),
        )
    });
    assert!(online.connected(survey, thm));
    assert_eq!(
        online.snapshot().query("//article//thm").unwrap(),
        vec![thm]
    );

    // Typed errors cross the concurrent boundary too.
    assert!(matches!(
        online.snapshot().query("not a path"),
        Err(HopiError::Path(_))
    ));
    assert!(matches!(
        online.delete_document(99),
        Err(HopiError::UnknownDocument(99))
    ));
    assert!(matches!(
        online.snapshot().distance(0, 1),
        Err(HopiError::DistanceDisabled)
    ));

    // Concurrent readers while a writer inserts and deletes.
    let n = online.read(|h| h.collection().elem_id_bound() as u32);
    std::thread::scope(|scope| {
        for t in 0..3 {
            let online = online.clone();
            scope.spawn(move || {
                for i in 0..400u32 {
                    let u = (i * 37 + t) % n;
                    let v = (i * 61 + t * 13) % n;
                    let _ = online.connected(u, v);
                }
            });
        }
        let writer = online.clone();
        scope.spawn(move || {
            let d = writer
                .insert_xml("note", r#"<note><cite xlink:href="survey"/></note>"#)
                .unwrap();
            writer
                .insert_link(thm, writer.read(|h| h.collection().global_id(d, 0)))
                .unwrap();
            writer.delete_document(d).unwrap();
        });
    });
    online.read(oracle_check);

    // Background rebuild with concurrent updates lands in an exact state.
    let handle = online.rebuild_in_background();
    let mid = online
        .insert_xml("mid-rebuild", r#"<m><cite xlink:href="systems"/></m>"#)
        .unwrap();
    let report = handle.join().expect("rebuild thread");
    assert!(report.cover_size > 0);
    let mid_root = online.read(|h| h.collection().global_id(mid, 0));
    let systems = online.read(|h| h.resolve("systems", "").unwrap());
    assert!(online.connected(mid_root, systems));
    online.read(oracle_check);
}

/// Eight two-element documents, then §6.1 link insertions that churn the
/// cover away from the one a build would pick.
fn churned_engine(builder: HopiBuilder) -> Hopi {
    let mut hopi = builder
        .build({
            let mut c = Collection::new();
            for i in 0..8 {
                let mut d = XmlDocument::new(format!("d{i}"), "r");
                d.add_element(0, "s");
                c.add_document(d);
            }
            c
        })
        .unwrap();
    for i in 0..8u32 {
        for j in 0..8u32 {
            if i != j && (i + j) % 3 == 0 {
                let from = hopi.collection().global_id(i, 1);
                let to = hopi.collection().global_id(j, 0);
                hopi.insert_link(from, to).unwrap();
            }
        }
    }
    hopi
}

#[test]
fn rebuild_recovers_churned_cover() {
    let mut hopi = churned_engine(Hopi::builder());
    oracle_check(&hopi);
    let churned = hopi.degradation();
    assert!(churned.entries > 0);
    // A fresh build sits at drift 1.0; the churned cover is above it.
    assert!(hopi.should_rebuild(&RebuildPolicy {
        max_drift_ratio: 1.0
    }));
    hopi.rebuild();
    assert!(
        hopi.stats().cover_entries <= churned.entries,
        "rebuild should not grow the cover"
    );
    oracle_check(&hopi);
}

#[test]
fn drift_is_measured_against_the_build_across_save_and_open() {
    let hopi = churned_engine(Hopi::builder());
    let churned = hopi.degradation();
    assert!(churned.drift_ratio > 1.0, "{churned:?}");
    let dir = std::env::temp_dir();
    let path = |name: &str| dir.join(format!("hopi_facade_drift_{name}_{}", std::process::id()));

    // The index file carries the build's baseline: the reopened engine
    // reports the drift the saved one did, not a fresh 1.0.
    hopi.save_frozen(&path("frozen")).unwrap();
    let mut reopened = Hopi::open(hopi.collection().clone(), &path("frozen")).unwrap();
    assert_eq!(reopened.degradation(), churned);
    assert_eq!(
        reopened.maintenance_stats().at_build,
        hopi.maintenance_stats().at_build
    );
    assert!(reopened.should_rebuild(&RebuildPolicy {
        max_drift_ratio: 1.0
    }));
    // A rebuild after the reopen resets it, and so does the next save.
    reopened.rebuild();
    assert_eq!(reopened.degradation().drift_ratio, 1.0);
    reopened.save_frozen(&path("frozen")).unwrap();
    let again = Hopi::open(hopi.collection().clone(), &path("frozen")).unwrap();
    assert_eq!(again.degradation().drift_ratio, 1.0);
    std::fs::remove_file(path("frozen")).ok();

    // A distance-aware engine saves the distance labels, from which its
    // plain index reopens; that cover starts a new baseline.
    let distance = churned_engine(Hopi::builder().distance_aware(true));
    distance.save_frozen(&path("dist")).unwrap();
    let reopened = Hopi::builder()
        .distance_aware(true)
        .open(distance.collection().clone(), &path("dist"))
        .unwrap();
    let d = reopened.degradation();
    assert_eq!((d.entries_at_build, d.drift_ratio), (d.entries, 1.0));
    oracle_check(&reopened);
    std::fs::remove_file(path("dist")).ok();
}

#[test]
fn distance_cover_tracks_incremental_inserts() {
    let mut hopi = Hopi::builder()
        .distance_aware(true)
        .parse([
            ("a", r#"<r><s/><cite xlink:href="b"/></r>"#),
            ("b", r#"<r><sec><p/></sec></r>"#),
        ])
        .unwrap();

    // Insert a document with both link directions, then a standalone link.
    let mut doc = XmlDocument::new("c", "r");
    let child = doc.add_element(0, "x");
    doc.add_element(child, "y");
    let a_root = hopi.resolve("a", "").unwrap();
    let b_root = hopi.resolve("b", "").unwrap();
    let c = hopi
        .insert_document(
            doc,
            &DocumentLinks {
                outgoing: vec![(child, b_root)],
                incoming: vec![(a_root, 0)],
            },
        )
        .unwrap();
    let c_root = hopi.collection().global_id(c, 0);
    hopi.insert_link(b_root + 1, c_root).unwrap(); // b/sec -> c

    // Every pairwise distance must match a freshly computed closure.
    let dc = hopi::graph::DistanceClosure::from_graph(&hopi.collection().element_graph());
    let n = hopi.collection().elem_id_bound() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(hopi.distance(u, v).unwrap(), dc.dist(u, v), "dist({u},{v})");
        }
    }

    // Ranked retrieval rides the maintained cover.
    let ranked = hopi.query_ranked("//r//y").unwrap();
    assert!(!ranked.is_empty());
}

#[test]
fn query_plans_are_explained_and_counted() {
    let hopi = library();
    let snap = hopi.snapshot();

    // EXPLAIN returns the same answer plus a per-step plan.
    let (result, report) = hopi.query_explained("//article//thm").unwrap();
    assert_eq!(result, hopi.query("//article//thm").unwrap());
    assert_eq!(report.steps.len(), 2);
    assert!(report.steps[1].plan.is_some(), "connection step has a plan");
    let parsed = hopi::query::parse_path("//article//thm").unwrap();
    assert!(report.render(&parsed).contains("strategy="));

    // Snapshot queries tally into the engine-shared plan counters,
    // visible through SnapshotStats.
    let before = snap.stats().plan.total();
    snap.query("//article//thm").unwrap();
    let (snap_result, _) = snap.query_explained("//article//thm").unwrap();
    assert_eq!(snap_result, result);
    let after = snap.stats().plan.total();
    assert!(
        after >= before + 2,
        "plan counters advance: {before} -> {after}"
    );
    assert_eq!(
        hopi.plan_counts().total(),
        after,
        "engine shares the counters"
    );
}

#[test]
fn snapshot_is_immutable_and_matches_engine() {
    let mut hopi = library();
    let snap = hopi.snapshot();
    let thm = snap.resolve("theory", "thm1").unwrap();
    assert_eq!(snap.query("//article//thm").unwrap(), vec![thm]);
    assert_eq!(snap.cover_entries(), hopi.stats().cover_entries);
    let n = hopi.collection().elem_id_bound() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(snap.connected(u, v), hopi.connected(u, v), "({u},{v})");
        }
        assert_eq!(snap.descendants(u), hopi.descendants(u));
        assert_eq!(snap.ancestors(u), hopi.ancestors(u));
    }
    assert!(matches!(
        snap.distance(0, 1),
        Err(HopiError::DistanceDisabled)
    ));

    // Mutating the engine does not disturb a captured snapshot…
    let note = hopi
        .insert_xml("note", r#"<note><cite xlink:href="theory"/></note>"#)
        .unwrap();
    let note_root = hopi.collection().global_id(note, 0);
    assert!(hopi.connected(note_root, thm));
    assert!(
        !snap.connected(note_root, thm),
        "snapshot is frozen in time"
    );
    // …while a fresh snapshot sees the new state.
    assert!(hopi.snapshot().connected(note_root, thm));
}

#[test]
fn snapshot_serves_distance_and_ranked_queries() {
    let hopi = Hopi::builder()
        .distance_aware(true)
        .parse([
            ("a", r#"<r><cite xlink:href="b"/></r>"#),
            ("b", r#"<r><s/></r>"#),
        ])
        .unwrap();
    let snap = hopi.snapshot();
    let n = hopi.collection().elem_id_bound() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                snap.distance(u, v).unwrap(),
                hopi.distance(u, v).unwrap(),
                "dist({u},{v})"
            );
        }
    }
    let ranked_live = hopi.query_ranked("//r//s").unwrap();
    let ranked_snap = snap.query_ranked("//r//s").unwrap();
    assert_eq!(ranked_live.len(), ranked_snap.len());
    for (a, b) in ranked_live.iter().zip(&ranked_snap) {
        assert_eq!((a.element, a.distance), (b.element, b.distance));
    }
}

#[test]
fn online_reads_are_served_from_refreshed_snapshots() {
    let online = OnlineHopi::new(library());
    let (survey, thm) = {
        let snap = online.snapshot();
        (
            snap.resolve("survey", "").unwrap(),
            snap.resolve("theory", "thm1").unwrap(),
        )
    };
    assert!(online.connected(survey, thm));

    // A held snapshot is a stable epoch; the convenience reads pick up
    // each mutation immediately after it returns.
    let epoch = online.snapshot();
    let note = online
        .insert_xml("note", r#"<note><cite xlink:href="theory"/></note>"#)
        .unwrap();
    let note_root = online.snapshot().collection().global_id(note, 0);
    assert!(online.connected(note_root, thm), "refreshed after insert");
    assert!(!epoch.connected(note_root, thm), "old epoch unchanged");
    online.delete_document(note).unwrap();
    assert!(!online.connected(note_root, thm), "refreshed after delete");

    // A batch of records publishes once at the end.
    let insert = |name: &str, xml: &str| {
        let (doc, links) = online.read(|h| h.prepare_xml(name, xml)).unwrap();
        WalRecord::InsertDocument {
            doc,
            outgoing: links.outgoing,
            incoming: links.incoming,
        }
    };
    let x = insert("x", r#"<x><cite xlink:href="theory"/></x>"#);
    let y = insert("y", r#"<y><cite xlink:href="survey"/></y>"#);
    let before = online.epoch();
    online.apply(vec![x, y]).unwrap();
    assert_eq!(online.epoch(), before + 1);
    let snap = online.snapshot();
    let (xr, yr) = (
        snap.resolve("x", "").unwrap(),
        snap.resolve("y", "").unwrap(),
    );
    assert!(snap.connected(xr, thm) && snap.connected(yr, survey) && snap.connected(yr, thm));
    online.read(oracle_check);
}

#[test]
fn publish_patches_the_previous_epoch_and_shares_what_did_not_change() {
    // Twelve chains of eight elements with text, each citing the next.
    let docs: Vec<(String, String)> = (0..12)
        .map(|i| {
            let cite = format!(r#"<cite xlink:href="d{}"/>"#, (i + 1) % 12);
            let cite = if i == 11 { String::new() } else { cite };
            (
                format!("d{i}"),
                format!("<r><a><b><c><d><e><f>hop cover {i}</f></e></d></c></b></a>{cite}</r>"),
            )
        })
        .collect();
    let engine = Hopi::builder()
        .parse(docs.iter().map(|(n, x)| (n.as_str(), x.as_str())))
        .unwrap();
    let online = OnlineHopi::new(engine);
    let first = online.snapshot();
    assert!(
        !first.stats().publish.patched,
        "the first capture freezes in full"
    );

    // A link into a leaf touches a handful of rows: the next epoch is a
    // patch of this one, byte for byte what a full freeze would build…
    let (from, to) = (
        first.resolve("d11", "").unwrap(),
        first.query("//f").unwrap()[3],
    );
    online.insert_link(from, to).unwrap();
    let second = online.snapshot();
    let publish = second.stats().publish;
    assert!(publish.patched && publish.rows_patched > 0, "{publish:?}");
    assert_eq!(publish.kind(), "patched");
    online.read(|h| assert_eq!(second.frozen(), &FrozenCover::from_cover(h.index().cover())));
    assert!(second.connected(from, to) && !first.connected(from, to));
    assert_eq!(
        second.stats().build.freeze_ms,
        first.stats().build.freeze_ms
    );
    // …and shares documents, tag index and term index with it.
    let doc = |s: &HopiSnapshot| s.collection().document(3).unwrap() as *const XmlDocument;
    assert_eq!(doc(&first), doc(&second));
    assert!(std::ptr::eq(first.tags(), second.tags()));
    assert!(std::sync::Arc::ptr_eq(first.text(), second.text()));

    // A document with text moves the tag and term indexes on; the old
    // epochs keep theirs.
    online
        .insert_xml("note", r#"<note>zig <cite xlink:href="d0"/></note>"#)
        .unwrap();
    let third = online.snapshot();
    assert!(!std::ptr::eq(second.tags(), third.tags()));
    assert!(!std::sync::Arc::ptr_eq(second.text(), third.text()));
    // The engine swapped in the successor term index its snapshot shares.
    online.read(|h| assert!(std::sync::Arc::ptr_eq(h.text(), third.text())));
    assert_eq!(
        third.query(r#"//note[contains(., "zig")]"#).unwrap().len(),
        1
    );
    assert!(second
        .query(r#"//note[contains(., "zig")]"#)
        .unwrap()
        .is_empty());
    assert_eq!(doc(&first), doc(&third));

    // A rebuilt cover has no journal: full freeze, then patches again.
    online.rebuild_blocking();
    assert!(!online.snapshot_stats().publish.patched);
    online.insert_link(to, from).unwrap();
    assert!(online.snapshot_stats().publish.patched);
    let totals = online.publish_totals();
    assert_eq!((totals.patched, totals.full), (3, 2));
    assert_eq!(totals.duration.count(), online.epoch() + 1);
    assert!(totals.rows_patched >= publish.rows_patched as u64);
    online.read(oracle_check);
}

#[test]
fn save_frozen_open_round_trips() {
    let hopi = library();
    let path = std::env::temp_dir().join(format!("hopi_facade_frozen_{}.idx", std::process::id()));
    hopi.save_frozen(&path).unwrap();

    // Facade open thaws the frozen layout.
    let reopened = Hopi::open(hopi.collection().clone(), &path).unwrap();
    let n = hopi.collection().elem_id_bound() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(reopened.connected(u, v), hopi.connected(u, v), "({u},{v})");
        }
        assert_eq!(reopened.descendants(u), hopi.descendants(u));
    }
    assert_eq!(reopened.stats().cover_entries, hopi.stats().cover_entries);

    // The pure read-only path loads a FrozenCover directly, no thaw.
    let (frozen, _) = hopi::store::load_index(&hopi::store::StdVfs, &path).unwrap();
    for u in 0..n {
        for v in 0..n {
            assert_eq!(frozen.connected(u, v), hopi.connected(u, v));
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_frozen_distance_round_trips() {
    let hopi = Hopi::builder()
        .distance_aware(true)
        .parse([
            ("a", r#"<r><cite xlink:href="b"/></r>"#),
            ("b", r#"<r><s/></r>"#),
        ])
        .unwrap();
    let path = std::env::temp_dir().join(format!(
        "hopi_facade_frozen_dist_{}.idx",
        std::process::id()
    ));
    hopi.save_frozen(&path).unwrap();
    let reopened = Hopi::open(hopi.collection().clone(), &path).unwrap();
    let n = hopi.collection().elem_id_bound() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                reopened.distance(u, v).unwrap(),
                hopi.distance(u, v).unwrap(),
                "dist({u},{v})"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn duplicate_insert_link_is_noop_for_all_reported_state() {
    let mut hopi = Hopi::builder()
        .distance_aware(true)
        .parse([("a", r#"<r><s/></r>"#), ("b", r#"<r><s/></r>"#)])
        .unwrap();
    let (a_s, b_root) = (1, 2);
    let added = hopi.insert_link(a_s, b_root).unwrap();
    assert!(added > 0);
    let before = hopi.stats();
    // Second insert: no new entries, no distance-cover re-relaxation, no
    // extra link.
    assert_eq!(hopi.insert_link(a_s, b_root).unwrap(), 0);
    let after = hopi.stats();
    assert_eq!(after.cover_entries, before.cover_entries);
    assert_eq!(after.distance_entries, before.distance_entries);
    assert_eq!(after.links, before.links);
    oracle_check(&hopi);
}

#[test]
fn opens_row_files_of_older_builds() {
    // Older builds wrote the cover as LIN/LOUT row tables; both committed
    // fixtures open as the covers they were written from.
    let fixture = |name: &str| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/store/tests/fixtures")
            .join(name)
    };
    let same_answers = |opened: &Hopi, built: &Hopi| {
        let n = built.collection().elem_id_bound() as u32;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(opened.connected(u, v), built.connected(u, v), "({u},{v})");
            }
        }
    };

    // Version 2, plain rows of the cover of (0,1), (1,2), (0,3), (3,2),
    // (2,4), no baseline: the opened cover counts as built.
    let built = Hopi::builder()
        .parse([
            (
                "a",
                r##"<r><x><y id="y" xlink:href="b"/></x><z xlink:href="#y"/></r>"##,
            ),
            ("b", "<b/>"),
        ])
        .unwrap();
    let opened = Hopi::open(built.collection().clone(), &fixture("v2_rows.idx")).unwrap();
    same_answers(&opened, &built);
    assert!(opened.connected(3, 4) && !opened.connected(4, 0));
    assert_eq!(opened.degradation().drift_ratio, 1.0);

    // Version 4, distance rows saved with a baseline of 8 entries and 9
    // live elements: distances and drift survive.
    let built = Hopi::builder()
        .distance_aware(true)
        .parse([
            ("a", r#"<r><s><t/></s><cite xlink:href="b"/></r>"#),
            ("b", r#"<r><s/><cite xlink:href="c"/></r>"#),
            ("c", r#"<r><s/></r>"#),
        ])
        .unwrap();
    let opened = Hopi::open(built.collection().clone(), &fixture("v4_rows_dist.idx")).unwrap();
    same_answers(&opened, &built);
    for u in 0..9 {
        for v in 0..9 {
            assert_eq!(
                opened.distance(u, v).unwrap(),
                built.distance(u, v).unwrap()
            );
        }
    }
    assert_eq!(opened.distance(0, 8).unwrap(), Some(5));
    let drift = opened.degradation();
    assert_eq!((drift.entries, drift.entries_at_build), (11, 8));
    assert_eq!(drift.drift_ratio, 11.0 / 8.0);
}

#[test]
fn save_open_round_trips_distance_and_config() {
    let hopi = Hopi::builder()
        .distance_aware(true)
        .parse([
            ("a", r#"<r><cite xlink:href="b"/></r>"#),
            ("b", r#"<r><s/></r>"#),
        ])
        .unwrap();
    let path = std::env::temp_dir().join(format!("hopi_facade_dist_{}.idx", std::process::id()));
    hopi.save_frozen(&path).unwrap();

    // Plain open restores distance queries from the DIST column.
    let reopened = Hopi::open(hopi.collection().clone(), &path).unwrap();
    let n = hopi.collection().elem_id_bound() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(reopened.connected(u, v), hopi.connected(u, v));
            assert_eq!(
                reopened.distance(u, v).unwrap(),
                hopi.distance(u, v).unwrap(),
                "dist({u},{v})"
            );
        }
    }

    // Builder-based open keeps the chosen build configuration.
    let tuned = Hopi::builder()
        .partitioner(PartitionerChoice::Flat)
        .open(hopi.collection().clone(), &path)
        .unwrap();
    assert!(matches!(
        tuned.config().partitioner,
        PartitionerChoice::Flat
    ));
    std::fs::remove_file(&path).ok();
}
