//! System-level property tests: arbitrary collections, arbitrary build
//! configurations, arbitrary update sequences — the engine must always
//! agree with the closure oracle.

use hopi::build::Reads;
use hopi::graph::{DistanceClosure, TransitiveClosure};
use hopi::prelude::*;
use hopi::query::TagIndex;
use hopi_text::TextIndex;
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random collection blueprint.
#[derive(Debug, Clone)]
struct CollectionPlan {
    docs: Vec<usize>,                     // element count per doc
    links: Vec<(usize, u32, usize, u32)>, // (doc_a, raw_elem, doc_b, raw_elem)
}

fn arb_plan() -> impl Strategy<Value = CollectionPlan> {
    let docs = proptest::collection::vec(1usize..6, 2..8);
    docs.prop_flat_map(|docs| {
        let n = docs.len();
        let links = proptest::collection::vec((0..n, 0u32..8, 0..n, 0u32..8), 0..12);
        (Just(docs), links).prop_map(|(docs, links)| CollectionPlan { docs, links })
    })
}

fn realize(plan: &CollectionPlan) -> Collection {
    realize_with_intra_links(plan, &[])
}

/// A blueprint with intra-document links `(doc, raw_from, raw_to)` on top;
/// a link that points up the tree closes a cycle inside its document.
fn arb_cyclic_plan() -> impl Strategy<Value = (CollectionPlan, Vec<(usize, u32, u32)>)> {
    arb_plan().prop_flat_map(|plan| {
        let n = plan.docs.len();
        let intra = proptest::collection::vec((0..n, 0u32..8, 0u32..8), 0..8);
        (Just(plan), intra)
    })
}

fn realize_with_intra_links(plan: &CollectionPlan, intra: &[(usize, u32, u32)]) -> Collection {
    let mut c = Collection::new();
    for (i, &n) in plan.docs.iter().enumerate() {
        let mut d = XmlDocument::new(format!("d{i}"), "r");
        for k in 1..n {
            // Chain/stars mix: attach to element k/2.
            d.add_element((k / 2) as u32, "e");
        }
        for &(_, from, to) in intra.iter().filter(|l| l.0 == i) {
            let (from, to) = (from % n as u32, to % n as u32);
            if from != to {
                d.add_intra_link(from, to);
            }
        }
        c.add_document(d);
    }
    for &(da, ea, db, eb) in &plan.links {
        if da == db {
            continue;
        }
        let (da, db) = (da as u32, db as u32);
        let la = ea % c.document(da).unwrap().len() as u32;
        let lb = eb % c.document(db).unwrap().len() as u32;
        c.add_link(c.global_id(da, la), c.global_id(db, lb));
    }
    c
}

fn oracle_check(hopi: &Hopi) -> Result<(), TestCaseError> {
    let g = hopi.collection().element_graph();
    let tc = TransitiveClosure::from_graph(&g);
    for u in (0..g.id_bound() as u32).filter(|&u| g.is_alive(u)) {
        for v in (0..g.id_bound() as u32).filter(|&v| g.is_alive(v)) {
            prop_assert_eq!(
                hopi.connected(u, v),
                tc.contains(u, v),
                "pair ({},{})",
                u,
                v
            );
        }
    }
    Ok(())
}

/// [`realize`], with a few words of text on every element (the lifecycle
/// test watches the term index too).
fn realize_with_text(plan: &CollectionPlan) -> Collection {
    let bare = realize(plan);
    let mut c = Collection::new();
    for d in bare.doc_ids() {
        let mut doc = bare.document(d).unwrap().clone();
        for k in 0..doc.len() as u32 {
            doc.set_text(k, ["hop cover", "xml index", "hop"][(d + k) as usize % 3]);
        }
        c.add_document(doc);
    }
    for l in bare.links() {
        c.add_link(l.from, l.to);
    }
    c
}

/// What one epoch answers: per live element the elements it is connected
/// to and its descendants, the rows of `//r//e`, and — distance-aware —
/// its distance to every live element.
#[derive(Debug, PartialEq)]
struct Answers {
    connected: Vec<Vec<ElemId>>,
    descendants: Vec<Vec<ElemId>>,
    path: Vec<ElemId>,
    distance: Option<Vec<Vec<Option<u32>>>>,
}

fn live_elements(c: &Collection) -> Vec<ElemId> {
    (0..c.elem_id_bound() as ElemId)
        .filter(|&e| c.doc_of(e).is_some())
        .collect()
}

/// The answers of a BFS closure over the collection alone (with BFS
/// distances when `distance_aware`).
fn oracle_answers(c: &Collection, distance_aware: bool) -> Answers {
    let graph = c.element_graph();
    let tc = TransitiveClosure::from_graph(&graph);
    let live = live_elements(c);
    let tag = |e: ElemId| {
        let (d, local) = c.to_local(e).unwrap();
        c.document(d).unwrap().element(local).tag.as_str()
    };
    let descendants: Vec<Vec<ElemId>> = live.iter().map(|&u| tc.descendants(u).to_vec()).collect();
    let path = live
        .iter()
        .copied()
        .filter(|&v| tag(v) == "e" && live.iter().any(|&u| tag(u) == "r" && tc.contains(u, v)))
        .collect();
    let distance = distance_aware.then(|| {
        let dc = DistanceClosure::from_graph(&graph);
        live.iter()
            .map(|&u| live.iter().map(|&v| dc.dist(u, v)).collect())
            .collect()
    });
    Answers {
        connected: descendants.clone(),
        descendants,
        path,
        distance,
    }
}

/// The answers of a snapshot's index.
fn snapshot_answers(snap: &HopiSnapshot) -> Answers {
    let live = live_elements(snap.collection());
    Answers {
        connected: live
            .iter()
            .map(|&u| {
                live.iter()
                    .copied()
                    .filter(|&v| snap.connected(u, v))
                    .collect()
            })
            .collect(),
        descendants: live.iter().map(|&u| snap.descendants(u)).collect(),
        path: snap.query("//r//e").unwrap(),
        distance: snap.distance_cover().map(|_| {
            live.iter()
                .map(|&u| live.iter().map(|&v| snap.distance(u, v).unwrap()).collect())
                .collect()
        }),
    }
}

/// An online engine, and a plain [`Hopi`] every op of the program is
/// applied to as well: whatever background rebuilds swap in, the online
/// engine must keep the model's collection.
struct Lineage {
    online: OnlineHopi,
    model: Hopi,
}

/// The online engine holds the model's collection, and its published
/// snapshot is exactly what a from-scratch capture of it would be: frozen
/// cover, tag index, term index — and the engine's very distance cover,
/// not a copy. All of it is read under the engine lock, which every
/// publish holds — a background rebuild cannot swap midway.
fn published_equals_model(lineage: &Lineage) -> Result<(), TestCaseError> {
    let Lineage { online, model } = lineage;
    online.read(|h| {
        let (c, m) = (h.collection(), model.collection());
        prop_assert_eq!(c.doc_id_bound(), m.doc_id_bound());
        prop_assert_eq!(c.elem_id_bound(), m.elem_id_bound());
        prop_assert_eq!(c.links(), m.links());
        for d in 0..m.doc_id_bound() as DocId {
            prop_assert_eq!(c.document(d), m.document(d), "document {}", d);
        }
        let snap = online.snapshot();
        prop_assert_eq!(snap.frozen(), &FrozenCover::from_cover(h.index().cover()));
        let tags = TagIndex::build(c);
        prop_assert_eq!(h.tags(), &tags);
        prop_assert_eq!(snap.tags(), &tags);
        let text = TextIndex::build(c);
        prop_assert_eq!(h.text().as_ref(), &text);
        prop_assert_eq!(snap.text().as_ref(), &text);
        prop_assert_eq!(
            h.distance_cover().is_some(),
            model.distance_cover().is_some()
        );
        match (snap.distance_cover(), h.distance_cover()) {
            (Some(published), Some(engine)) => prop_assert!(
                Arc::ptr_eq(published, engine),
                "the snapshot holds a distance cover of its own"
            ),
            (published, engine) => prop_assert!(published.is_none() && engine.is_none()),
        }
        Ok(())
    })
}

/// Every read of the one read path over all ids of a collection: probes
/// one at a time and batched, distances, enumerations, path queries with
/// their EXPLAIN rows, and a ranked query as `(element, distance,
/// text_score)`.
#[derive(Debug, PartialEq)]
struct EveryRead {
    connected: Vec<bool>,
    connected_many: Vec<bool>,
    distance: Vec<Option<u32>>,
    descendants: Vec<Vec<ElemId>>,
    ancestors: Vec<Vec<ElemId>>,
    query: Vec<Vec<ElemId>>,
    explained: Vec<Vec<ElemId>>,
    ranked: Vec<(ElemId, u32, f64)>,
}

fn every_read<C: LabelSource>(r: &Reads<C>) -> EveryRead {
    let n = r.collection().elem_id_bound() as ElemId;
    let pairs: Vec<(ElemId, ElemId)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
    let mut connected_many = Vec::new();
    r.connected_many(&pairs, &mut connected_many);
    let exprs = ["//r//e", "//e//e", "/r/e", "//r//e[contains(., \"hop\")]"];
    EveryRead {
        connected: pairs.iter().map(|&(u, v)| r.connected(u, v)).collect(),
        connected_many,
        distance: pairs
            .iter()
            .map(|&(u, v)| r.distance(u, v).unwrap())
            .collect(),
        descendants: (0..n).map(|u| r.descendants(u)).collect(),
        ancestors: (0..n).map(|u| r.ancestors(u)).collect(),
        query: exprs.iter().map(|e| r.query(e).unwrap()).collect(),
        explained: exprs
            .iter()
            .map(|e| r.query_explained(e).unwrap().0)
            .collect(),
        ranked: r
            .query_ranked("//r//e[about(., \"xml hop\")]")
            .unwrap()
            .iter()
            .map(|m| (m.element, m.distance, m.text_score))
            .collect(),
    }
}

/// Element `raw` (modulo its length) of the `pick`-th live document.
fn pick_element(c: &Collection, pick: usize, raw: u32) -> (DocId, ElemId) {
    let docs: Vec<DocId> = c.doc_ids().collect();
    let d = docs[pick % docs.len()];
    (d, c.global_id(d, raw % c.document(d).unwrap().len() as u32))
}

/// A background rebuild in flight and the steps left before it is joined.
type Rebuild = (std::thread::JoinHandle<hopi::build::BuildReport>, u32);

/// Applies one step of a lifecycle program to `engines[a % len]` and its
/// model; returns the lineage it touched.
fn lifecycle_step(
    engines: &mut Vec<Lineage>,
    rebuilds: &mut Vec<Rebuild>,
    step: usize,
    (op, a, b, raw): (u32, usize, usize, u32),
) -> usize {
    let (at, len) = (a % engines.len(), engines.len());
    let online = engines[at].online.clone();
    let c = online.snapshot().collection().clone();
    let ((da, ea), (db, eb)) = (pick_element(&c, a, raw), pick_element(&c, b, raw / 2));
    let fresh_doc = |name: String, text: &str| {
        let mut d = XmlDocument::new(name, "r");
        let e = d.add_element(0, "e");
        d.set_text(e, text);
        d
    };
    let model = &mut engines[at].model;
    match op {
        0 | 1 if da != db => {
            online.insert_link(ea, eb).unwrap();
            model.insert_link(ea, eb).unwrap();
        }
        2 => {
            let target = &c.document(db).unwrap().name;
            let xml = format!(r#"<r><e>zig cover</e><cite xlink:href="{target}"/></r>"#);
            online.insert_xml(&format!("x{step}"), &xml).unwrap();
            model.insert_xml(&format!("x{step}"), &xml).unwrap();
        }
        3 if !c.links().is_empty() => {
            let l = c.links()[a % c.links().len()];
            online.delete_link(l.from, l.to).unwrap();
            model.delete_link(l.from, l.to).unwrap();
        }
        4 if c.doc_count() > 2 => {
            online.delete_document(da).unwrap();
            model.delete_document(da).unwrap();
        }
        5 if da != db => {
            let links = DocumentLinks {
                outgoing: vec![(1, eb)],
                incoming: vec![],
            };
            let doc = fresh_doc(format!("m{step}"), "fresh hop");
            online.modify_document(da, doc.clone(), &links).unwrap();
            model.modify_document(da, doc, &links).unwrap();
        }
        6 => {
            // One batch online; the same mutations one by one on the model.
            // Two documents with text and a delete make the publish follow
            // a chain of term-index successors (and, distance-aware, of
            // distance-cover successors).
            let mut batch = Vec::new();
            if da != db {
                for (from, to) in [(ea, eb), (eb, ea)] {
                    batch.push(WalRecord::InsertLink { from, to });
                    model.insert_link(from, to).unwrap();
                }
            }
            let mut inserted = Vec::new();
            for (k, text) in ["fresh hop", "zag cover"].into_iter().enumerate() {
                let doc = fresh_doc(format!("b{step}.{k}"), text);
                let incoming = vec![(ea, 0)];
                batch.push(WalRecord::InsertDocument {
                    doc: doc.clone(),
                    outgoing: vec![],
                    incoming: incoming.clone(),
                });
                let links = DocumentLinks {
                    outgoing: vec![],
                    incoming,
                };
                inserted.push(model.insert_document(doc, &links).unwrap());
            }
            // An older document, or the first one the batch inserted.
            let doc = if raw % 2 == 0 { da } else { inserted[0] };
            batch.push(WalRecord::DeleteDocument { doc });
            model.delete_document(doc).unwrap();
            online.apply(batch).unwrap();
        }
        7 => {
            online.rebuild_blocking();
        }
        8 if len < 3 => {
            // A second wrapper around a clone of the engine: both lineages
            // go on publishing from the same journal state.
            let model = model.clone();
            let online = OnlineHopi::new(online.read(|h| h.clone()));
            engines.push(Lineage { online, model });
            return engines.len() - 1;
        }
        9 => {
            // A background rebuild, joined after the next `raw % 3` steps.
            // The pause lets it capture its collection first, so the op
            // that follows (any other, rebuilds and batches included) most
            // likely lands inside its catch-up window. Nothing here depends
            // on the interleaving — every one must keep the model's
            // collection; `hopi_build`'s unit tests force the ones that
            // matter through the rebuild's capture and swap phases.
            rebuilds.push((online.rebuild_in_background(), raw % 3));
            std::thread::sleep(std::time::Duration::from_micros(100));
            return lifecycle_step(engines, rebuilds, step, ((b % 9) as u32, a, b, raw));
        }
        _ => {}
    }
    at
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random lifecycles over `OnlineHopi`: every published snapshot
    /// equals a from-scratch capture of its engine, and every snapshot
    /// retained from an earlier epoch keeps answering like the oracle of
    /// its own collection — what consecutive epochs share must never leak
    /// a later mutation into an older one. Background rebuilds run across
    /// steps, so their catch-up replays whatever the program does
    /// meanwhile, and the engine must keep its model's collection. A
    /// distance-aware engine also answers every distance like BFS, in
    /// every retained epoch.
    #[test]
    fn online_lifecycle_publishes_exact_successors(
        plan in arb_plan(),
        program in proptest::collection::vec((0u32..10, 0usize..100, 0usize..100, 0u32..8), 1..14),
        distance_aware in (0u32..2).prop_map(|b| b == 1),
    ) {
        let model = Hopi::builder()
            .distance_aware(distance_aware)
            .build(realize_with_text(&plan))
            .unwrap();
        let mut engines = vec![Lineage { online: OnlineHopi::new(model.clone()), model }];
        published_equals_model(&engines[0])?;
        let mut retained: Vec<(Arc<HopiSnapshot>, Answers)> = Vec::new();
        let mut rebuilds: Vec<Rebuild> = Vec::new();
        for (step, op) in program.into_iter().enumerate() {
            let before = engines[0].online.snapshot();
            retained.push((before.clone(), oracle_answers(before.collection(), distance_aware)));
            let touched = lifecycle_step(&mut engines, &mut rebuilds, step, op);
            for (handle, left) in std::mem::take(&mut rebuilds) {
                match left {
                    0 => { handle.join().expect("rebuild thread"); }
                    _ => rebuilds.push((handle, left - 1)),
                }
            }
            published_equals_model(&engines[touched])?;
            retained.push({
                let snap = engines[touched].online.snapshot();
                let answers = oracle_answers(snap.collection(), distance_aware);
                (snap, answers)
            });
            for (snap, at_capture) in &retained {
                prop_assert_eq!(&oracle_answers(snap.collection(), distance_aware), at_capture,
                    "epoch {}: the collection changed under the snapshot", snap.epoch());
                prop_assert_eq!(&snapshot_answers(snap), at_capture,
                    "epoch {} after step {}", snap.epoch(), step);
            }
        }
        for (handle, _) in rebuilds {
            handle.join().expect("rebuild thread");
        }
        for lineage in &engines {
            published_equals_model(lineage)?;
        }
    }

    #[test]
    fn arbitrary_collection_psg_join((plan, intra) in arb_cyclic_plan(), budget in 4u64..48) {
        let c = realize_with_intra_links(&plan, &intra);
        let tc = |max_connections_per_partition| {
            PartitionerChoice::Tc(TcPartitionerConfig {
                max_connections_per_partition,
                ..Default::default()
            })
        };
        for partitioner in [PartitionerChoice::PerDocument, tc(budget), tc(4 * budget)] {
            let hopi = Hopi::builder().partitioner(partitioner).build(c.clone()).unwrap();
            oracle_check(&hopi)?;
        }
    }

    #[test]
    fn deletion_sequence_stays_exact(plan in arb_plan(), order in proptest::collection::vec(0usize..100, 1..5)) {
        let mut hopi = Hopi::build(realize(&plan)).unwrap();
        let mut live: Vec<DocId> = hopi.collection().doc_ids().collect();
        for pick in order {
            if live.len() <= 1 {
                break;
            }
            let victim = live.remove(pick % live.len());
            hopi.delete_document(victim).unwrap();
            oracle_check(&hopi)?;
        }
    }

    #[test]
    fn insertion_sequence_stays_exact(plan in arb_plan(), extra in proptest::collection::vec((0usize..100, 0usize..100), 1..5)) {
        let mut hopi = Hopi::build(realize(&plan)).unwrap();
        for (i, (da, db)) in extra.into_iter().enumerate() {
            let docs: Vec<DocId> = hopi.collection().doc_ids().collect();
            let a = docs[da % docs.len()];
            let b = docs[db % docs.len()];
            if a != b {
                let from = hopi.collection().global_id(a, 0);
                let to = hopi.collection().global_id(b, 0);
                hopi.insert_link(from, to).unwrap();
            } else {
                let mut d = XmlDocument::new(format!("x{i}"), "r");
                d.add_element(0, "s");
                let to = hopi.collection().global_id(a, 0);
                hopi.insert_document(d, &DocumentLinks {
                    outgoing: vec![(1, to)],
                    incoming: vec![],
                }).unwrap();
            }
            oracle_check(&hopi)?;
        }
    }

    #[test]
    fn frozen_cover_agrees_with_live_cover(plan in arb_plan()) {
        // The frozen CSR snapshot must answer connected / descendants /
        // ancestors exactly like the mutable cover it was frozen from.
        use hopi::core::FrozenCover;
        let hopi = Hopi::build(realize(&plan)).unwrap();
        let live = hopi.index().cover();
        let frozen = FrozenCover::from_cover(live);
        prop_assert_eq!(frozen.size(), live.size());
        let n = hopi.collection().elem_id_bound() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(frozen.connected(u, v), live.connected(u, v), "pair ({},{})", u, v);
            }
            prop_assert_eq!(frozen.descendants(u), live.descendants(u), "descendants {}", u);
            prop_assert_eq!(frozen.ancestors(u), live.ancestors(u), "ancestors {}", u);
        }
    }

    #[test]
    fn frozen_distance_agrees_with_live_cover(plan in arb_plan()) {
        // Same property for the distance annotations of a distance-aware
        // engine, plus the frozen persistence round trip.
        use hopi::core::FrozenCover;
        use hopi::store::load_index;
        let hopi = Hopi::builder().distance_aware(true).build(realize(&plan)).unwrap();
        let n = hopi.collection().elem_id_bound() as u32;
        let path = std::env::temp_dir().join(format!(
            "hopi_proptest_frozen_{}_{}.idx",
            std::process::id(),
            n
        ));
        hopi.save_frozen(&path).unwrap();
        let (frozen, _) = load_index(&hopi::store::StdVfs, &path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert!(frozen.with_dist());
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    frozen.distance(u, v),
                    hopi.distance(u, v).unwrap(),
                    "distance ({},{})", u, v
                );
            }
        }
        let _ = FrozenCover::from_cover(hopi.index().cover()); // plain form still freezes
    }

    #[test]
    fn snapshot_agrees_with_engine_queries(
        plan in arb_plan(),
        pick in 0usize..100,
        raw in 0u32..8,
        gone in 0usize..100,
    ) {
        // A distance-aware engine after a §6.1 link insert and a §6.2
        // document delete: the engine, its snapshot and an online engine's
        // published snapshot answer every read alike — the snapshots'
        // distances and ranked reads from the frozen distance cover.
        let mut hopi = Hopi::builder()
            .distance_aware(true)
            .build(realize_with_text(&plan))
            .unwrap();
        let (_, from) = pick_element(hopi.collection(), pick, raw);
        let (_, to) = pick_element(hopi.collection(), pick + 1, raw + 1);
        hopi.insert_link(from, to).unwrap();
        let docs: Vec<DocId> = hopi.collection().doc_ids().collect();
        hopi.delete_document(docs[gone % docs.len()]).unwrap();
        let engine = every_read(&hopi);
        prop_assert_eq!(&every_read(&hopi.snapshot()), &engine);
        prop_assert_eq!(&every_read(&OnlineHopi::new(hopi.clone()).snapshot()), &engine);
    }

    #[test]
    fn duplicate_link_insert_is_noop(plan in arb_plan(), da in 0usize..100, db in 0usize..100) {
        let mut hopi = Hopi::builder().distance_aware(true).build(realize(&plan)).unwrap();
        let docs: Vec<DocId> = hopi.collection().doc_ids().collect();
        let a = docs[da % docs.len()];
        let b = docs[db % docs.len()];
        if a != b {
            let from = hopi.collection().global_id(a, 0);
            let to = hopi.collection().global_id(b, 0);
            hopi.insert_link(from, to).unwrap();
            let stats = hopi.stats();
            prop_assert_eq!(hopi.insert_link(from, to).unwrap(), 0);
            let after = hopi.stats();
            prop_assert_eq!(after.cover_entries, stats.cover_entries);
            prop_assert_eq!(after.distance_entries, stats.distance_entries);
            prop_assert_eq!(after.links, stats.links);
            oracle_check(&hopi)?;
        }
    }

    #[test]
    fn store_agrees_with_engine(plan in arb_plan()) {
        let hopi = Hopi::build(realize(&plan)).unwrap();
        let path = std::env::temp_dir().join(format!(
            "hopi_proptest_store_{}_{}.idx",
            std::process::id(),
            hopi.collection().elem_id_bound()
        ));
        hopi.save_frozen(&path).unwrap();
        let reloaded = Hopi::open(hopi.collection().clone(), &path).unwrap();
        std::fs::remove_file(&path).ok();
        let n = hopi.collection().elem_id_bound() as u32;
        for u in 0..n {
            prop_assert_eq!(reloaded.descendants(u), hopi.descendants(u));
            prop_assert_eq!(reloaded.ancestors(u), hopi.ancestors(u));
        }
    }
}
