//! `maintain-dblp`: §6 incremental maintenance through the real write path
//! (maintenance → WAL → publish), then a crash and a recovery.
//!
//! Access path of the universal metrics: a durable `OnlineHopi` (group
//! commit) under churn. Writes are the script's own mutations; reads run
//! between its rounds on whatever snapshot is published by then, so they
//! see the cover the maintenance algorithms leave behind, not a freshly
//! built one.
//!
//! The script is a sequence of identical rounds of nine mutations — five
//! `insert_link`, two `insert_xml`, one `delete_link`, and alternately one
//! `delete_document` or one `modify_document` — shuffled within the round,
//! with operands drawn against the engine's state at that point, both from
//! the fixed [`SCRIPT_SEED`]: which links and documents a script deletes
//! decides how much of the cover each deletion recomputes, so a script per
//! run seed measures the draw, not the code (see `inputs.rs`). The run
//! seed drives the reads between the rounds and the sampled checks.
//! `write_ms` is the script's acknowledged time per mutation — total over
//! count, not a median over rounds: the script is fixed work whose rounds
//! differ a lot by design (a Theorem 3 deletion recomputes the cover of
//! everything that reached the deleted edge, 0.3–1.3 s here against ~1 ms
//! for an insertion, and a Theorem 2 one is free), so the total averages
//! the machine's noise over the whole script where a median would read it
//! off two arbitrary rounds.

use super::Ctx;
use crate::access::{self, CheckPlan, EnginePath, ReadSamples, SnapshotPath};
use crate::inputs::{self, DBLP_PATHS, DBLP_TEXTS};
use crate::layers;
use crate::oracle::Oracle;
use crate::reference::Bracket;
use crate::stats;
use hopi_build::{DurableConfig, Hopi, OnlineHopi, SyncPolicy};
use hopi_maintenance::{DeletionAlgorithm, DocumentLinks};
use hopi_xml::parser::parse_document;
use hopi_xml::{Collection, DocId, ElemId};
use rand::prelude::*;
use std::time::{Duration, Instant};

/// Seconds one round is expected to take on the reference box; the number
/// of rounds is `--seconds` over this.
const ROUND_SECONDS: f64 = 1.9;
/// Read rounds after every round of the script.
const READ_ROUNDS: usize = 12;
/// Seed of the canonical maintenance script (the DBLP generator's own
/// default seed).
const SCRIPT_SEED: u64 = 0x40b1;
/// Links inserted after the checkpoint, which recovery must replay.
const AFTER_CHECKPOINT: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    InsertLink,
    InsertXml,
    DeleteLink,
    DeleteDocument,
    ModifyDocument,
}

/// One mutation with its operands, as applied (and as replayed on the
/// bare index).
#[derive(Clone, Debug)]
enum Op {
    InsertLink(ElemId, ElemId),
    InsertXml(String, String),
    DeleteLink(ElemId, ElemId),
    DeleteDocument(DocId),
    ModifyDocument(DocId),
}

fn round_kinds(rng: &mut StdRng, round: usize) -> Vec<Kind> {
    let mut kinds = vec![Kind::InsertLink; 5];
    kinds.extend([Kind::InsertXml; 2]);
    kinds.push(Kind::DeleteLink);
    kinds.push(if round.is_multiple_of(2) {
        Kind::DeleteDocument
    } else {
        Kind::ModifyDocument
    });
    kinds.shuffle(rng);
    kinds
}

/// A ~10-element article whose two `cite` elements link to the roots of
/// two existing documents (outgoing links only, so a DAG stays a DAG).
fn article_xml(rng: &mut StdRng, c: &Collection) -> String {
    let docs: Vec<DocId> = c.doc_ids().collect();
    let mut cite = || {
        let d = docs[rng.gen_range(0..docs.len())];
        let name = &c.document(d).expect("live doc").name;
        let term = rng.gen_range(0..10);
        format!("<cite xlink:href=\"{name}\"><label>term{term} term0</label></cite>")
    };
    let (a, b) = (cite(), cite());
    format!(
        "<article><title>term0 term1 fresh</title><authors><author><name>term2</name>\
         </author></authors><year/><citations>{a}{b}</citations></article>"
    )
}

fn draw(rng: &mut StdRng, kind: Kind, c: &Collection, serial: &mut usize) -> Op {
    let docs: Vec<DocId> = c.doc_ids().collect();
    match kind {
        Kind::InsertLink => {
            let (from, to) = inputs::forward_link(rng, c);
            Op::InsertLink(from, to)
        }
        Kind::InsertXml => {
            *serial += 1;
            Op::InsertXml(format!("new{serial}"), article_xml(rng, c))
        }
        Kind::DeleteLink => {
            let l = c.links()[rng.gen_range(0..c.links().len())];
            Op::DeleteLink(l.from, l.to)
        }
        Kind::DeleteDocument => Op::DeleteDocument(docs[rng.gen_range(0..docs.len())]),
        Kind::ModifyDocument => Op::ModifyDocument(docs[rng.gen_range(0..docs.len())]),
    }
}

fn apply(online: &OnlineHopi, op: &Op) -> Result<(), hopi_build::HopiError> {
    match op {
        Op::InsertLink(from, to) => online.insert_link(*from, *to).map(|_| ()),
        Op::InsertXml(name, xml) => online.insert_xml(name, xml).map(|_| ()),
        Op::DeleteLink(from, to) => online.delete_link(*from, *to).map(|_| ()),
        Op::DeleteDocument(d) => online.delete_document(*d).map(|_| ()),
        Op::ModifyDocument(d) => {
            // Same content, links dropped (§6.3: drop + reinsert).
            let doc = online
                .read(|h| h.collection().document(*d).cloned())
                .ok_or(hopi_build::HopiError::UnknownDocument(*d))?;
            online
                .modify_document(*d, doc, &DocumentLinks::default())
                .map(|_| ())
        }
    }
}

fn open_instance(
    ctx: &mut Ctx,
    i: usize,
    build_s: &mut Vec<f64>,
) -> (OnlineHopi, std::path::PathBuf) {
    let scale = ctx.sizes.maintain_dblp_scale;
    let collection = super::generated(ctx, "generator::dblp", || inputs::dblp_collection(scale));
    // The default configuration: at this size one partition, no join.
    let hopi = super::timed_build(ctx, Hopi::builder(), collection, build_s);
    let dir = ctx.scratch.join(format!("state-{i}"));
    let config = DurableConfig::new(&dir).policy(SyncPolicy::GroupCommit);
    let (online, _) = ctx
        .tracer
        .time("build", "OnlineHopi::bootstrap_durable", "setup", || {
            OnlineHopi::bootstrap_durable(&config, hopi)
        });
    (online.expect("fresh durable directory"), dir)
}

pub fn run(ctx: &mut Ctx) {
    let sizes = ctx.sizes;
    let mut build_s = Vec::new();
    let (online, dir) = ctx.setup(|ctx, i| open_instance(ctx, i, &mut build_s));
    ctx.report.set_p50("build.build_s", &build_s, 1.0);
    let base = online.read(|h| h.collection().clone());
    let inputs = inputs::read_inputs(&mut ctx.rng, &base, &sizes, &DBLP_PATHS, &DBLP_TEXTS);
    let base_stats = online.read(|h| h.stats());
    let rounds = if ctx.smoke {
        2
    } else {
        (ctx.seconds / ROUND_SECONDS).round().max(3.0) as usize
    };
    ctx.report.note(format!(
        "collection: DBLP scale {} — {} docs, {} elements, {} links, {} cover entries; {rounds} rounds of 9 mutations",
        sizes.maintain_dblp_scale, base_stats.documents, base_stats.elements,
        base_stats.links, base_stats.cover_entries,
    ));
    online.read(|h| layers::build_report(&mut ctx.report, h.report()));
    {
        // Before the script: the canonical collection answers the scripts
        // with the pinned row counts.
        let oracle = Oracle::new(&base);
        let expected =
            access::expected_rows(&oracle, &inputs, sizes.maintain_dblp_rows, &mut ctx.report);
        let (snap, plan) = (
            online.snapshot(),
            CheckPlan {
                sources: 0,
                pairs: 0,
            },
        );
        let tally = &mut ctx.report.tally;
        access::check_reads(
            &mut SnapshotPath(&snap),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
    }

    // Timed region: the script, with a read round and a spot check after
    // every mutation round.
    let phase = ctx.phase("timed");
    let slice = if ctx.smoke {
        Duration::from_millis(2)
    } else {
        Duration::from_millis(5)
    };
    let mut samples = ReadSamples::default();
    let mut script: Vec<Op> = Vec::new();
    let (mut round_ms, mut insert_us, mut delete_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut acknowledged_s = 0.0;
    let mut serial = 0usize;
    let mut script_rng = StdRng::seed_from_u64(SCRIPT_SEED);
    let started = Instant::now();
    for round in 0..rounds {
        // A machine or a seed on which deletions cost many times the
        // expected second must not run into the driver's time limit.
        if started.elapsed().as_secs_f64() > 4.0 * ctx.seconds.max(1.0) {
            ctx.report
                .note(format!("script cut short after {round} rounds"));
            break;
        }
        let mut round_s = 0.0;
        let kinds = round_kinds(&mut script_rng, round);
        // A reference reading after every mutation (a §6.2 deletion runs
        // for a second): each is normalised by the two around it.
        let mut bracket = Bracket::open(&mut ctx.reference);
        for &kind in &kinds {
            let op = online.read(|h| draw(&mut script_rng, kind, h.collection(), &mut serial));
            let span = ctx
                .tracer
                .begin("build", "OnlineHopi mutation", kind_name(kind));
            let t = Instant::now();
            let result = apply(&online, &op);
            let elapsed = t.elapsed().as_secs_f64();
            ctx.tracer.end(span);
            let factor = bracket.close(&mut ctx.reference);
            match result {
                Ok(()) => {
                    ctx.report.tally.ran(1);
                    round_s += elapsed * factor;
                    match kind {
                        Kind::InsertLink | Kind::InsertXml => insert_us.push(elapsed * 1e6),
                        Kind::DeleteLink => delete_ms.push(elapsed * 1e3),
                        Kind::DeleteDocument | Kind::ModifyDocument => {}
                    }
                }
                Err(e) => ctx.report.tally.fail(|| format!("{op:?}: {e}")),
            }
            script.push(op);
        }
        round_ms.push(round_s * 1e3 / kinds.len() as f64);
        acknowledged_s += round_s;

        let snap = online.snapshot();
        for _ in 0..READ_ROUNDS {
            access::read_round(
                &mut SnapshotPath(&snap),
                &inputs,
                slice,
                &mut ctx.reference,
                &mut samples,
                &mut ctx.tracer,
                &mut ctx.report.tally,
            );
        }
        // Spot check on the state this round left: 256 seeded probes.
        let oracle = Oracle::new(snap.collection());
        let from = (round * 256) % inputs.pairs.len().saturating_sub(256).max(1);
        for &(u, v) in inputs.pairs.iter().skip(from).take(256) {
            if oracle.is_live(u) && oracle.is_live(v) {
                ctx.report.tally.check_connected(
                    &oracle,
                    "snapshot mid-script",
                    u,
                    v,
                    snap.connected(u, v),
                );
            }
        }
    }
    ctx.tracer.end(phase);
    samples.report(&mut ctx.report, &inputs);
    ctx.report.set(
        "write_ms",
        acknowledged_s * 1e3 / script.len().max(1) as f64,
    );
    ctx.report.set("cover_entries", online.size() as f64);
    ctx.report
        .set_p50("build.insert_ack_p50_us", &insert_us, 1.0);
    ctx.report
        .set_p50("build.delete_ack_p50_ms", &delete_ms, 1.0);
    ctx.report.note(format!(
        "script: {} mutations in {:.2} s; cover {} -> {} entries; ms per mutation by round {:?}",
        script.len(),
        started.elapsed().as_secs_f64(),
        base_stats.cover_entries,
        online.size(),
        round_ms.iter().map(|v| v.round()).collect::<Vec<_>>(),
    ));

    // After the script: every live source's reachable set, on the
    // published snapshot and on the mutable engine.
    let phase = ctx.phase("checks");
    let plan = CheckPlan {
        sources: 0,
        pairs: 2048.min(sizes.pairs),
    };
    let after_script = online.read(|h| h.collection().clone());
    {
        let oracle = Oracle::new(&after_script);
        let expected = access::expected_rows(&oracle, &inputs, None, &mut ctx.report);
        let snap = online.snapshot();
        let tally = &mut ctx.report.tally;
        access::check_reads(
            &mut SnapshotPath(&snap),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
        access::check_all_sources(&mut SnapshotPath(&snap), &oracle, tally);
        online.read(|h| {
            access::check_reads(&mut EnginePath(h), &oracle, &inputs, plan, &expected, tally);
            access::check_all_sources(&mut EnginePath(h), &oracle, tally);
        });
        if ctx.tracer.is_on() {
            let hopi = online.read(|h| h.clone());
            let links = inputs::forward_links(&mut ctx.rng, &after_script, 64);
            let (tr, report) = (&mut ctx.tracer, &mut ctx.report);
            layers::engine_layers(tr, report, &hopi, &inputs, &expected, &links);
            layers::store_layer(tr, report, &hopi, &ctx.scratch, inputs.pairs[0]);
        }
    }
    ctx.tracer.end(phase);

    if ctx.traced() {
        let phase = ctx.phase("layers");
        maintenance_layer(ctx, &base, &script);
        // Degradation, as a number: the maintained cover against a fresh
        // build of the same collection, and what a rebuild costs.
        let fresh = Hopi::build(after_script.clone()).expect("final collection builds");
        ctx.report.set(
            "maintenance.cover_growth",
            online.size() as f64 / fresh.stats().cover_entries as f64,
        );
        let detached = OnlineHopi::new(online.read(|h| h.clone()));
        let (_, d) = ctx
            .tracer
            .time("build", "OnlineHopi::rebuild_blocking", "rebuild", || {
                detached.rebuild_blocking()
            });
        ctx.report.set("build.rebuild_ms", d.as_secs_f64() * 1e3);
        super::publish_share(ctx, stats::p50(&insert_us));
        let xmls: Vec<(&String, &String)> = script
            .iter()
            .filter_map(|op| match op {
                Op::InsertXml(name, xml) => Some((name, xml)),
                _ => None,
            })
            .collect();
        let (_, d) = ctx
            .tracer
            .time("xml", "parser::parse_document", "parse", || {
                for (name, xml) in &xmls {
                    std::hint::black_box(parse_document(name, xml).expect("script XML parses"));
                }
            });
        ctx.report.set(
            "xml.parse_doc_us",
            d.as_secs_f64() * 1e6 / xmls.len().max(1) as f64,
        );
        super::wal_layer(ctx, &online, &dir, script.len());
        ctx.tracer.end(phase);
    }

    // Checkpoint, a WAL tail, a crash (drop without checkpoint), recovery.
    let phase = ctx.phase("recovery");
    if !ctx.traced() {
        match online.checkpoint() {
            Ok(_) => ctx.report.tally.ran(1),
            Err(e) => ctx.report.tally.fail(|| format!("checkpoint: {e}")),
        }
    }
    let tail = inputs::forward_links(&mut script_rng, &after_script, AFTER_CHECKPOINT);
    for &(from, to) in &tail {
        match online.insert_link(from, to) {
            Ok(_) => ctx.report.tally.ran(1),
            Err(e) => ctx
                .report
                .tally
                .fail(|| format!("insert_link({from},{to}): {e}")),
        }
    }
    let replay = online.wal_stats().map_or(0, |w| w.records_since_checkpoint);
    let before_crash = online.read(|h| (h.collection().clone(), h.stats()));
    drop(online);
    let (recovered, d) = ctx
        .tracer
        .time("build", "Hopi::recover", "recover", || Hopi::recover(&dir));
    ctx.report.set("build.recover_ms", d.as_secs_f64() * 1e3);
    ctx.report.set("build.recover_replayed", replay as f64);
    ctx.tracer.end(phase);

    let phase = ctx.phase("checks");
    match recovered {
        Ok(recovered) => {
            let oracle = Oracle::new(&before_crash.0);
            let tally = &mut ctx.report.tally;
            access::check_all_sources(&mut EnginePath(&recovered), &oracle, tally);
            let (got, want) = (recovered.stats(), &before_crash.1);
            tally.check(
                (got.documents, got.links, got.elements)
                    == (want.documents, want.links, want.elements),
                || format!("recovered {got:?}, acknowledged before the crash {want:?}"),
            );
            tally.check(replay == AFTER_CHECKPOINT as u64, || {
                format!("{replay} WAL records past the checkpoint, {AFTER_CHECKPOINT} written")
            });
        }
        Err(e) => ctx.report.tally.fail(|| format!("recover: {e}")),
    }
    ctx.tracer.end(phase);
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::InsertLink => "insert_link",
        Kind::InsertXml => "insert_xml",
        Kind::DeleteLink => "delete_link",
        Kind::DeleteDocument => "delete_document",
        Kind::ModifyDocument => "modify_document",
    }
}

/// `hopi-maintenance`, bare: the same script replayed on a detached
/// `(Collection, HopiIndex)` — no WAL, no publish, no tag or text index.
fn maintenance_layer(ctx: &mut Ctx, base: &Collection, script: &[Op]) {
    let mut c = base.clone();
    let (mut index, _) = hopi_build::build_index(&c, &hopi_build::BuildConfig::default());
    let (mut link_us, mut doc_us, mut del_link_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fast_ms, mut general_ms, mut separates_us, mut seeds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for op in script {
        let span = ctx.tracer.begin("maintenance", "bare replay", "replay");
        let t = Instant::now();
        match op {
            Op::InsertLink(from, to) => {
                let _ = hopi_maintenance::insert_link(&mut c, &mut index, *from, *to);
                link_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Op::InsertXml(name, xml) => {
                let parsed = parse_document(name, xml).expect("script XML parses");
                let outgoing = parsed
                    .pending
                    .iter()
                    .filter_map(|p| {
                        let target =
                            c.resolve_ref(p.doc.as_deref()?, p.anchor.as_deref().unwrap_or(""))?;
                        Some((p.from, target))
                    })
                    .collect();
                let links = DocumentLinks {
                    outgoing,
                    incoming: Vec::new(),
                };
                let t = Instant::now();
                hopi_maintenance::insert_document(&mut c, &mut index, parsed.doc, &links);
                doc_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            Op::DeleteLink(from, to) => {
                let outcome = hopi_maintenance::delete_link(&mut c, &mut index, *from, *to);
                del_link_ms.push(t.elapsed().as_secs_f64() * 1e3);
                seeds.push(outcome.recompute_seeds as f64);
            }
            Op::DeleteDocument(d) | Op::ModifyDocument(d) => {
                let t = Instant::now();
                std::hint::black_box(hopi_maintenance::separates(&c, *d));
                separates_us.push(t.elapsed().as_secs_f64() * 1e6);
                let doc = c.document(*d).cloned().expect("live document");
                let t = Instant::now();
                let outcome = hopi_maintenance::delete_document(&mut c, &mut index, *d);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                match outcome.algorithm {
                    DeletionAlgorithm::FastSeparator => fast_ms.push(ms),
                    DeletionAlgorithm::General => {
                        general_ms.push(ms);
                        seeds.push(outcome.recompute_seeds as f64);
                    }
                }
                if matches!(op, Op::ModifyDocument(_)) {
                    hopi_maintenance::insert_document(
                        &mut c,
                        &mut index,
                        doc,
                        &DocumentLinks::default(),
                    );
                }
            }
        }
        ctx.tracer.end(span);
    }
    let report = &mut ctx.report;
    report.set_p50("maintenance.insert_doc_us", &doc_us, 1.0);
    report.set_p50("maintenance.delete_link_ms", &del_link_ms, 1.0);
    report.set_p50("maintenance.delete_doc_fast_ms", &fast_ms, 1.0);
    report.set_p50("maintenance.delete_doc_general_ms", &general_ms, 1.0);
    report.set_p50("maintenance.separates_us", &separates_us, 1.0);
    report.set("maintenance.thm2_count", fast_ms.len() as f64);
    report.set("maintenance.thm3_count", general_ms.len() as f64);
    report.set("maintenance.recompute_seeds_mean", stats::mean(&seeds));
    // `maintenance.insert_link_us` comes from `layers::bare_insert_links`
    // like on every workload; the script's own link insertions agree with
    // it and are printed beside it.
    report.note(format!(
        "bare replay: insert_link p50 {:.1} us over {} script insertions",
        stats::p50(&link_us),
        link_us.len()
    ));
}
