//! `query-inex`: in-process reads, closed loop, one thread.
//!
//! Access path of the universal metrics: the `HopiSnapshot` an in-memory
//! `OnlineHopi` publishes — probes and enumerations run on the frozen CSR
//! cover, queries through `HopiSnapshot::query` (which reaches
//! `hopi-text`), writes are `OnlineHopi::insert_link` (§6.1 + publish, no
//! WAL). The server does no work here. Every few read rounds a link is
//! written, so that `write_ms` is sampled across the whole timed region
//! like the reads; the written links touch a handful of labels each (see
//! `inputs::leaf_links`), so the index the next round reads is the same
//! index.

use super::Ctx;
use crate::access::{self, CheckPlan, EnginePath, ReadSamples, SnapshotPath};
use crate::inputs::{self, INEX_PATHS, INEX_TEXTS};
use crate::layers;
use crate::oracle::Oracle;
use hopi_build::OnlineHopi;
use std::time::{Duration, Instant};

/// One slice of a read round. A round is five slices — reference kernel,
/// probes, enumerations, path script, text script — and the timed region
/// is as many rounds as fit, so every class is sampled every ~25 ms across
/// the whole region, milliseconds from the reference reading it is
/// normalised by: the machine changes speed by a quarter for seconds at a
/// time, and a class measured in a dozen long slices reads whichever speed
/// its slices happened to meet.
const SLICE: Duration = Duration::from_millis(4);
/// One link is written after every this many read rounds (~12 writes/s).
const ROUNDS_PER_WRITE: usize = 4;

pub fn run(ctx: &mut Ctx) {
    let sizes = ctx.sizes;
    let mut build_s = Vec::new();
    let online = ctx.setup(|ctx, _| {
        let hopi = super::inex_engine(ctx, &mut build_s);
        OnlineHopi::new(hopi)
    });
    ctx.report.set_p50("build.build_s", &build_s, 1.0);
    let base = online.read(|h| h.collection().clone());
    let inputs = inputs::read_inputs(&mut ctx.rng, &base, &sizes, &INEX_PATHS, &INEX_TEXTS);
    // A round takes at least its five slices, which bounds the writes.
    let most_rounds = (ctx.seconds / (5.0 * SLICE.as_secs_f64())).ceil() as usize;
    let links = inputs::leaf_links(&mut ctx.rng, &base, most_rounds / ROUNDS_PER_WRITE + 1);
    let stats = online.read(|h| h.stats());
    ctx.report.note(format!(
        "collection: INEX scale {} + 2 cross links/doc — {} docs, {} elements, {} links, {} cover entries",
        sizes.inex_scale, stats.documents, stats.elements, stats.links, stats.cover_entries,
    ));
    online.read(|h| layers::build_report(&mut ctx.report, h.report()));
    ctx.report.set("cover_entries", stats.cover_entries as f64);

    // Before the clock starts: the snapshot and the mutable engine both
    // answer like the oracle, and no script expression is vacuous.
    let phase = ctx.phase("checks");
    let plan = CheckPlan {
        sources: sizes.sources.min(64),
        pairs: 2048.min(sizes.pairs),
    };
    let snap = online.snapshot();
    {
        let oracle = Oracle::new(&base);
        let expected = access::expected_rows(&oracle, &inputs, sizes.inex_rows, &mut ctx.report);
        let tally = &mut ctx.report.tally;
        access::check_reads(
            &mut SnapshotPath(&snap),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
        online.read(|h| {
            access::check_reads(&mut EnginePath(h), &oracle, &inputs, plan, &expected, tally)
        });
        if ctx.tracer.is_on() {
            let hopi = online.read(|h| h.clone());
            std::fs::create_dir_all(&ctx.scratch).expect("scratch directory");
            let (tr, report) = (&mut ctx.tracer, &mut ctx.report);
            layers::engine_layers(tr, report, &hopi, &inputs, &expected, &links);
            layers::store_layer(tr, report, &hopi, &ctx.scratch, inputs.pairs[0]);
        }
    }
    ctx.tracer.end(phase);

    drop(snap);

    // Timed region: rounds of probe, enumerate, path, text slices on the
    // snapshot published by then, a write after every few of them.
    let phase = ctx.phase("timed");
    let window = Duration::from_secs_f64(ctx.seconds);
    let mut samples = ReadSamples::default();
    let (mut write_ms, mut ack_ms) = (Vec::new(), Vec::new());
    let mut written = 0usize;
    let start = Instant::now();
    for round in 1.. {
        let snap = online.snapshot();
        access::read_round(
            &mut SnapshotPath(&snap),
            &inputs,
            SLICE,
            &mut ctx.reference,
            &mut samples,
            &mut ctx.tracer,
            &mut ctx.report.tally,
        );
        if round % ROUNDS_PER_WRITE == 0 && written < links.len() {
            let link = &links[written..written + 1];
            written += 1;
            let ms = super::write_rounds(ctx, link, |from, to| online.insert_link(from, to));
            // Normalised by the reference reading of the round it follows.
            write_ms.extend(ms.iter().map(|ms| ms * samples.last_factor()));
            ack_ms.extend(ms);
        }
        if start.elapsed() >= window {
            break;
        }
    }
    ctx.tracer.end(phase);
    samples.report(&mut ctx.report, &inputs);
    ctx.report.set_p50("write_ms", &write_ms, 1.0);
    super::publish_share(ctx, crate::stats::p50(&ack_ms) * 1e3);

    // After the writes: the published snapshot answers like the oracle.
    let phase = ctx.phase("checks");
    let snap = online.snapshot();
    let oracle = Oracle::new(snap.collection());
    let expected = access::expected_rows(&oracle, &inputs, None, &mut ctx.report);
    let tally = &mut ctx.report.tally;
    access::check_reads(
        &mut SnapshotPath(&snap),
        &oracle,
        &inputs,
        plan,
        &expected,
        tally,
    );
    tally.check(snap.stats().links == stats.links + written, || {
        "link count after the writes".to_string()
    });
    ctx.tracer.end(phase);
    if ctx.traced() {
        super::serve_http::as_layer(ctx);
    }
}
