//! `build-dblp`: the cold path from XML text to an index that serves —
//! parse, build, save, re-open from the file — over and over, each
//! re-opened engine read and written to.
//!
//! One cycle is one set-up: `parse_collection` → `HopiBuilder::build` →
//! `save_frozen` → `Hopi::open` + first probe. Its time, normalised by a
//! reference reading on either side, is a `setup_s` sample, and the run
//! reports the median over its cycles: creation is what this index sets up,
//! and the driver's contract gives the set-up time a metric of its own. The
//! build alone is `build.build_s` per layer. (As an end-to-end metric of
//! its own it was spread-checked, and a half-second build reads ±15% by
//! which state of the machine it met; a reference reading 10 ms before and
//! after does not see what the machine did in between.)
//!
//! Between the set-ups, a few read rounds and some writes on the engine
//! just opened, so that every metric is sampled once per cycle across the
//! whole region. Access path of the universal metrics: reads go through
//! the frozen snapshot of the engine that `Hopi::open` returns, writes are
//! bare §6.1 `Hopi::insert_link` on that engine (no publish, no WAL). (The
//! reads first went through the mutable engine itself, whose enumerations
//! build a hash set per call: its path script read 1.0 to 1.4 times its
//! quiet-machine time, reference-normalised, by what the neighbours of the
//! reference box did to its caches, and spread by 12–18% over ten runs.
//! The mutable cover is `core.mutable_probe_ns` per layer.) A build leaves
//! the caches cold, so the first read rounds of a cycle are not sampled.

use super::Ctx;
use crate::access::{self, CheckPlan, EnginePath, ReadSamples, SnapshotPath};
use crate::inputs::{self, DBLP_PATHS, DBLP_TEXTS};
use crate::layers;
use crate::oracle::Oracle;
use crate::reference::Bracket;
use hopi_build::Hopi;
use hopi_core::CoverBuilder;
use hopi_graph::TransitiveClosure;
use hopi_xml::parser::parse_collection;
use std::time::{Duration, Instant};

/// Read rounds per cycle: the first [`WARM_ROUNDS`] are not sampled.
const WARM_ROUNDS: usize = 2;
const READ_ROUNDS: usize = 6;
/// `write_ms` samples per cycle.
const WRITE_ROUNDS: usize = 8;

pub fn run(ctx: &mut Ctx) {
    let sizes = ctx.sizes;
    // Input preparation, not set-up: the collection as a user holds it —
    // XML text.
    let generated = super::generated(ctx, "generator::dblp", || {
        inputs::dblp_collection(sizes.build_dblp_scale)
    });
    let texts: Vec<(String, String)> = generated
        .doc_ids()
        .map(|d| {
            let name = generated.document(d).expect("live doc").name.clone();
            (name, generated.serialize_document(d).expect("live doc"))
        })
        .collect();
    let inputs = inputs::read_inputs(&mut ctx.rng, &generated, &sizes, &DBLP_PATHS, &DBLP_TEXTS);
    ctx.report.note(format!(
        "collection: DBLP scale {} — {} docs, {} elements, {} links; closure budget {} per partition",
        sizes.build_dblp_scale,
        generated.doc_count(),
        generated.element_count(),
        generated.links().len(),
        sizes.build_dblp_budget,
    ));
    std::fs::create_dir_all(&ctx.scratch).expect("scratch directory");

    // Timed region: cycles until the time is up (at least three, so that
    // there is a median).
    let phase = ctx.phase("timed");
    let builder = Hopi::builder().config(inputs::build_config(sizes.build_dblp_budget));
    let min_cycles = if ctx.smoke { 1 } else { 3 };
    let slice = Duration::from_millis(if ctx.smoke { 2 } else { 5 });
    let window = Duration::from_secs_f64(ctx.seconds);
    let start = Instant::now();
    let (mut setup_s, mut entries, mut write_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut parse_us, mut build_s, mut save_ms, mut open_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut samples = ReadSamples::default();
    let mut last = None;
    while setup_s.len() < min_cycles || start.elapsed() < window {
        let setup = ctx.tracer.begin("bench", "setup", "setup");
        let mut bracket = Bracket::open(&mut ctx.reference);
        let cold = Instant::now();
        let (parsed, d) = ctx
            .tracer
            .time("xml", "parser::parse_collection", "setup", || {
                parse_collection(texts.iter().map(|(n, x)| (n.as_str(), x.as_str())))
            });
        let collection = parsed.expect("generated XML parses");
        parse_us.push(d.as_secs_f64() * 1e6 / texts.len().max(1) as f64);
        let input = collection.clone();
        let (hopi, d) = ctx.tracer.time("build", "HopiBuilder::build", "build", || {
            builder.clone().build(input)
        });
        let hopi = match hopi {
            Ok(hopi) => hopi,
            Err(e) => {
                ctx.report.tally.fail(|| format!("build failed: {e}"));
                break;
            }
        };
        build_s.push(d.as_secs_f64());
        let (mut opened, saved, reopened) =
            layers::save_and_open(&mut ctx.tracer, &hopi, &ctx.scratch, inputs.pairs[0]);
        let cold = cold.elapsed().as_secs_f64();
        setup_s.push(cold * bracket.close(&mut ctx.reference));
        ctx.tracer.end(setup);
        ctx.report.tally.ran(1);
        save_ms.push(saved.as_secs_f64() * 1e3);
        open_ms.push(reopened.as_secs_f64() * 1e3);
        entries.push(hopi.stats().cover_entries);

        let snap = opened.snapshot();
        let mut warm_up = ReadSamples::default();
        for round in 0..WARM_ROUNDS + READ_ROUNDS {
            access::read_round(
                &mut SnapshotPath(&snap),
                &inputs,
                slice,
                &mut ctx.reference,
                if round < WARM_ROUNDS {
                    &mut warm_up
                } else {
                    &mut samples
                },
                &mut ctx.tracer,
                &mut ctx.report.tally,
            );
        }
        drop(snap);
        // Fresh links every cycle: each cycle's engine starts from the
        // same built index.
        let links =
            inputs::leaf_links(&mut ctx.rng, &collection, WRITE_ROUNDS * super::WRITE_ROUND);
        let ms = super::write_rounds(ctx, &links, |from, to| opened.insert_link(from, to));
        // Normalised by the reference reading of the round it follows.
        write_ms.extend(ms.iter().map(|ms| ms * samples.last_factor()));
        last = Some((collection, hopi, opened, links));
    }
    ctx.tracer.end(phase);
    let (collection, hopi, opened, links) = last.expect("at least one cycle");
    ctx.report.tally.check(
        (collection.element_count(), collection.links())
            == (generated.element_count(), generated.links()),
        || "the parsed collection differs from the generated one".to_string(),
    );
    ctx.report.set_p50("setup_s", &setup_s, 1.0);
    ctx.report.set_p50("write_ms", &write_ms, 1.0);
    ctx.report.set_p50("xml.parse_doc_us", &parse_us, 1.0);
    ctx.report.set_p50("build.build_s", &build_s, 1.0);
    ctx.report.set_p50("store.save_ms", &save_ms, 1.0);
    ctx.report.set_p50("store.open_ms", &open_ms, 1.0);
    ctx.report.set(
        "store.index_bytes",
        std::fs::metadata(ctx.scratch.join(layers::INDEX_FILE)).map_or(0, |m| m.len()) as f64,
    );
    samples.report(&mut ctx.report, &inputs);
    ctx.report
        .set("cover_entries", hopi.stats().cover_entries as f64);
    ctx.report
        .tally
        .check(entries.iter().all(|&e| e == entries[0]), || {
            format!("builds of one collection differ in size: {entries:?}")
        });
    layers::build_report(&mut ctx.report, hopi.report());

    // The last cycle's engines against the oracle: the built engine and
    // its frozen snapshot on the collection, the re-opened and then
    // maintained engine on the collection plus the links it was given.
    let phase = ctx.phase("checks");
    let plan = CheckPlan {
        sources: 256.min(sizes.sources),
        pairs: 2048.min(sizes.pairs),
    };
    {
        let oracle = Oracle::new(&collection);
        let expected =
            access::expected_rows(&oracle, &inputs, sizes.build_dblp_rows, &mut ctx.report);
        let tally = &mut ctx.report.tally;
        access::check_reads(
            &mut EnginePath(&hopi),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
        let snap = hopi.snapshot();
        access::check_reads(
            &mut SnapshotPath(&snap),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
        if ctx.tracer.is_on() {
            let (tr, report) = (&mut ctx.tracer, &mut ctx.report);
            layers::engine_layers(tr, report, &hopi, &inputs, &expected, &links);
        }
    }
    {
        let oracle = Oracle::new(opened.collection());
        let expected = access::expected_rows(&oracle, &inputs, None, &mut ctx.report);
        let tally = &mut ctx.report.tally;
        access::check_reads(
            &mut EnginePath(&opened),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
        // The path the timed reads took, on the state the writes left.
        let snap = opened.snapshot();
        access::check_reads(
            &mut SnapshotPath(&snap),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
        tally.check(
            opened.stats().links == collection.links().len() + links.len(),
            || "link count after the writes".to_string(),
        );
    }
    ctx.tracer.end(phase);

    if ctx.traced() {
        let phase = ctx.phase("layers");
        let (tr, report) = (&mut ctx.tracer, &mut ctx.report);
        let graph = collection.element_graph();
        let (closure, d) = tr.time("graph", "TransitiveClosure::from_graph", "closure", || {
            TransitiveClosure::from_graph(&graph)
        });
        report.set("graph.closure_ms", d.as_secs_f64() * 1e3);
        report.set(
            "graph.closure_connections",
            closure.connection_count() as f64,
        );
        drop(closure);
        // The pipeline called directly: partition, covers and join are
        // `hopi-partition`'s, where `HopiBuilder::build` above also pays
        // for the tag and text indexes.
        let config = inputs::build_config(sizes.build_dblp_budget);
        let (pipeline, _) = tr.time("partition", "build_index", "build", || {
            hopi_build::build_index(&collection, &config)
        });
        std::hint::black_box(pipeline.0.size());
        // The flat greedy cover of §3.3 on a closure small enough to build
        // whole: the kernel inside every partition's cover.
        let small = TransitiveClosure::from_graph(&inputs::dblp_collection(0.02).element_graph());
        let (flat, d) = tr.time("core", "CoverBuilder::build", "flat_cover", || {
            CoverBuilder::new(&small).build()
        });
        std::hint::black_box(flat.size());
        report.set("core.cover_build_ms", d.as_secs_f64() * 1e3);
        ctx.tracer.end(phase);
    }
}
