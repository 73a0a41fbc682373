//! Per-layer measurements shared by the workloads' traced runs.
//!
//! Every layer is measured from outside: the benchmark times calls into
//! public functions and reads public return values. Each helper takes the
//! workload's engine, so the same layer metric read on two workloads
//! compares the same code on two index shapes.

use crate::inputs::{strip_predicates, ReadInputs};
use crate::oracle::Tally;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use hopi_build::{BuildReport, Hopi, HopiSnapshot, OnlineHopi, Strategy};
use hopi_core::FrozenCover;
use hopi_query::{evaluate_with, parse_path, EvalOptions, TagIndex};
use hopi_xml::ElemId;
use std::path::Path;
use std::time::Instant;

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-layer measurements every workload makes, in its traced run, on
/// its engine in a given state: `expected` are that state's rows and
/// `links` are links the engine does not hold.
pub fn engine_layers(
    tr: &mut Tracer,
    report: &mut Report,
    hopi: &Hopi,
    inputs: &ReadInputs,
    expected: &[(&'static str, Vec<ElemId>)],
    links: &[(ElemId, ElemId)],
) {
    let snap = hopi.snapshot();
    query_layer(tr, report, hopi, &snap, inputs, expected);
    core_kernels(tr, report, hopi, inputs);
    text_layer(tr, report, hopi, &snap, inputs);
    build_layer(tr, report, hopi, inputs);
    bare_insert_links(tr, report, hopi, links);
    trace_overhead(tr, report, &snap, inputs);
}

/// `hopi-partition` (and the covers phase of `hopi-core`): read off the
/// `BuildReport` of the workload's build.
pub fn build_report(report: &mut Report, r: &BuildReport) {
    report.set("core.covers_ms", r.covers_ms as f64);
    report.set("partition.partition_ms", r.partition_ms as f64);
    report.set("partition.partitions", r.partitions as f64);
    report.set("partition.cross_links", r.cross_links as f64);
    report.set("partition.join_ms", r.join_ms as f64);
    report.set("partition.join_entries", r.join_entries as f64);
    let psg = r.psg.clone().unwrap_or_default();
    report.set("partition.psg_nodes", psg.nodes as f64);
    report.set("partition.psg_edges", psg.edges as f64);
}

/// Times `batches` calls of `f`, each covering `ops` operations; one
/// nanoseconds-per-operation sample per batch.
fn ns_per_op(batches: usize, ops: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..batches)
        .map(|b| {
            let t = Instant::now();
            f(b);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

/// `hopi-core` kernels on the engine's cover: freeze, frozen and mutable
/// probes, the batched join kernel, both enumerations, and the exact
/// counts that explain them.
fn core_kernels(tr: &mut Tracer, report: &mut Report, hopi: &Hopi, inputs: &ReadInputs) {
    let cover = hopi.index().cover();
    let (frozen, d) = tr.time("core", "FrozenCover::from_cover", "freeze", || {
        FrozenCover::from_cover(cover)
    });
    report.set("core.freeze_ms", ms(d));
    report.set("core.lin_entries", cover.lin_entry_count() as f64);
    report.set("core.lout_entries", cover.lout_entry_count() as f64);
    report.set("core.entries_per_element", hopi.stats().entries_per_element);

    let pairs = &inputs.pairs;
    let chunk = 8192.min(pairs.len());
    let chunks: Vec<&[(ElemId, ElemId)]> = pairs.chunks_exact(chunk).collect();
    let passes = 5;
    let span = tr.begin("core", "FrozenCover::connected", "probe");
    let mut hits = 0u64;
    let frozen_ns = ns_per_op(passes * chunks.len(), chunk, |b| {
        for &(u, v) in chunks[b % chunks.len()] {
            hits += u64::from(frozen.connected(u, v));
        }
    });
    tr.end(span);
    report.set_p50("core.frozen_probe_ns", &frozen_ns, 1.0);
    report.set(
        "core.probe_hit_rate",
        hits as f64 / (passes * chunks.len() * chunk) as f64,
    );

    let span = tr.begin("core", "HopiIndex::connected", "probe");
    let mut sink = 0u64;
    let mutable_ns = ns_per_op(passes * chunks.len(), chunk, |b| {
        for &(u, v) in chunks[b % chunks.len()] {
            sink += u64::from(hopi.index().connected(u, v));
        }
    });
    tr.end(span);
    std::hint::black_box(sink);
    report.set_p50("core.mutable_probe_ns", &mutable_ns, 1.0);

    let span = tr.begin("core", "FrozenCover::connected_many", "probe");
    let mut out = Vec::new();
    let many_ns = ns_per_op(passes * chunks.len(), chunk, |b| {
        frozen.connected_many(chunks[b % chunks.len()], &mut out);
    });
    tr.end(span);
    report.set_p50("core.probe_many_ns", &many_ns, 1.0);

    // One sample per pass over all sources: a source reaches either a
    // handful of elements or thousands, so per-source samples are bimodal.
    let mut ids: Vec<ElemId> = Vec::new();
    let mut results = 0u64;
    for (name, span_name, ancestors) in [
        (
            "core.descendants_us",
            "FrozenCover::descendants_into",
            false,
        ),
        ("core.ancestors_us", "FrozenCover::ancestors_into", true),
    ] {
        let span = tr.begin("core", span_name, "enumerate");
        let samples = ns_per_op(4 * passes, inputs.sample().len(), |_| {
            for &u in inputs.sample() {
                if ancestors {
                    frozen.ancestors_into(u, &mut ids);
                } else {
                    frozen.descendants_into(u, &mut ids);
                }
                results += ids.len() as u64;
            }
        });
        tr.end(span);
        report.set_p50(name, &samples, 1e-3);
    }
    report.set(
        "core.enum_mean_results",
        results as f64 / (2 * 4 * passes * inputs.sample().len()) as f64,
    );
}

/// Per `//`-step strategy: the metric of a pass with the strategy forced,
/// the metric counting the planner's uses of it, and the span's `op`.
const STRATEGIES: [(&str, &str, &str, Strategy); 4] = [
    (
        "query.forced_pairwise_ms",
        "query.steps_pairwise",
        "forced_pairwise",
        Strategy::PairwiseProbe,
    ),
    (
        "query.forced_enumerate_ms",
        "query.steps_enumerate",
        "forced_enumerate",
        Strategy::Enumerate,
    ),
    (
        "query.forced_forward_ms",
        "query.steps_forward",
        "forced_forward",
        Strategy::ForwardHopJoin,
    ),
    (
        "query.forced_backward_ms",
        "query.steps_backward",
        "forced_backward",
        Strategy::BackwardHopJoin,
    ),
];

/// `hopi-query`: parser, the four forced `//` strategies against the
/// planner's own choice, and the tag index build. Every forced result is
/// checked against the expected rows.
fn query_layer(
    tr: &mut Tracer,
    report: &mut Report,
    hopi: &Hopi,
    snap: &HopiSnapshot,
    inputs: &ReadInputs,
    expected: &[(&'static str, Vec<ElemId>)],
) {
    let exprs: Vec<&str> = inputs.paths.iter().chain(inputs.texts).copied().collect();
    let reps = 200;
    let (_, d) = tr.time("query", "parse_path", "parse", || {
        for _ in 0..reps {
            for e in &exprs {
                std::hint::black_box(parse_path(e).expect("script expressions parse"));
            }
        }
    });
    report.set(
        "query.parse_us",
        d.as_secs_f64() * 1e6 / (reps * exprs.len()) as f64,
    );

    let parsed: Vec<_> = inputs
        .paths
        .iter()
        .map(|e| parse_path(e).expect("script expressions parse"))
        .collect();
    let (c, frozen, tags) = (snap.collection(), snap.frozen(), snap.tags());
    // Per-expression time of one pass under `options`, results checked
    // (`expected` lists the path script first, in script order).
    let pass = |tr: &mut Tracer, tally: &mut Tally, name: &'static str, options: EvalOptions| {
        let span = tr.begin("query", "evaluate_with", name);
        let times: Vec<f64> = parsed
            .iter()
            .zip(expected)
            .map(|(expr, (text, want))| {
                let t = Instant::now();
                let rows = evaluate_with(c, frozen, tags, expr, &options);
                let elapsed = ms(t.elapsed());
                tally.check_rows(name, text, &rows, want);
                elapsed
            })
            .collect();
        tr.end(span);
        times
    };
    let mut best = vec![f64::INFINITY; parsed.len()];
    for (forced_ms, _, name, strategy) in STRATEGIES {
        let options = EvalOptions {
            force_strategy: Some(strategy),
            ..EvalOptions::default()
        };
        let times = pass(tr, &mut report.tally, name, options);
        for (b, t) in best.iter_mut().zip(&times) {
            *b = b.min(*t);
        }
        report.set(forced_ms, times.iter().sum());
    }
    let planned: Vec<f64> = (0..3)
        .map(|_| {
            pass(tr, &mut report.tally, "planner", EvalOptions::default())
                .iter()
                .sum()
        })
        .collect();
    report.set(
        "query.planner_regret",
        stats::p50(&planned) / best.iter().sum::<f64>(),
    );

    // Which strategies the planner runs on one pass of both scripts.
    let before = hopi.plan_counts();
    for e in &exprs {
        let _ = snap.query(e);
    }
    let after = hopi.plan_counts();
    for (_, steps, _, strategy) in STRATEGIES {
        report.set(steps, (after.get(strategy) - before.get(strategy)) as f64);
    }

    let (_, d) = tr.time("query", "TagIndex::build", "tag_index", || {
        std::hint::black_box(TagIndex::build(hopi.collection()));
    });
    report.set("query.tagindex_build_ms", ms(d));
}

/// `hopi-text`: what the content predicates cost on top of the structural
/// skeleton of the same expressions, and the size of the term index.
fn text_layer(
    tr: &mut Tracer,
    report: &mut Report,
    hopi: &Hopi,
    snap: &HopiSnapshot,
    inputs: &ReadInputs,
) {
    let stripped: Vec<String> = inputs.texts.iter().map(|e| strip_predicates(e)).collect();
    let mut with = Vec::new();
    let mut without = Vec::new();
    let span = tr.begin("text", "HopiSnapshot::query", "predicates");
    for _ in 0..5 {
        let t = Instant::now();
        for e in inputs.texts {
            std::hint::black_box(snap.query(e).map(|r| r.len()).unwrap_or(0));
        }
        with.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for e in &stripped {
            std::hint::black_box(snap.query(e).map(|r| r.len()).unwrap_or(0));
        }
        without.push(t.elapsed().as_secs_f64());
    }
    tr.end(span);
    report.set(
        "text.predicate_cost_ratio",
        stats::p50(&with) / stats::p50(&without),
    );
    let text = hopi.stats().text;
    report.set("text.terms", text.vocabulary as f64);
    report.set("text.postings", text.postings as f64);
    report.set("text.posting_bytes", text.postings_bytes as f64);
}

/// File name of the saved frozen index inside a scratch directory.
pub const INDEX_FILE: &str = "index.hopi";

/// `hopi-store`: saves the frozen index and re-opens it (cold start =
/// open + first probe). Returns the re-opened engine and both durations.
pub fn save_and_open(
    tr: &mut Tracer,
    hopi: &Hopi,
    dir: &Path,
    probe: (ElemId, ElemId),
) -> (Hopi, std::time::Duration, std::time::Duration) {
    let path = dir.join(INDEX_FILE);
    let (saved, save) = tr.time("store", "Hopi::save_frozen", "save", || {
        hopi.save_frozen(&path)
    });
    saved.expect("save_frozen");
    let collection = hopi.collection().clone();
    let (opened, open) = tr.time("store", "Hopi::open", "open", || {
        let opened = Hopi::builder()
            .config(hopi.config().clone())
            .open(collection, &path)
            .expect("open saved index");
        std::hint::black_box(opened.connected(probe.0, probe.1));
        opened
    });
    (opened, save, open)
}

/// [`save_and_open`] once, reported as `store.save_ms`, `store.open_ms`
/// and `store.index_bytes`.
pub fn store_layer(
    tr: &mut Tracer,
    report: &mut Report,
    hopi: &Hopi,
    dir: &Path,
    probe: (ElemId, ElemId),
) {
    let (_, save, open) = save_and_open(tr, hopi, dir, probe);
    report.set("store.save_ms", ms(save));
    report.set("store.open_ms", ms(open));
    let bytes = std::fs::metadata(dir.join(INDEX_FILE)).map_or(0, |m| m.len());
    report.set("store.index_bytes", bytes as f64);
}

/// `hopi-build`: the publish cost (`Hopi::snapshot`) and an in-process
/// probe through the online wrapper.
fn build_layer(tr: &mut Tracer, report: &mut Report, hopi: &Hopi, inputs: &ReadInputs) {
    let mut snap_ms = Vec::new();
    for _ in 0..3 {
        let (snap, d) = tr.time("build", "Hopi::snapshot", "publish", || hopi.snapshot());
        std::hint::black_box(snap.cover_entries());
        snap_ms.push(ms(d));
    }
    report.set_p50("build.snapshot_ms", &snap_ms, 1.0);

    let online = OnlineHopi::new(hopi.clone());
    let chunk = 1024.min(inputs.pairs.len());
    let chunks: Vec<&[(ElemId, ElemId)]> = inputs.pairs.chunks_exact(chunk).collect();
    let span = tr.begin("build", "OnlineHopi::connected", "probe");
    let mut sink = 0u64;
    let samples = ns_per_op(chunks.len(), chunk, |b| {
        for &(u, v) in chunks[b] {
            sink += u64::from(online.connected(u, v));
        }
    });
    tr.end(span);
    std::hint::black_box(sink);
    report.set_p50("build.inproc_probe_us", &samples, 1e-3);
}

/// `hopi-maintenance`, bare: §6.1 link insertion on a detached
/// `(Collection, HopiIndex)` — no WAL, no publish.
fn bare_insert_links(
    tr: &mut Tracer,
    report: &mut Report,
    hopi: &Hopi,
    links: &[(ElemId, ElemId)],
) {
    let mut collection = hopi.collection().clone();
    let mut index = hopi.index().clone();
    let span = tr.begin("maintenance", "insert_link", "insert_link");
    let mut samples = Vec::new();
    for &(from, to) in links {
        if collection.has_link(from, to) {
            continue;
        }
        let t = Instant::now();
        let added = hopi_maintenance::insert_link(&mut collection, &mut index, from, to);
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        added.expect("valid link");
    }
    tr.end(span);
    report.set_p50("maintenance.insert_link_us", &samples, 1.0);
}

/// Overhead of tracing: the same read pass timed with a span around every
/// call and without, alternating, as a percentage of the untraced time.
fn trace_overhead(tr: &mut Tracer, report: &mut Report, snap: &HopiSnapshot, inputs: &ReadInputs) {
    let pass = |traced: Option<&mut Tracer>| {
        let mut off = Tracer::new("overhead", false);
        let tr = traced.unwrap_or(&mut off);
        let t = Instant::now();
        for chunk in inputs.pairs.chunks(1024) {
            tr.time("core", "HopiSnapshot::connected", "overhead", || {
                for &(u, v) in chunk {
                    std::hint::black_box(snap.connected(u, v));
                }
            });
        }
        for e in inputs.paths.iter().chain(inputs.texts) {
            tr.time("query", "HopiSnapshot::query", "overhead", || {
                std::hint::black_box(snap.query(e).map(|r| r.len()).unwrap_or(0));
            });
        }
        t.elapsed().as_secs_f64()
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        plain.push(pass(None));
        traced.push(pass(Some(tr)));
    }
    let base = stats::p50(&plain);
    report.set(
        "trace_overhead_pct",
        (stats::p50(&traced) - base) / base * 100.0,
    );
}
