//! Criterion microbenches for query latency on the in-memory cover: the
//! reachability test (the paper's `LIN ⋈ LOUT` intersection),
//! ancestor/descendant enumeration and the distance query, against a BFS
//! baseline without the index; and per-expression timings of the INEX path
//! and text scripts on a serving snapshot, with the child step's worst
//! case.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hopi_bench::{add_cross_links, dblp_collection, inex_collection};
use hopi_build::{build_index, BuildConfig, Hopi, HopiSnapshot, OnlineHopi, PartitionerChoice};
use hopi_core::DistanceCoverBuilder;
use hopi_graph::DistanceClosure;
use hopi_partition::TcPartitionerConfig;
use hopi_query::{parse_path, Axis, PathExpr, QueryPlanReport};
use hopi_xml::ElemId;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Random probe pairs per group; the probes cycle through them.
const PAIRS: usize = 1024;

/// Sample size of the probe groups: each of the ten timed batches walks
/// every pair ten times, so batches differ by noise, not by which pairs
/// (and how long their rows or searches) they drew, and each lasts long
/// enough for the clock.
const PROBE_SAMPLES: usize = 100 * PAIRS;

fn bench_queries(c: &mut Criterion) {
    let collection = dblp_collection(0.02);
    let (index, _) = build_index(&collection, &BuildConfig::default());
    let n = collection.elem_id_bound() as u32;
    let mut rng = StdRng::seed_from_u64(7);
    let pairs: Vec<(u32, u32)> = (0..PAIRS)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();

    let mut group = c.benchmark_group("queries");
    group.sample_size(PROBE_SAMPLES);
    let mut i = 0usize;
    group.bench_function("cover_connected", |b| {
        b.iter(|| {
            i = (i + 1) % pairs.len();
            let (u, v) = pairs[i];
            std::hint::black_box(index.connected(u, v))
        })
    });
    group.bench_function("cover_descendants", |b| {
        b.iter(|| {
            i = (i + 1) % pairs.len();
            std::hint::black_box(index.descendants(pairs[i].0).len())
        })
    });
    group.bench_function("cover_ancestors", |b| {
        b.iter(|| {
            i = (i + 1) % pairs.len();
            std::hint::black_box(index.ancestors(pairs[i].1).len())
        })
    });
    group.finish();

    // Distance queries on a smaller collection (the distance closure is the
    // expensive part, not the query).
    let small = dblp_collection(0.005);
    let dc = DistanceClosure::from_graph(&small.element_graph());
    let dist_cover = DistanceCoverBuilder::new(&dc).build();
    let m = small.elem_id_bound() as u32;
    let dpairs: Vec<(u32, u32)> = (0..PAIRS)
        .map(|_| (rng.gen_range(0..m), rng.gen_range(0..m)))
        .collect();
    let mut group = c.benchmark_group("distance_queries");
    group.sample_size(PROBE_SAMPLES);
    group.bench_function("cover_distance", |b| {
        b.iter(|| {
            i = (i + 1) % dpairs.len();
            let (u, v) = dpairs[i];
            std::hint::black_box(dist_cover.distance(u, v))
        })
    });
    group.finish();

    // Baseline for context: BFS reachability without the index.
    let graph = collection.element_graph();
    let mut group = c.benchmark_group("no_index_baseline");
    group.sample_size(PROBE_SAMPLES);
    group.bench_function("bfs_is_reachable", |b| {
        b.iter_batched(
            || {
                i = (i + 1) % pairs.len();
                pairs[i]
            },
            |(u, v)| std::hint::black_box(hopi_graph::traversal::is_reachable(&graph, u, v)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The path script of the benchmark's INEX workloads (`INEX_PATHS` in
/// `benchmark/src/inputs.rs`, which this crate cannot depend on).
const INEX_PATHS: [&str; 10] = [
    "//article//fig",
    "/article/bdy//ss2",
    "//bdy//it",
    "//ss1//b",
    "//article//ss2//p",
    "/article/bdy/ss1//fig",
    "//fig//article",
    "//p//ss1",
    "//article//au",
    "//ss2//ip1//fig",
];

/// The text script of the benchmark's INEX workloads (`INEX_TEXTS` in
/// `benchmark/src/inputs.rs`; the fifth expression is empty by design).
const INEX_TEXTS: [&str; 7] = [
    "//article//p[contains(., \"term0\")]",
    "//ss1//p[contains(., \"term7\")]",
    "//article//ss2[contains(., \"term0 term1\")]",
    "//ss1//p[about(., \"term2 term5 term9\")]",
    "//article//p[contains(., \"zzz_out_of_vocab\")]",
    "//article//p[about(., \"term0 term3\")]",
    "//ss2//ip1[about(., \"term4 term8\")]",
];

/// Repetitions behind each per-step EXPLAIN median.
const EXPLAIN_REPS: usize = 400;

/// The `query-inex` serving snapshot: INEX at scale 0.001 with two cross
/// links per document, built with a closure budget of 10⁵ connections
/// per partition, published through an in-memory `OnlineHopi`.
fn inex_snapshot() -> Arc<HopiSnapshot> {
    let mut collection = inex_collection(0.001);
    add_cross_links(&mut collection);
    let config = BuildConfig {
        partitioner: PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: 100_000,
            ..TcPartitionerConfig::default()
        }),
        ..BuildConfig::default()
    };
    let hopi = Hopi::builder()
        .config(config)
        .build(collection)
        .expect("generated collections build");
    OnlineHopi::new(hopi).snapshot()
}

/// Prints the median per-step EXPLAIN ANALYZE time of `expr` over
/// [`EXPLAIN_REPS`] warm runs, one line per step.
fn print_step_medians(snap: &HopiSnapshot, expr: &str, parsed: &PathExpr) {
    let mut per_step: Vec<Vec<u64>> = Vec::new();
    let mut report = QueryPlanReport::default();
    for _ in 0..EXPLAIN_REPS {
        report = snap.query_explained(expr).expect("script expression").1;
        per_step.resize(report.steps.len(), Vec::new());
        for (times, step) in per_step.iter_mut().zip(&report.steps) {
            times.push(step.elapsed_us);
        }
    }
    println!("path_steps/explain {expr} (median µs over {EXPLAIN_REPS} runs)");
    for (times, line) in per_step.iter_mut().zip(report.render(parsed).lines()) {
        times.sort_unstable();
        let plan = line.split("  time=").next().unwrap_or(line);
        println!("  {:>4} µs  {plan}", times[times.len() / 2]);
    }
}

fn bench_path_steps(c: &mut Criterion) {
    let snap = inex_snapshot();
    // Per-step EXPLAIN of the expressions with child steps.
    for expr in INEX_PATHS {
        let parsed = parse_path(expr).expect("script expression");
        if parsed.steps.iter().any(|s| s.axis == Axis::Child) {
            print_step_medians(&snap, expr, &parsed);
        }
    }
    let mut group = c.benchmark_group("path_steps");
    group.sample_size(2_000);
    for expr in INEX_PATHS {
        group.bench_function(expr, |b| {
            b.iter(|| snap.query(expr).expect("script expression").len())
        });
    }

    // The child step's worst case: a one-element context against the
    // largest tag row. The row scan reads the whole row; the document walk
    // it replaced reads the context's children.
    let collection = snap.collection();
    let mut rows: HashMap<&str, usize> = HashMap::new();
    for d in collection.doc_ids() {
        for (_, e) in collection.document(d).expect("live document").elements() {
            *rows.entry(e.tag.as_str()).or_default() += 1;
        }
    }
    let (tag, _) = rows
        .into_iter()
        .max_by_key(|&(tag, n)| (n, std::cmp::Reverse(tag)))
        .expect("a non-empty collection");
    let tags = snap.tags();
    let u = tags
        .elements(tag)
        .iter()
        .find_map(|&e| tags.parent(e))
        .expect("a tag below the roots");
    let mut out: Vec<ElemId> = Vec::new();
    group.bench_function(
        format!("worst/row_scan/{tag}:{}", tags.elements(tag).len()),
        |b| {
            b.iter(|| {
                out.clear();
                out.extend(tags.children(tag, |p| p == u));
                out.len()
            })
        },
    );
    group.bench_function(format!("worst/document_walk/{tag}"), |b| {
        b.iter(|| {
            out.clear();
            let (d, local) = collection.to_local(u).expect("live element");
            let doc = collection.document(d).expect("live document");
            let base = collection.global_id(d, 0);
            for &ch in &doc.element(local).children {
                if doc.element(ch).tag == tag {
                    out.push(base + ch);
                }
            }
            out.sort_unstable();
            out.dedup();
            out.len()
        })
    });

    // What a document write copies on write: the whole tag index, rows
    // and both columns. Link writes share it.
    group.bench_function("tag_index_clone", |b| b.iter(|| tags.clone()));
    group.finish();

    // The text script per expression, and one pass over all of it (what
    // `text_qps` counts).
    let mut group = c.benchmark_group("text_steps");
    group.sample_size(5_000);
    for expr in INEX_TEXTS {
        group.bench_function(expr, |b| {
            b.iter(|| snap.query(expr).expect("script expression").len())
        });
    }
    group.bench_function("text_pass", |b| {
        b.iter(|| {
            INEX_TEXTS
                .iter()
                .map(|expr| snap.query(expr).expect("script expression").len())
                .sum::<usize>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_queries, bench_path_steps);
criterion_main!(benches);
