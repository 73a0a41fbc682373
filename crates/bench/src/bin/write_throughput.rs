//! Durable write throughput: the cost of crash safety on the mutation
//! path, and what group commit buys back.
//!
//! Three engine configurations run the same link-insertion workload:
//!
//! * `none` — no WAL (the pre-durability write path);
//! * `per_op` — every mutation fsyncs its own WAL record before the ack
//!   (the naive durable baseline: N concurrent writers = N serialized
//!   fsyncs);
//! * `group` — group commit: records are appended under the engine write
//!   lock, and one shared fsync acknowledges every mutation queued
//!   behind it.
//!
//! Each configuration is measured single-threaded and at N writer
//! threads. Emits `BENCH_write.json` next to the query/server artifacts.
//! In `--smoke` mode a durable group-commit throughput floor is asserted
//! (CI runs this), and the group-vs-per-op speedup at N threads is
//! reported — the durability design target is ≥ 5×.
//!
//! The default collection is 32 single-element documents: an index so
//! small that publishing a snapshot is free, which isolates the WAL.
//! `--collection inex:<scale>` adds `none` and `group` rows on the
//! INEX-like collection of the serving benches (two cross links per
//! document) under leaf links, where every acknowledged write publishes a
//! snapshot of a real index; `per_op` is left out there — it measures the
//! disk, which the default rows already do.
//!
//! ```sh
//! cargo run -p hopi-bench --release --bin write_throughput \
//!     [--threads N] [--ops N] [--collection inex:0.001] [--smoke] \
//!     [--out BENCH_write.json]
//! ```

use hopi_bench::{add_cross_links, flag_arg, inex_collection, leaf_links, TablePrinter};
use hopi_build::{DurableConfig, Hopi, OnlineHopi, SyncPolicy};
use hopi_obs::{Histogram, HistogramSnapshot, Stopwatch};
use hopi_xml::{Collection, XmlDocument};
use std::time::Instant;

/// Smoke-mode floor on group-commit durable writes (aggregate ops/s at N
/// threads). Deliberately far below observed numbers — it guards against
/// the write path accidentally serializing an fsync per op, not against
/// machine noise.
const SMOKE_GROUP_FLOOR_OPS_PER_S: f64 = 300.0;

/// One measured cell.
struct Sample {
    /// `docs:<n>` or `inex:<scale>`.
    collection: String,
    config: &'static str,
    threads: usize,
    ops: usize,
    elapsed_ms: f64,
    /// Per-insert ack latency across all writer threads — under group
    /// commit this is the queue-behind-the-shared-fsync time the paper's
    /// durability section trades throughput against.
    latency: HistogramSnapshot,
}

impl Sample {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.elapsed_ms / 1000.0).max(1e-9)
    }
}

/// Single-element documents: global element id == doc id, so links are
/// cheap to enumerate and every insertion crosses documents.
fn doc_collection(docs: u32) -> Collection {
    let mut c = Collection::new();
    for i in 0..docs {
        c.add_document(XmlDocument::new(format!("d{i}"), "r"));
    }
    c
}

/// Distinct cross-document links, round-robin over the doc universe.
fn link_plan(docs: u32, ops: usize) -> Vec<(u32, u32)> {
    let mut plan = Vec::with_capacity(ops);
    let mut k = 0u32;
    while plan.len() < ops {
        let from = k % docs;
        let to = (from + 1 + (k / docs) % (docs - 1)) % docs;
        if from != to {
            plan.push((from, to));
        }
        k += 1;
    }
    plan
}

/// Inserts the links of `plan`, split across `threads` writers, into a
/// copy of `engine` served under the given durability configuration.
fn run(
    collection: &str,
    engine: &Hopi,
    plan: &[(u32, u32)],
    config: &'static str,
    policy: Option<SyncPolicy>,
    threads: usize,
) -> Sample {
    let state_dir = std::env::temp_dir().join(format!(
        "hopi_write_bench_{config}_{threads}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&state_dir).ok();
    let online = match policy {
        None => OnlineHopi::new(engine.clone()),
        Some(policy) => OnlineHopi::bootstrap_durable(
            &DurableConfig::new(&state_dir).policy(policy),
            engine.clone(),
        )
        .expect("durable open"),
    };
    let ops = plan.len();
    let chunk = ops.div_ceil(threads);
    let latency = Histogram::new();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for part in plan.chunks(chunk) {
            let online = online.clone();
            let latency = &latency;
            scope.spawn(move || {
                for &(from, to) in part {
                    let sw = Stopwatch::start();
                    online.insert_link(from, to).expect("valid link insert");
                    latency.record_micros(sw.elapsed_micros());
                }
            });
        }
    });
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1000.0;
    drop(online);
    std::fs::remove_dir_all(&state_dir).ok();
    Sample {
        collection: collection.to_string(),
        config,
        threads,
        ops,
        elapsed_ms,
        latency: latency.snapshot(),
    }
}

fn render_json(docs: u32, smoke: bool, samples: &[Sample], speedup: f64) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"collection\": {{\"kind\": \"single-element-docs\", \"documents\": {docs}}},\n"
    ));
    s.push_str(&format!(
        "  \"smoke\": {smoke},\n  \"workload\": \"insert_link\",\n  \"results\": [\n"
    ));
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"collection\": \"{}\", \"config\": \"{}\", \"threads\": {}, \"ops\": {}, \
             \"elapsed_ms\": {:.3}, \"ops_per_s\": {:.1}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}}{}\n",
            r.collection,
            r.config,
            r.threads,
            r.ops,
            r.elapsed_ms,
            r.ops_per_s(),
            r.latency.quantile_micros(0.50),
            r.latency.quantile_micros(0.95),
            r.latency.quantile_micros(0.99),
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"group_vs_per_op_speedup\": {speedup:.2}\n}}\n"
    ));
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = flag_arg(&args, "--out").unwrap_or_else(|| "BENCH_write.json".into());
    // Writer threads spend most of their time blocked on fsync, not on a
    // CPU, so the default is a fixed fan-out rather than the core count —
    // group commit's batching comes from writers queued behind the sync.
    let threads: usize = flag_arg(&args, "--threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
        .max(2);
    let ops: usize = flag_arg(&args, "--ops")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 512 } else { 992 });
    let docs: u32 = flag_arg(&args, "--docs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(32);
    assert!(
        ops <= docs as usize * (docs as usize - 1),
        "need docs*(docs-1) >= ops so every measured insert is a distinct link"
    );
    let inex_scale = flag_arg(&args, "--collection").map(|c| {
        c.strip_prefix("inex:")
            .and_then(|scale| scale.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("--collection takes inex:<scale>, got {c}"))
    });

    eprintln!(
        "write_throughput — {docs} docs, {ops} link inserts per cell, \
         1 and {threads} writer threads"
    );

    let mut samples = Vec::new();
    let name = format!("docs:{docs}");
    let engine = Hopi::build(doc_collection(docs)).expect("valid collection");
    let plan = link_plan(docs, ops);
    for (config, policy) in [
        ("none", None),
        ("per_op", Some(SyncPolicy::PerOp)),
        ("group", Some(SyncPolicy::GroupCommit)),
    ] {
        for &t in &[1, threads] {
            samples.push(run(&name, &engine, &plan, config, policy, t));
        }
    }
    if let Some(scale) = inex_scale {
        let name = format!("inex:{scale}");
        let mut collection = inex_collection(scale);
        add_cross_links(&mut collection);
        let plan = leaf_links(&collection, ops);
        let engine = Hopi::build(collection).expect("valid collection");
        let stats = engine.stats();
        eprintln!(
            "{name} + 2 cross links/doc — {} docs, {} elements, {} cover entries",
            stats.documents, stats.elements, stats.cover_entries
        );
        for (config, policy) in [("none", None), ("group", Some(SyncPolicy::GroupCommit))] {
            for &t in &[1, threads] {
                samples.push(run(&name, &engine, &plan, config, policy, t));
            }
        }
    }

    let t = TablePrinter::new(&[
        ("collection", 12),
        ("config", 8),
        ("threads", 7),
        ("ops", 8),
        ("ms", 10),
        ("ops/s", 12),
        ("p50µs", 8),
        ("p99µs", 8),
    ]);
    for r in &samples {
        t.row(&[
            r.collection.clone(),
            r.config.into(),
            r.threads.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.elapsed_ms),
            format!("{:.0}", r.ops_per_s()),
            r.latency.quantile_micros(0.50).to_string(),
            r.latency.quantile_micros(0.99).to_string(),
        ]);
    }

    let find = |config: &str, t: usize| {
        samples
            .iter()
            .find(|s| s.collection == name && s.config == config && s.threads == t)
            .map(Sample::ops_per_s)
            .unwrap_or(0.0)
    };
    // The headline comparison: durable writers at the same concurrency,
    // sharing fsyncs (group) vs paying one each (per_op).
    let speedup = find("group", threads) / find("per_op", threads).max(1e-9);
    println!("group-commit vs per-op fsync at {threads} threads: {speedup:.2}x");

    let json = render_json(docs, smoke, &samples, speedup);
    std::fs::write(&out_path, &json).expect("write BENCH_write.json");
    eprintln!("wrote {out_path}");

    if smoke {
        let group = find("group", threads);
        assert!(
            group >= SMOKE_GROUP_FLOOR_OPS_PER_S,
            "durable group-commit throughput {group:.0} ops/s fell below the \
             floor of {SMOKE_GROUP_FLOOR_OPS_PER_S} ops/s"
        );
        // No relative group-vs-per-op assert here: on runners where /tmp
        // is tmpfs, fsync is nearly free and the comparison is noise. The
        // speedup is recorded in the JSON for machines where it matters.
        println!(
            "SMOKE OK: durable group-commit {group:.0} ops/s >= {SMOKE_GROUP_FLOOR_OPS_PER_S}"
        );
    }
}
