//! The four workloads. Each runs in its own process (so `peak_rss_mb` and
//! allocator state do not leak between them), sets up several times and
//! reports the median, measures for about `--seconds`, and checks its
//! outputs against the oracle outside every timed region. Every end-to-end
//! time of the three workloads `BENCHMARK.json` lists is normalised by the
//! reference kernel (`reference.rs`); `serve-http`'s are as measured.

pub mod build_dblp;
pub mod maintain_dblp;
pub mod query_inex;
pub mod serve_http;

use crate::inputs::Sizes;
use crate::reference::{Bracket, Reference};
use crate::report::Report;
use crate::trace::{SpanId, Tracer};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Writes per `write_ms` sample: the workloads whose writes are plain link
/// insertions group them in rounds of this many.
pub const WRITE_ROUND: usize = 8;

/// `(name, why)` of every workload, in the order `all` runs them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "build-dblp",
        "index creation on the link-dense DBLP shape: covers and PSG join split a build, no serving code runs",
    ),
    (
        "query-inex",
        "in-process reads on a frozen snapshot of the tree-heavy INEX shape: kernels, planner and text index, no server or WAL",
    ),
    (
        "serve-http",
        "the same collection over HTTP with a paced durable writer beside a closed-loop reader: parse, route, serialize, publish",
    ),
    (
        "maintain-dblp",
        "section 6 through the durable write path: inserts, Theorem 2/3 deletes, modifies, then crash and recovery",
    ),
];

/// What a workload run is given and what it fills in.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    pub sizes: Sizes,
    pub smoke: bool,
    pub rng: StdRng,
    pub tracer: Tracer,
    pub report: Report,
    /// `target/benchmark/<workload>-<pid>/`, removed when the run ends.
    pub scratch: PathBuf,
    /// The kernel every end-to-end time is normalised by (`reference.rs`).
    pub reference: Reference,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.is_on()
    }

    /// Opens a harness-phase span (`setup`, `timed`, `checks`, `layers`).
    pub fn phase(&mut self, name: &'static str) -> SpanId {
        self.tracer.begin("bench", name, name)
    }

    /// Sets up `sizes.setups` times, keeps the last result, and reports the
    /// median of the durations, each normalised by a reference reading on
    /// either side, as `setup_s`. `f` gets the context and the index of
    /// the repetition (durable workloads need a fresh directory each time).
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Ctx, usize) -> T) -> T {
        let phase = self.phase("setup");
        let mut seconds: Vec<f64> = Vec::new();
        let mut last = None;
        let mut bracket = Bracket::open(&mut self.reference);
        for i in 0..self.sizes.setups.max(1) {
            // Tear the previous instance down before the clock starts.
            drop(last.take());
            let t = std::time::Instant::now();
            last = Some(f(self, i));
            let elapsed = t.elapsed().as_secs_f64();
            seconds.push(elapsed * bracket.close(&mut self.reference));
        }
        self.tracer.end(phase);
        self.report.set_p50("setup_s", &seconds, 1.0);
        last.expect("at least one set-up")
    }
}

/// Generates a set-up's collection, timed as `xml.generate_ms`.
pub fn generated(
    ctx: &mut Ctx,
    generator: &'static str,
    generate: impl FnOnce() -> hopi_xml::Collection,
) -> hopi_xml::Collection {
    let (collection, d) = ctx.tracer.time("xml", generator, "setup", generate);
    ctx.report
        .set_first("xml.generate_ms", d.as_secs_f64() * 1e3);
    collection
}

/// One `HopiBuilder::build` of a set-up, timed into `build_s` (the median
/// over the set-ups is `build.build_s`).
pub fn timed_build(
    ctx: &mut Ctx,
    builder: hopi_build::HopiBuilder,
    collection: hopi_xml::Collection,
    build_s: &mut Vec<f64>,
) -> hopi_build::Hopi {
    let (hopi, d) = ctx.tracer.time("build", "HopiBuilder::build", "setup", || {
        builder.build(collection)
    });
    build_s.push(d.as_secs_f64());
    hopi.expect("generated collections build")
}

/// The INEX-shaped linked collection of `query-inex` and `serve-http`,
/// generated and built.
pub fn inex_engine(ctx: &mut Ctx, build_s: &mut Vec<f64>) -> hopi_build::Hopi {
    let sizes = ctx.sizes;
    let collection = generated(ctx, "generator::inex", || {
        crate::inputs::inex_linked_collection(sizes.inex_scale)
    });
    let builder =
        hopi_build::Hopi::builder().config(crate::inputs::build_config(sizes.inex_budget));
    timed_build(ctx, builder, collection, build_s)
}

/// Applies `links` through `insert` in rounds of [`WRITE_ROUND`], one
/// milliseconds-per-write sample per round.
pub fn write_rounds(
    ctx: &mut Ctx,
    links: &[(hopi_xml::ElemId, hopi_xml::ElemId)],
    mut insert: impl FnMut(hopi_xml::ElemId, hopi_xml::ElemId) -> Result<usize, hopi_build::HopiError>,
) -> Vec<f64> {
    let phase = ctx.phase("writes");
    let mut write_ms = Vec::new();
    for chunk in links.chunks(WRITE_ROUND) {
        let t = std::time::Instant::now();
        for &(from, to) in chunk {
            match insert(from, to) {
                Ok(_) => ctx.report.tally.ran(1),
                Err(e) => ctx
                    .report
                    .tally
                    .fail(|| format!("insert_link({from},{to}): {e}")),
            }
        }
        write_ms.push(t.elapsed().as_secs_f64() * 1e3 / chunk.len() as f64);
    }
    ctx.tracer.end(phase);
    write_ms
}

/// In a traced run: what an acknowledged link insertion costs through the
/// workload's write path (`build.insert_ack_p50_us`), and the share of it
/// that is not bare §6.1 maintenance — publish, WAL, HTTP.
pub fn publish_share(ctx: &mut Ctx, ack_us: f64) {
    if !ctx.traced() {
        return;
    }
    let bare_us = ctx.report.get("maintenance.insert_link_us").unwrap_or(0.0);
    ctx.report.set_first("build.insert_ack_p50_us", ack_us);
    ctx.report
        .set("build.publish_share", 1.0 - bare_us / ack_us);
}

/// `hopi-store` on the durable write path: what the WAL did for `ops`
/// acknowledged mutations, then one checkpoint.
pub fn wal_layer(
    ctx: &mut Ctx,
    online: &hopi_build::OnlineHopi,
    dir: &std::path::Path,
    ops: usize,
) {
    if let Some(h) = online.wal_histograms() {
        ctx.report.set(
            "store.wal_fsync_p50_us",
            h.fsync.quantile_micros(0.5) as f64,
        );
        // The batch histogram records records-per-fsync in its "micros".
        ctx.report
            .set("store.wal_batch_mean", h.batch.mean_micros());
    }
    if let Some(w) = online.wal_stats() {
        ctx.report.set(
            "store.wal_bytes_per_op",
            w.wal_bytes as f64 / ops.max(1) as f64,
        );
    }
    let (checkpoint, d) = ctx
        .tracer
        .time("store", "OnlineHopi::checkpoint", "checkpoint", || {
            online.checkpoint()
        });
    match checkpoint {
        Ok(_) => ctx.report.tally.ran(1),
        Err(e) => ctx.report.tally.fail(|| format!("checkpoint: {e}")),
    }
    ctx.report.set("store.checkpoint_ms", d.as_secs_f64() * 1e3);
    let bytes = std::fs::metadata(dir.join(hopi_build::CHECKPOINT_FILE)).map_or(0, |m| m.len());
    ctx.report.set("store.checkpoint_bytes", bytes as f64);
}

/// One workload run in a process of its own.
pub struct Child<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Child<'_> {
    /// Runs it, passing its report through to this process's standard
    /// output; its operation count and metrics, or `None` if it failed or
    /// its outputs were wrong.
    pub fn run(&self) -> Option<(u64, BTreeMap<String, f64>)> {
        let exe = std::env::current_exe().expect("own executable path");
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", self.workload])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if self.smoke {
            cmd.arg("--smoke");
        }
        let output = cmd.output().expect("spawn workload process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let json = hopi_server::json::parse(stdout.lines().last()?).ok()?;
        if !output.status.success() || json.get("correct")?.as_bool() != Some(true) {
            return None;
        }
        let metrics = json
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect::<Option<_>>()?;
        Some((json.get("attempted")?.as_u64()?, metrics))
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload by name.
pub fn run(ctx: &mut Ctx) {
    match ctx.workload {
        "build-dblp" => build_dblp::run(ctx),
        "query-inex" => query_inex::run(ctx),
        "serve-http" => serve_http::run(ctx),
        "maintain-dblp" => maintain_dblp::run(ctx),
        other => unreachable!("workload {other} was validated by the command line"),
    }
    ctx.report.set("peak_rss_mb", peak_rss_mb());
    if ctx.traced() {
        for (layer, self_ms) in ctx.tracer.self_ms_by_layer() {
            // `bench` is the harness itself: what no layer accounts for.
            // (`server.self_ms` of `query-inex` is its served child's.)
            if layer != "bench" {
                ctx.report.set_first(&format!("{layer}.self_ms"), self_ms);
            }
        }
    }
}
