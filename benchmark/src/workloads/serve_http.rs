//! `serve-http`: the INEX-shaped collection behind `hopi_server::serve`
//! (2 workers) over a durable `OnlineHopi` (group commit).
//!
//! Access path of the universal metrics: HTTP on loopback. One **reader**
//! connection runs a closed loop over a fixed 25-slot cycle — 22
//! `GET /connected`, 1 `POST /connected_many` (128 pairs), 1
//! `GET /descendants`|`/ancestors` alternating, 1 `GET /query` cycling
//! through both scripts. One **writer** connection runs an open loop: one
//! `POST /links` is due every [`WRITE_INTERVAL`], and its latency is timed
//! from the instant it was due, so a stall is charged to every write it
//! delays. Every response carries the snapshot epoch it was answered on;
//! the writer logs the epoch each acknowledgement returns, so sampled
//! reads are verified by BFS on the base collection plus exactly the
//! writes acknowledged at or before their epoch.

use super::Ctx;
use crate::access::{self, json_ids, url_encode, CheckPlan, HttpPath};
use crate::inputs::{self, ReadInputs, INEX_PATHS, INEX_TEXTS};
use crate::layers;
use crate::oracle::{Oracle, Tally};
use crate::stats;
use hopi_build::{DurableConfig, OnlineHopi, SyncPolicy};
use hopi_query::parse_path;
use hopi_server::{json, serve, Client, ServerConfig, ServerHandle};
use hopi_xml::ElemId;
use std::time::{Duration, Instant};

/// One write is due this often: 10 writes/s, about 15% of one core at
/// this collection size — a rate the engine sustains without a backlog.
const WRITE_INTERVAL: Duration = Duration::from_millis(100);
/// Pairs per `POST /connected_many`.
const MANY: usize = 128;
/// Sources the reader enumerates, of the seeded sample: one `enum_us`
/// sample is a pass over them, and at one enumeration per 25 requests a
/// pass over all 1,024 would leave a run with a handful of samples.
const ENUM_SOURCES: usize = 256;
/// Every n-th response of a class is kept with its epoch for verification.
const SAMPLE_PROBES: usize = 50;
const SAMPLE_ENUMS: usize = 16;
const SAMPLE_QUERIES: usize = 16;

/// Timed region of the run that stands in for the `hopi-server` layer.
const LAYER_SECONDS: f64 = 5.0;

/// `hopi-server` and the WAL in `query-inex`'s traced run: this workload —
/// the same collection, served — in a process of its own (it pins itself to
/// one CPU), its `server.*`, WAL and checkpoint metrics taken over.
pub fn as_layer(ctx: &mut Ctx) {
    let phase = ctx.phase("layers");
    let child = super::Child {
        workload: "serve-http",
        seed: ctx.seed,
        seconds: ctx.seconds.min(LAYER_SECONDS),
        trace: true,
        smoke: ctx.smoke,
    };
    match child.run() {
        Some((attempted, metrics)) => {
            ctx.report.tally.ran(attempted);
            let taken = ["server.", "store.wal_", "store.checkpoint_"];
            for (name, value) in metrics {
                if taken.iter().any(|prefix| name.starts_with(prefix)) {
                    ctx.report.set(&name, value);
                }
            }
        }
        None => ctx
            .report
            .tally
            .fail(|| "the serve-http run failed".to_string()),
    }
    ctx.tracer.end(phase);
}

/// One running instance: engine, server, both client connections.
struct Served {
    online: OnlineHopi,
    /// The durable state directory.
    dir: std::path::PathBuf,
    reader: Client,
    writer: Client,
    // Dropped last: joins the server's threads after the clients hang up.
    _server: ServerHandle,
}

fn serve_instance(ctx: &mut Ctx, i: usize, build_s: &mut Vec<f64>) -> Served {
    let hopi = super::inex_engine(ctx, build_s);
    let dir = ctx.scratch.join(format!("state-{i}"));
    let config = DurableConfig::new(&dir).policy(SyncPolicy::GroupCommit);
    let (online, _) = ctx
        .tracer
        .time("build", "OnlineHopi::bootstrap_durable", "setup", || {
            OnlineHopi::bootstrap_durable(&config, hopi)
        });
    let online = online.expect("fresh durable directory");
    let handle = serve(
        online.clone(),
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("loopback address"),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let reader = Client::connect(handle.addr()).expect("reader connects");
    let writer = Client::connect(handle.addr()).expect("writer connects");
    Served {
        online,
        dir,
        reader,
        writer,
        _server: handle,
    }
}

/// An answer the reader kept for verification.
enum Answer {
    Connected(ElemId, ElemId, bool),
    /// Source, whether ancestors were asked for, the elements returned.
    Enumerated(ElemId, bool, Vec<ElemId>),
    /// Index of the script expression, the rows returned.
    Rows(usize, Vec<ElemId>),
}

/// What the reader keeps: raw round-trip samples per request class, and
/// every n-th answer with the epoch it was served on.
#[derive(Default)]
struct ReaderLog {
    probe_us: Vec<f64>,
    many_us: Vec<f64>,
    enum_us: Vec<f64>,
    /// Per script expression (paths, then texts), in visit order.
    query_us: Vec<Vec<f64>>,
    sampled: Vec<(u64, Answer)>,
    requests: u64,
    failed: u64,
    elapsed_s: f64,
}

/// The reader's pre-rendered requests, so that it measures the server and
/// not its own formatting.
struct Requests {
    probes: Vec<String>,
    many: Vec<String>,
    enums: Vec<String>,
    queries: Vec<String>,
}

impl Requests {
    fn new(inputs: &ReadInputs) -> Self {
        Requests {
            probes: inputs
                .pairs
                .iter()
                .map(|(u, v)| format!("/connected?u={u}&v={v}"))
                .collect(),
            many: inputs
                .pairs
                .chunks(MANY)
                .map(|chunk| {
                    let items: Vec<String> =
                        chunk.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
                    format!("{{\"pairs\":[{}]}}", items.join(","))
                })
                .collect(),
            enums: inputs
                .sample()
                .iter()
                .take(ENUM_SOURCES)
                .enumerate()
                .map(|(i, u)| {
                    let endpoint = if i % 2 == 1 {
                        "ancestors"
                    } else {
                        "descendants"
                    };
                    format!("/{endpoint}?u={u}")
                })
                .collect(),
            queries: inputs
                .paths
                .iter()
                .chain(inputs.texts)
                .map(|e| format!("/query?expr={}", url_encode(e)))
                .collect(),
        }
    }
}

fn epoch_of(body: &json::Json) -> Option<u64> {
    body.get("epoch")?.as_u64()
}

/// The closed-loop reader: the 25-slot cycle until `window` has passed.
fn run_reader(
    client: &mut Client,
    requests: &Requests,
    inputs: &ReadInputs,
    window: Duration,
) -> ReaderLog {
    let mut log = ReaderLog {
        query_us: vec![Vec::new(); requests.queries.len()],
        ..ReaderLog::default()
    };
    let (mut probe_i, mut many_i, mut enum_i, mut query_i) = (0usize, 0usize, 0usize, 0usize);
    let start = Instant::now();
    'cycle: loop {
        for slot in 0..25 {
            if start.elapsed() >= window {
                break 'cycle;
            }
            let (method, path, body) = match slot {
                0..=21 => (
                    "GET",
                    requests.probes[probe_i % requests.probes.len()].as_str(),
                    "",
                ),
                22 => (
                    "POST",
                    "/connected_many",
                    requests.many[many_i % requests.many.len()].as_str(),
                ),
                23 => (
                    "GET",
                    requests.enums[enum_i % requests.enums.len()].as_str(),
                    "",
                ),
                _ => (
                    "GET",
                    requests.queries[query_i % requests.queries.len()].as_str(),
                    "",
                ),
            };
            let t = Instant::now();
            let resp = client.request(method, path, body);
            let us = t.elapsed().as_secs_f64() * 1e6;
            log.requests += 1;
            let resp = match resp {
                Ok(r) if r.status == 200 => r,
                _ => {
                    log.failed += 1;
                    continue;
                }
            };
            // What to keep of this answer, if it is one of the sampled.
            let mut keep = |answer: &dyn Fn(&json::Json) -> Option<Answer>| {
                let body = json::parse(&resp.body).ok();
                let kept = body.as_ref().and_then(|b| Some((epoch_of(b)?, answer(b)?)));
                match kept {
                    Some(kept) => log.sampled.push(kept),
                    None => log.failed += 1,
                }
            };
            match slot {
                0..=21 => {
                    if probe_i % SAMPLE_PROBES == 0 {
                        let (u, v) = inputs.pairs[probe_i % inputs.pairs.len()];
                        keep(&|b| Some(Answer::Connected(u, v, b.get("connected")?.as_bool()?)));
                    }
                    log.probe_us.push(us);
                    probe_i += 1;
                }
                22 => {
                    log.many_us.push(us);
                    many_i += 1;
                }
                23 => {
                    if enum_i % SAMPLE_ENUMS == 0 {
                        let i = enum_i % requests.enums.len();
                        keep(&|b| {
                            let ids = json_ids(b, "elements")?;
                            Some(Answer::Enumerated(inputs.sources[i], i % 2 == 1, ids))
                        });
                    }
                    log.enum_us.push(us);
                    enum_i += 1;
                }
                _ => {
                    let i = query_i % requests.queries.len();
                    if query_i % SAMPLE_QUERIES == 0 {
                        keep(&|b| Some(Answer::Rows(i, json_ids(b, "matches")?)));
                    }
                    log.query_us[i].push(us);
                    query_i += 1;
                }
            }
        }
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

#[derive(Default)]
struct WriterLog {
    /// `(epoch the acknowledgement returned, from, to)`.
    acked: Vec<(u64, ElemId, ElemId)>,
    /// Milliseconds from the due instant to the acknowledgement.
    latency_ms: Vec<f64>,
    /// Milliseconds the request was sent after it was due.
    lag_ms: Vec<f64>,
    failed: u64,
}

/// The open-loop writer: link `k` is due at `start + k · WRITE_INTERVAL`.
fn run_writer(client: &mut Client, links: &[(ElemId, ElemId)], start: Instant) -> WriterLog {
    let mut log = WriterLog::default();
    for (k, &(from, to)) in links.iter().enumerate() {
        let due = start + WRITE_INTERVAL * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let body = format!("{{\"from\":{from},\"to\":{to}}}");
        let resp = client.request("POST", "/links", &body);
        let done = Instant::now();
        let epoch = match &resp {
            Ok(r) if r.status == 200 => json::parse(&r.body).ok().as_ref().and_then(epoch_of),
            _ => None,
        };
        match epoch {
            Some(e) => {
                log.acked.push((e, from, to));
                log.latency_ms.push((done - due).as_secs_f64() * 1e3);
                log.lag_ms.push((sent - due).as_secs_f64() * 1e3);
            }
            None => log.failed += 1,
        }
    }
    log
}

/// `name{labels} value` samples of a Prometheus exposition whose name
/// starts with `prefix`.
fn scrape(client: &mut Client, prefix: &str) -> Vec<(String, f64)> {
    let Ok(resp) = client.get("/metrics") else {
        return Vec::new();
    };
    resp.body
        .lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn sample(samples: &[(String, f64)], name: &str) -> f64 {
    samples
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Verifies the sampled reads in epoch order, mirroring each acknowledged
/// write into the oracle when its epoch is reached.
fn verify_sampled(
    base: &hopi_xml::Collection,
    inputs: &ReadInputs,
    reads: &ReaderLog,
    writes: &WriterLog,
    tally: &mut Tally,
) {
    let mut oracle = Oracle::new(base);
    let exprs: Vec<_> = inputs
        .paths
        .iter()
        .chain(inputs.texts)
        .map(|e| (*e, parse_path(e).expect("script expressions parse")))
        .collect();
    let mut acked = writes.acked.clone();
    acked.sort_unstable();
    let mut applied = 0usize;
    let mut by_epoch: Vec<&(u64, Answer)> = reads.sampled.iter().collect();
    by_epoch.sort_by_key(|(epoch, _)| *epoch);
    for (epoch, answer) in by_epoch {
        while applied < acked.len() && acked[applied].0 <= *epoch {
            oracle.add_link(acked[applied].1, acked[applied].2);
            applied += 1;
        }
        match answer {
            Answer::Connected(u, v, got) => {
                tally.check_connected(&oracle, "http@epoch", *u, *v, *got)
            }
            Answer::Enumerated(u, ancestors, ids) => {
                tally.check_enumeration(&oracle, "http@epoch", *u, *ancestors, ids)
            }
            Answer::Rows(e, rows) => {
                let (text, parsed) = &exprs[*e];
                tally.check_rows("http@epoch", text, rows, &oracle.query(parsed));
            }
        }
    }
}

pub fn run(ctx: &mut Ctx) {
    let sizes = ctx.sizes;
    let mut build_s = Vec::new();
    let mut served = ctx.setup(|ctx, i| serve_instance(ctx, i, &mut build_s));
    ctx.report.set_p50("build.build_s", &build_s, 1.0);
    let base = served.online.read(|h| h.collection().clone());
    let inputs = inputs::read_inputs(&mut ctx.rng, &base, &sizes, &INEX_PATHS, &INEX_TEXTS);
    let writes = (ctx.seconds / WRITE_INTERVAL.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let links = inputs::leaf_links(&mut ctx.rng, &base, writes);
    let stats = served.online.read(|h| h.stats());
    ctx.report.note(format!(
        "collection: INEX scale {} + 2 cross links/doc — {} docs, {} elements, {} links, {} cover entries; {} writes due every {} ms",
        sizes.inex_scale, stats.documents, stats.elements, stats.links, stats.cover_entries,
        writes, WRITE_INTERVAL.as_millis(),
    ));
    served
        .online
        .read(|h| layers::build_report(&mut ctx.report, h.report()));
    let requests = Requests::new(&inputs);
    {
        // Before the clock starts: the canonical collection answers the
        // scripts over HTTP with the pinned row counts.
        let oracle = Oracle::new(&base);
        let expected = access::expected_rows(&oracle, &inputs, sizes.inex_rows, &mut ctx.report);
        let plan = CheckPlan {
            sources: 0,
            pairs: 0,
        };
        let tally = &mut ctx.report.tally;
        access::check_reads(
            &mut HttpPath(&mut served.reader),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
    }

    // Timed region: reader on this thread, writer beside it.
    let phase = ctx.phase("timed");
    let span = ctx.tracer.begin("server", "reader + writer", "serve");
    let window = Duration::from_secs_f64(ctx.seconds);
    let (reader, writer) = (&mut served.reader, &mut served.writer);
    let (reads, wrote) = std::thread::scope(|scope| {
        let start = Instant::now();
        let links = &links;
        let writer = scope.spawn(move || run_writer(writer, links, start));
        let reads = run_reader(reader, &requests, &inputs, window);
        (reads, writer.join().expect("writer thread"))
    });
    ctx.tracer.end(span);
    ctx.tracer.end(phase);

    let tally = &mut ctx.report.tally;
    tally.ran(reads.requests - reads.failed + wrote.acked.len() as u64);
    for _ in 0..reads.failed {
        tally.fail(|| "a read request failed (error, non-200 or unparseable)".to_string());
    }
    for _ in 0..wrote.failed {
        tally.fail(|| "a write request failed (error, non-200 or unparseable)".to_string());
    }

    // Universal metrics, through HTTP.
    ctx.report.set_p50("probe_us", &reads.probe_us, 1.0);
    ctx.report
        .set("server.probe_p50_us", stats::p50(&reads.probe_us));
    ctx.report
        .set("server.probe_p99_us", stats::pct(&reads.probe_us, 99.0));
    // One sample per pass over all sources, as on the in-process paths.
    let enum_pass_us: Vec<f64> = reads
        .enum_us
        .chunks_exact(requests.enums.len())
        .map(stats::mean)
        .collect();
    ctx.report.set_p50("enum_us", &enum_pass_us, 1.0);
    // One pass = one visit of every expression of a script, in visit
    // order: queries per second of a closed loop over that script.
    for (name, range) in [
        ("path_qps", 0..inputs.paths.len()),
        ("text_qps", inputs.paths.len()..requests.queries.len()),
    ] {
        let visits = range
            .clone()
            .map(|e| reads.query_us[e].len())
            .min()
            .unwrap_or(0);
        let qps: Vec<f64> = (0..visits)
            .map(|k| {
                let pass_us: f64 = range.clone().map(|e| reads.query_us[e][k]).sum();
                range.len() as f64 / (pass_us / 1e6)
            })
            .collect();
        ctx.report.set_p50(name, &qps, 1.0);
    }
    let write_ms: Vec<f64> = wrote
        .latency_ms
        .chunks(super::WRITE_ROUND)
        .map(stats::mean)
        .collect();
    ctx.report.set_p50("write_ms", &write_ms, 1.0);
    ctx.report.set("cover_entries", served.online.size() as f64);
    ctx.report.note(format!(
        "reader: {} requests in {:.2} s ({} probes, {} batches, {} enumerations, {} queries); writer: {} acknowledged",
        reads.requests, reads.elapsed_s, reads.probe_us.len(), reads.many_us.len(),
        reads.enum_us.len(), reads.query_us.iter().map(Vec::len).sum::<usize>(), wrote.acked.len(),
    ));

    // Per-layer by-products of the same run.
    let all_query_us: Vec<f64> = reads.query_us.iter().flatten().copied().collect();
    ctx.report
        .set_p50("server.many_p50_us", &reads.many_us, 1.0);
    ctx.report
        .set_p50("server.enum_p50_us", &reads.enum_us, 1.0);
    ctx.report
        .set_p50("server.query_p50_us", &all_query_us, 1.0);
    ctx.report
        .set_p50("server.write_p50_ms", &wrote.latency_ms, 1.0);
    ctx.report
        .set("server.write_p90_ms", stats::pct(&wrote.latency_ms, 90.0));
    ctx.report
        .set("server.writer_lag_ms", stats::mean(&wrote.lag_ms));
    ctx.report
        .set("server.read_rps", reads.requests as f64 / reads.elapsed_s);
    ctx.report.set(
        "server.requests_failed",
        (reads.failed + wrote.failed) as f64,
    );

    // Checks, outside the timed region.
    let phase = ctx.phase("checks");
    verify_sampled(&base, &inputs, &reads, &wrote, &mut ctx.report.tally);
    ctx.report.note(format!(
        "verified at their epoch: {} sampled probes, enumerations and queries",
        reads.sampled.len()
    ));
    let final_collection = served.online.read(|h| h.collection().clone());
    let plan = CheckPlan {
        sources: if ctx.smoke { 1 } else { 4 },
        pairs: 1024.min(sizes.pairs),
    };
    {
        let oracle = Oracle::new(&final_collection);
        let expected = access::expected_rows(&oracle, &inputs, None, &mut ctx.report);
        let tally = &mut ctx.report.tally;
        access::check_reads(
            &mut HttpPath(&mut served.reader),
            &oracle,
            &inputs,
            plan,
            &expected,
            tally,
        );
        // The batched endpoint, swept over 2,048 pairs on the final state.
        for (body, chunk) in requests.many.iter().zip(inputs.pairs.chunks(MANY)).take(16) {
            let answers = served
                .reader
                .request("POST", "/connected_many", body)
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| json::parse(&r.body).ok())
                .and_then(|b| {
                    b.get("results")?
                        .as_arr()?
                        .iter()
                        .map(|v| v.as_bool())
                        .collect::<Option<Vec<bool>>>()
                });
            match answers {
                Some(answers) if answers.len() == chunk.len() => {
                    for (&(u, v), got) in chunk.iter().zip(answers) {
                        tally.check_connected(&oracle, "http many", u, v, got);
                    }
                }
                _ => tally.fail(|| "POST /connected_many failed".to_string()),
            }
        }
        let links_served = served
            .reader
            .get("/stats")
            .ok()
            .and_then(|r| json::parse(&r.body).ok())
            .and_then(|b| b.get("links")?.as_u64());
        tally.check(
            links_served == Some((stats.links + wrote.acked.len()) as u64),
            || {
                format!(
                    "GET /stats links = {links_served:?} after {} acknowledged writes",
                    wrote.acked.len()
                )
            },
        );
        if ctx.tracer.is_on() {
            let hopi = served.online.read(|h| h.clone());
            // Links the engine does not hold yet, drawn like the writer's.
            let fresh = inputs::leaf_links(&mut ctx.rng, &final_collection, 64);
            let (tr, report) = (&mut ctx.tracer, &mut ctx.report);
            layers::engine_layers(tr, report, &hopi, &inputs, &expected, &fresh);
            layers::store_layer(tr, report, &hopi, &ctx.scratch, inputs.pairs[0]);
        }
    }
    ctx.tracer.end(phase);

    if ctx.traced() {
        let phase = ctx.phase("layers");
        server_layer(ctx, &mut served, &requests, &inputs);
        // Durable write path: WAL and checkpoint.
        super::wal_layer(ctx, &served.online, &served.dir, wrote.acked.len());
        let inproc = ctx.report.get("build.inproc_probe_us").unwrap_or(0.0);
        let http = ctx.report.get("probe_us").unwrap_or(0.0);
        ctx.report.set("server.http_overhead_us", http - inproc);
        super::publish_share(ctx, stats::p50(&wrote.latency_ms) * 1e3);
        ctx.tracer.end(phase);
    }
}

/// `hopi-server`: where a read request's time goes. With the writer
/// stopped, the reader repeats its cycle for a second between two
/// `/metrics` scrapes; the five `hopi_stage_duration_seconds` sums and
/// counts are differenced into a mean per request and stage. The server's
/// `read` stage runs from the end of the previous response to the parsed
/// request, so it contains loopback transit and the client's turnaround;
/// the stages therefore tile the connection's time, and what they leave of
/// the client-side mean cycle (wall time ÷ requests) is server
/// bookkeeping outside any stage.
fn server_layer(ctx: &mut Ctx, served: &mut Served, requests: &Requests, inputs: &ReadInputs) {
    let window = if ctx.smoke {
        Duration::from_millis(50)
    } else {
        Duration::from_secs(1)
    };
    const STAGES: [(&str, &str); 5] = [
        ("server.stage_read_us", "read"),
        ("server.stage_route_us", "route"),
        ("server.stage_eval_us", "eval"),
        ("server.stage_serialize_us", "serialize"),
        ("server.stage_write_us", "write"),
    ];
    let span = ctx.tracer.begin("server", "GET /metrics window", "stages");
    let before = scrape(&mut served.reader, "hopi_stage_duration_seconds_");
    let reads = run_reader(&mut served.reader, requests, inputs, window);
    let after = scrape(&mut served.reader, "hopi_");
    ctx.tracer.end(span);
    // Every request has a `read` stage; `eval` and `serialize` are only
    // claimed by the handlers that time them, so each stage's sum is
    // spread over all requests, not over its own count.
    let count = "hopi_stage_duration_seconds_count{stage=\"read\"}";
    let staged = (sample(&after, count) - sample(&before, count)).max(1.0);
    let mut staged_us = 0.0;
    for (metric, stage) in STAGES {
        let sum = format!("hopi_stage_duration_seconds_sum{{stage=\"{stage}\"}}");
        let mean_us = (sample(&after, &sum) - sample(&before, &sum)) * 1e6 / staged;
        staged_us += mean_us;
        ctx.report.set(metric, mean_us);
    }
    let cycle_us = reads.elapsed_s * 1e6 / reads.requests.max(1) as f64;
    ctx.report
        .set("server.unattributed_us", cycle_us - staged_us);
    ctx.report.note(format!(
        "stage window: {} requests sent, {staged} staged by the server, mean cycle {cycle_us:.2} us",
        reads.requests
    ));
    ctx.report.set(
        "server.requests_shed",
        sample(&after, "hopi_requests_shed_total"),
    );

    let span = ctx.tracer.begin("server", "GET /healthz", "healthz");
    let healthz: Vec<f64> = (0..200)
        .filter_map(|_| {
            let t = Instant::now();
            let ok = served.reader.get("/healthz").is_ok_and(|r| r.status == 200);
            ok.then(|| t.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    ctx.tracer.end(span);
    ctx.report.set_p50("server.healthz_p50_us", &healthz, 1.0);
}
