//! Request routing: maps parsed HTTP requests onto the [`OnlineHopi`]
//! engine and renders JSON responses.
//!
//! Every read endpoint captures **one** snapshot up front and answers
//! entirely from it, reporting that snapshot's epoch alongside the result —
//! a response can never mix two epochs, and clients can correlate answers
//! with `/stats`. Mutation endpoints go through the engine's write path and
//! report the epoch of the snapshot published by the mutation.

use crate::http::{Method, Request, Response};
use crate::json::{self, Json, JsonWriter};
use crate::metrics::Endpoint;
use crate::slow::SlowLog;
use hopi_build::{HopiError, OnlineHopi};
use hopi_obs::Trace;
use std::time::Instant;

/// Cap on `POST /connected_many` batch size (per request).
pub const MAX_PROBE_BATCH: usize = 65_536;

/// `Retry-After` seconds sent with `503` responses (degraded mode and
/// load shedding): long enough for a checkpoint or a queue drain, short
/// enough that clients retry promptly once service recovers.
pub const RETRY_AFTER_SECS: u64 = 1;

/// Everything a handler can reach: the engine plus serving-mode and
/// observability state.
pub struct AppState {
    /// The served engine.
    pub engine: OnlineHopi,
    /// Frozen serving: mutation and rebuild endpoints answer 403.
    pub read_only: bool,
    /// Per-endpoint latency histograms and counters (`/metrics`).
    pub metrics: crate::metrics::Metrics,
    /// The slow-query log (`GET /debug/slow`).
    pub slow: SlowLog,
    /// Server start time (uptime gauge).
    pub started: Instant,
    /// Worker-pool size (gauge).
    pub workers: usize,
}

/// Routes one request. Returns the endpoint cell to account it under and
/// the response to write. Handlers record their expensive stages (`eval`,
/// `serialize`) and the request detail into `trace`; the serve loop folds
/// the trace into the stage histograms and the slow-query log.
pub fn route(state: &AppState, req: &Request, trace: &mut Trace) -> (Endpoint, Response) {
    let path = req.path.as_str();
    match (req.method, path) {
        (Method::Get, "/healthz") => (Endpoint::Healthz, healthz(state)),
        (Method::Get, "/stats") => (Endpoint::Stats, stats(state)),
        (Method::Get, "/metrics") => (Endpoint::Metrics, metrics(state)),
        (Method::Get, "/connected") => (Endpoint::Connected, connected(state, req)),
        (Method::Post, "/connected_many") => {
            (Endpoint::ConnectedMany, connected_many(state, req, trace))
        }
        (Method::Get, "/distance") => (Endpoint::Distance, distance(state, req)),
        (Method::Get, "/descendants") => (Endpoint::Descendants, neighborhood(state, req, false)),
        (Method::Get, "/ancestors") => (Endpoint::Ancestors, neighborhood(state, req, true)),
        (Method::Get, "/query") => (Endpoint::Query, query(state, req, trace)),
        (Method::Post, "/documents") => (Endpoint::InsertDocument, insert_document(state, req)),
        (Method::Delete, p) if p.strip_prefix("/documents/").is_some() => {
            (Endpoint::DeleteDocument, delete_document(state, req))
        }
        (Method::Post, "/links") => (Endpoint::InsertLink, insert_link(state, req)),
        (Method::Delete, "/links") => (Endpoint::DeleteLink, delete_link(state, req)),
        (Method::Post, "/admin/rebuild") => (Endpoint::AdminRebuild, admin_rebuild(state)),
        (Method::Post, "/admin/save") => (Endpoint::AdminSave, admin_save(state, req)),
        (Method::Post, "/admin/checkpoint") => (Endpoint::AdminCheckpoint, admin_checkpoint(state)),
        (Method::Get, "/debug/slow") => (Endpoint::DebugSlow, debug_slow(state)),
        // Known paths with the wrong method get a 405, unknown paths 404.
        (
            _,
            "/healthz" | "/stats" | "/metrics" | "/connected" | "/connected_many" | "/distance"
            | "/descendants" | "/ancestors" | "/query" | "/documents" | "/links" | "/admin/rebuild"
            | "/admin/save" | "/admin/checkpoint" | "/debug/slow",
        ) => (
            Endpoint::Other,
            Response::error(405, &format!("method not allowed on {path}")),
        ),
        _ => (
            Endpoint::Other,
            Response::error(404, &format!("no such endpoint: {path}")),
        ),
    }
}

/// Maps engine errors onto HTTP statuses.
fn status_of(e: &HopiError) -> u16 {
    match e {
        HopiError::Xml(_)
        | HopiError::Path(_)
        | HopiError::InvalidLocalElement { .. }
        | HopiError::SameDocumentLink { .. } => 400,
        HopiError::UnknownDocument(_)
        | HopiError::UnknownElement(_)
        | HopiError::UnknownLink { .. }
        | HopiError::UnresolvedRef { .. } => 404,
        HopiError::DuplicateDocumentName(_)
        | HopiError::DistanceDisabled
        | HopiError::DurabilityDisabled => 409,
        HopiError::Degraded(_) => 503,
        _ => 500,
    }
}

fn engine_error(e: &HopiError) -> Response {
    let status = status_of(e);
    let resp = Response::error(status, &e.to_string());
    if status == 503 {
        // Degraded mode is transient: a successful checkpoint clears it.
        resp.with_header("retry-after", RETRY_AFTER_SECS.to_string())
    } else {
        resp
    }
}

/// Rejects mutations in `--frozen` serving mode.
fn frozen_guard(state: &AppState) -> Option<Response> {
    state.read_only.then(|| {
        Response::error(
            403,
            "server is running in frozen (read-only) mode; mutations are disabled",
        )
    })
}

fn healthz(state: &AppState) -> Response {
    // Real health, not an unconditional 200: a WAL-poisoned engine is
    // serving reads only, and load balancers must see that as 503.
    let wal = state.engine.wal_stats();
    let degraded = wal.as_ref().is_some_and(|w| !w.healthy);
    let mut w = JsonWriter::new();
    w.obj();
    w.field_bool("ok", !degraded);
    w.field_u64("epoch", state.engine.epoch());
    w.field_bool("read_only", state.read_only);
    w.field_bool("degraded", degraded);
    if degraded {
        w.field_str(
            "reason",
            "write-ahead log failed; writes refused until a checkpoint succeeds \
             (POST /admin/checkpoint)",
        );
    }
    w.close_obj();
    let mut resp = Response::json(w.finish());
    if degraded {
        resp.status = 503;
        resp = resp.with_header("retry-after", RETRY_AFTER_SECS.to_string());
    }
    resp
}

fn stats(state: &AppState) -> Response {
    let s = state.engine.snapshot_stats();
    let mut w = JsonWriter::new();
    w.obj();
    w.field_u64("epoch", s.epoch);
    w.field_u64("documents", s.documents as u64);
    w.field_u64("elements", s.elements as u64);
    w.field_u64("links", s.links as u64);
    w.field_u64("nodes", s.nodes as u64);
    w.field_u64("cover_entries", s.cover_entries as u64);
    w.field_f64(
        "entries_per_element",
        s.cover_entries as f64 / s.elements.max(1) as f64,
    );
    w.field_bool("distance_aware", s.distance_aware);
    w.field_bool("read_only", state.read_only);
    // Durability: WAL length and checkpoint horizon (absent = in-memory).
    w.field_bool("durable", state.engine.is_durable());
    w.field_bool(
        "degraded",
        state.engine.wal_stats().is_some_and(|wal| !wal.healthy),
    );
    if let Some(wal) = state.engine.wal_stats() {
        w.field_obj("wal");
        w.field_u64("records_since_checkpoint", wal.records_since_checkpoint);
        w.field_u64("bytes", wal.wal_bytes);
        w.field_u64("appended_seq", wal.appended_seq);
        w.field_u64("durable_seq", wal.durable_seq);
        w.field_u64("last_checkpoint_seq", wal.last_checkpoint_seq);
        w.field_u64("last_checkpoint_epoch", wal.last_checkpoint_epoch);
        w.field_bool("healthy", wal.healthy);
        w.close_obj();
    }
    // Term-index footprint: the content half of content-and-structure
    // queries, sized from the snapshot's frozen posting buffers.
    w.field_obj("text");
    w.field_u64("vocabulary", s.text_vocabulary as u64);
    w.field_u64("postings", s.text_postings as u64);
    w.field_u64("postings_bytes", s.text_postings_bytes as u64);
    w.field_f64(
        "bytes_per_posting",
        s.text_postings_bytes as f64 / s.text_postings.max(1) as f64,
    );
    w.field_u64("indexed_elements", s.text_indexed_elements as u64);
    w.close_obj();
    // Which physical `//`-step plans have run (engine-lifetime totals) —
    // scrape twice to see where query traffic lands.
    w.field_obj("plan");
    for (label, count) in s.plan.as_labeled() {
        w.field_u64(label, count);
    }
    w.field_u64("total", s.plan.total());
    w.field_u64("backward_fallbacks", s.plan.backward_fallbacks);
    w.close_obj();
    // Build-phase wall times behind the current snapshot.
    w.field_obj("build_ms");
    w.field_u64("partition", s.build.partition_ms);
    w.field_u64("covers", s.build.covers_ms);
    w.field_u64("join", s.build.join_ms);
    w.field_u64("freeze", s.build.freeze_ms);
    w.field_u64("total", s.build.total_ms);
    w.close_obj();
    // What the greedy kernel did in that build; `peel_removed` over
    // `peel_offered` is the share of peel work the early exit left.
    w.field_obj("build");
    w.field_u64("centers", s.greedy.centers as u64);
    w.field_u64("densest_evals", s.greedy.densest_evals as u64);
    w.field_u64("reinsertions", s.greedy.reinsertions as u64);
    w.field_u64("peel_offered", s.greedy.peel_offered as u64);
    w.field_u64("peel_removed", s.greedy.peel_removed as u64);
    w.close_obj();
    // What publishing the current snapshot cost, and whether its cover
    // was patched from the previous epoch's or frozen in full.
    w.field_obj("publish");
    w.field_u64("last_micros", s.publish.micros);
    w.field_str("kind", s.publish.kind());
    w.field_u64("rows_patched", s.publish.rows_patched as u64);
    w.close_obj();
    // §6 drift against the last build, and who owns it: link integrations
    // by choice, deletions by algorithm, net cover entries per operation
    // kind.
    w.field_obj("maintenance");
    w.field_f64("drift_ratio", s.degradation().drift_ratio);
    w.field_u64("entries_at_build", s.maintenance.at_build.entries as u64);
    w.field_obj("integrations");
    for (choice, count) in s.maintenance.integrations.as_labeled() {
        w.field_u64(choice, count);
    }
    w.close_obj();
    w.field_obj("deletions");
    for (algorithm, count) in s.maintenance.deletions.as_labeled() {
        w.field_u64(algorithm, count);
    }
    w.field_u64(
        "recomputed_connections",
        s.maintenance.deletions.recomputed_connections,
    );
    w.close_obj();
    w.field_obj("entries_added");
    for (op, net) in s.maintenance.entries_added.as_labeled() {
        w.field_i64(op, net);
    }
    w.close_obj();
    w.close_obj();
    // Per-endpoint latency digests from the histogram registry —
    // p50/p95/p99 without waiting for a Prometheus scrape.
    w.field_arr("latency");
    for l in state.metrics.latency_summaries() {
        w.obj();
        w.field_str("endpoint", l.endpoint);
        w.field_u64("count", l.count);
        w.field_u64("errors", l.errors);
        w.field_f64("mean_micros", l.mean_micros);
        w.field_u64("p50_micros", l.p50_micros);
        w.field_u64("p95_micros", l.p95_micros);
        w.field_u64("p99_micros", l.p99_micros);
        w.close_obj();
    }
    w.close_arr();
    // Slow-query log summary (full entries at GET /debug/slow).
    w.field_obj("slow");
    w.field_u64("threshold_micros", state.slow.threshold_micros());
    w.field_u64("captured", state.slow.snapshot().len() as u64);
    w.close_obj();
    w.close_obj();
    Response::json(w.finish())
}

fn metrics(state: &AppState) -> Response {
    let s = state.engine.snapshot_stats();
    let build_phases = [
        ("partition", s.build.partition_ms),
        ("covers", s.build.covers_ms),
        ("join", s.build.join_ms),
        ("freeze", s.build.freeze_ms),
        ("total", s.build.total_ms),
    ];
    let ctx = crate::metrics::RenderContext {
        epoch: state.engine.epoch(),
        uptime: state.started.elapsed(),
        workers: state.workers,
        plan: s.plan,
        text: crate::metrics::TextGauges {
            vocabulary: s.text_vocabulary as u64,
            postings: s.text_postings as u64,
            postings_bytes: s.text_postings_bytes as u64,
        },
        build_phases: &build_phases,
        wal: state.engine.wal_histograms(),
        publish: state.engine.publish_totals(),
        drift_ratio: s.degradation().drift_ratio,
        maintenance: s.maintenance,
        maintenance_durations: &state.engine.maintenance_durations(),
        version: env!("CARGO_PKG_VERSION"),
        store_format: hopi_build::STORE_FORMAT_VERSION,
    };
    Response::prometheus(state.metrics.render(&ctx))
}

fn debug_slow(state: &AppState) -> Response {
    let entries = state.slow.snapshot();
    let mut w = JsonWriter::new();
    w.obj();
    w.field_u64("threshold_micros", state.slow.threshold_micros());
    w.field_u64("count", entries.len() as u64);
    w.field_arr("slow");
    for e in &entries {
        w.obj();
        w.field_str("trace", &e.trace);
        w.field_str("endpoint", e.endpoint);
        if let Some(d) = &e.detail {
            w.field_str("detail", d);
        }
        w.field_u64("micros", e.micros);
        w.field_u64("epoch", e.epoch);
        w.field_obj("stages");
        for (stage, us) in &e.stages {
            w.field_u64(stage, *us);
        }
        w.close_obj();
        w.close_obj();
    }
    w.close_arr();
    w.close_obj();
    Response::json(w.finish())
}

fn connected(state: &AppState, req: &Request) -> Response {
    let (u, v) = match (req.param_u32("u"), req.param_u32("v")) {
        (Ok(u), Ok(v)) => (u, v),
        (Err(e), _) | (_, Err(e)) => return Response::error(400, &e),
    };
    let snap = state.engine.snapshot();
    let mut w = JsonWriter::new();
    w.obj();
    w.field_bool("connected", snap.connected(u, v));
    w.field_u64("epoch", snap.epoch());
    w.close_obj();
    Response::json(w.finish())
}

fn connected_many(state: &AppState, req: &Request, trace: &mut Trace) -> Response {
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e),
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let Some(raw_pairs) = parsed.get("pairs").and_then(Json::as_arr) else {
        return Response::error(400, "body must be {\"pairs\": [[u, v], ...]}");
    };
    if raw_pairs.len() > MAX_PROBE_BATCH {
        return Response::error(
            400,
            &format!(
                "batch of {} exceeds the cap of {MAX_PROBE_BATCH}",
                raw_pairs.len()
            ),
        );
    }
    let mut pairs = Vec::with_capacity(raw_pairs.len());
    for (i, p) in raw_pairs.iter().enumerate() {
        let pair = p
            .as_arr()
            .filter(|a| a.len() == 2)
            .and_then(|a| Some((a[0].as_u32()?, a[1].as_u32()?)));
        match pair {
            Some(uv) => pairs.push(uv),
            None => return Response::error(400, &format!("pairs[{i}] is not a [u, v] id pair")),
        }
    }
    // One snapshot, one batched kernel run — all answers on one epoch.
    let snap = state.engine.snapshot();
    let mut out = Vec::new();
    trace.time("eval", || snap.connected_many(&pairs, &mut out));
    trace.time("serialize", || {
        let mut w = JsonWriter::new();
        w.obj();
        w.field_arr("results");
        for b in &out {
            w.item_bool(*b);
        }
        w.close_arr();
        w.field_u64("count", out.len() as u64);
        w.field_u64("epoch", snap.epoch());
        w.close_obj();
        Response::json(w.finish())
    })
}

fn distance(state: &AppState, req: &Request) -> Response {
    let (u, v) = match (req.param_u32("u"), req.param_u32("v")) {
        (Ok(u), Ok(v)) => (u, v),
        (Err(e), _) | (_, Err(e)) => return Response::error(400, &e),
    };
    let snap = state.engine.snapshot();
    match snap.distance(u, v) {
        Ok(d) => {
            let mut w = JsonWriter::new();
            w.obj();
            w.field_opt_u64("distance", d.map(u64::from));
            w.field_u64("epoch", snap.epoch());
            w.close_obj();
            Response::json(w.finish())
        }
        Err(e) => engine_error(&e),
    }
}

fn neighborhood(state: &AppState, req: &Request, ancestors: bool) -> Response {
    let u = match req.param_u32("u") {
        Ok(u) => u,
        Err(e) => return Response::error(400, &e),
    };
    let snap = state.engine.snapshot();
    if snap.collection().doc_of(u).is_none() {
        return engine_error(&HopiError::UnknownElement(u));
    }
    let elements = if ancestors {
        snap.ancestors(u)
    } else {
        snap.descendants(u)
    };
    let mut w = JsonWriter::new();
    w.obj();
    w.field_arr("elements");
    for &e in &elements {
        w.item_u64(u64::from(e));
    }
    w.close_arr();
    w.field_u64("count", elements.len() as u64);
    w.field_u64("epoch", snap.epoch());
    w.close_obj();
    Response::json(w.finish())
}

fn query(state: &AppState, req: &Request, trace: &mut Trace) -> Response {
    let Some(expr) = req.param("expr") else {
        return Response::error(400, "missing query parameter 'expr'");
    };
    trace.set_detail(expr);
    let ranked = req.param("ranked") == Some("true");
    let k = match req.param("k") {
        None => None,
        Some(_) => match req.param_u32("k") {
            Ok(k) => Some(k as usize),
            Err(e) => return Response::error(400, &e),
        },
    };
    let snap = state.engine.snapshot();
    let mut w = JsonWriter::new();
    if ranked {
        let mut matches = match trace.time("eval", || snap.query_ranked(expr)) {
            Ok(m) => m,
            Err(e) => return engine_error(&e),
        };
        if let Some(k) = k {
            matches.truncate(k);
        }
        trace.time("serialize", || {
            w.obj();
            w.field_arr("matches");
            for m in &matches {
                w.obj();
                w.field_u64("element", u64::from(m.element));
                w.field_u64("distance", u64::from(m.distance));
                w.field_f64("text_score", m.text_score);
                w.field_f64("score", m.score());
                w.close_obj();
            }
            w.close_arr();
            w.field_u64("count", matches.len() as u64);
        });
    } else {
        let mut matches = match trace.time("eval", || snap.query(expr)) {
            Ok(m) => m,
            Err(e) => return engine_error(&e),
        };
        if let Some(k) = k {
            matches.truncate(k);
        }
        trace.time("serialize", || {
            w.obj();
            w.field_arr("matches");
            for &e in &matches {
                w.item_u64(u64::from(e));
            }
            w.close_arr();
            w.field_u64("count", matches.len() as u64);
        });
    }
    w.field_u64("epoch", snap.epoch());
    w.close_obj();
    Response::json(w.finish())
}

fn insert_document(state: &AppState, req: &Request) -> Response {
    if let Some(resp) = frozen_guard(state) {
        return resp;
    }
    let Some(name) = req.param("name") else {
        return Response::error(400, "missing query parameter 'name' (the document name)");
    };
    let xml = match req.body_str() {
        Ok(b) if !b.trim().is_empty() => b,
        Ok(_) => return Response::error(400, "empty body; POST the document XML"),
        Err(e) => return Response::error(400, &e),
    };
    match state.engine.insert_xml(name, xml) {
        Ok(doc) => {
            let mut w = JsonWriter::new();
            w.obj();
            w.field_u64("doc", u64::from(doc));
            w.field_u64("epoch", state.engine.epoch());
            w.close_obj();
            Response::json(w.finish())
        }
        Err(e) => engine_error(&e),
    }
}

fn delete_document(state: &AppState, req: &Request) -> Response {
    if let Some(resp) = frozen_guard(state) {
        return resp;
    }
    let raw = req.path.strip_prefix("/documents/").unwrap_or_default();
    let Ok(doc) = raw.parse::<u32>() else {
        return Response::error(400, &format!("'{raw}' is not a document id"));
    };
    match state.engine.delete_document(doc) {
        Ok(outcome) => {
            let mut w = JsonWriter::new();
            w.obj();
            w.field_u64("deleted", u64::from(doc));
            w.field_str("algorithm", &format!("{:?}", outcome.algorithm));
            w.field_u64("entries_removed", outcome.entries_removed as u64);
            w.field_u64("epoch", state.engine.epoch());
            w.close_obj();
            Response::json(w.finish())
        }
        Err(e) => engine_error(&e),
    }
}

/// Extracts `{"from": u, "to": v}` from a link-mutation body, falling back
/// to `?from=&to=` query parameters.
fn link_endpoints(req: &Request) -> Result<(u32, u32), String> {
    if !req.body.is_empty() {
        let parsed = json::parse(req.body_str()?).map_err(|e| e.to_string())?;
        let from = parsed
            .get("from")
            .and_then(Json::as_u32)
            .ok_or("body needs a numeric 'from' element id")?;
        let to = parsed
            .get("to")
            .and_then(Json::as_u32)
            .ok_or("body needs a numeric 'to' element id")?;
        Ok((from, to))
    } else {
        Ok((req.param_u32("from")?, req.param_u32("to")?))
    }
}

fn insert_link(state: &AppState, req: &Request) -> Response {
    if let Some(resp) = frozen_guard(state) {
        return resp;
    }
    let (from, to) = match link_endpoints(req) {
        Ok(ft) => ft,
        Err(e) => return Response::error(400, &e),
    };
    match state.engine.insert_link(from, to) {
        Ok(added) => {
            let mut w = JsonWriter::new();
            w.obj();
            w.field_u64("added_entries", added as u64);
            w.field_u64("epoch", state.engine.epoch());
            w.close_obj();
            Response::json(w.finish())
        }
        Err(e) => engine_error(&e),
    }
}

fn delete_link(state: &AppState, req: &Request) -> Response {
    if let Some(resp) = frozen_guard(state) {
        return resp;
    }
    let (from, to) = match link_endpoints(req) {
        Ok(ft) => ft,
        Err(e) => return Response::error(400, &e),
    };
    match state.engine.delete_link(from, to) {
        Ok(outcome) => {
            let mut w = JsonWriter::new();
            w.obj();
            w.field_str("algorithm", &format!("{:?}", outcome.algorithm));
            w.field_u64("entries_removed", outcome.entries_removed as u64);
            w.field_u64("epoch", state.engine.epoch());
            w.close_obj();
            Response::json(w.finish())
        }
        Err(e) => engine_error(&e),
    }
}

fn admin_rebuild(state: &AppState) -> Response {
    if let Some(resp) = frozen_guard(state) {
        return resp;
    }
    // Synchronous: the caller wants the fresh build's report. Queries keep
    // being served from the old epoch for the whole build (the engine
    // builds outside its lock), so only this one worker is occupied.
    let report = state.engine.rebuild_blocking();
    let mut w = JsonWriter::new();
    w.obj();
    w.field_u64("partitions", report.partitions as u64);
    w.field_u64("cover_entries", report.cover_size as u64);
    w.field_u64("total_ms", report.total_ms);
    w.field_u64("epoch", state.engine.epoch());
    w.close_obj();
    Response::json(w.finish())
}

fn admin_checkpoint(state: &AppState) -> Response {
    // Legal in frozen mode: a checkpoint persists state, it does not
    // mutate it. Blocks writers briefly; readers stay on snapshots.
    match state.engine.checkpoint() {
        Ok(ck) => {
            let mut w = JsonWriter::new();
            w.obj();
            w.field_u64("seq", ck.seq);
            w.field_u64("wal_bytes_truncated", ck.wal_bytes_truncated);
            w.field_u64("epoch", state.engine.epoch());
            w.close_obj();
            Response::json(w.finish())
        }
        Err(e) => engine_error(&e),
    }
}

fn admin_save(state: &AppState, req: &Request) -> Response {
    let body = match req.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e),
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let Some(path) = parsed.get("path").and_then(Json::as_str) else {
        return Response::error(400, "body must be {\"path\": \"...\", \"frozen\": bool?}");
    };
    let frozen = parsed.get("frozen").and_then(Json::as_bool).unwrap_or(true);
    let saved = state.engine.read(|h| {
        if frozen {
            h.save_frozen(std::path::Path::new(path))
        } else {
            h.save(std::path::Path::new(path))
        }
    });
    match saved {
        Ok(()) => {
            let mut w = JsonWriter::new();
            w.obj();
            w.field_str("saved", path);
            w.field_bool("frozen", frozen);
            w.field_u64("epoch", state.engine.epoch());
            w.close_obj();
            Response::json(w.finish())
        }
        Err(e) => engine_error(&e),
    }
}
