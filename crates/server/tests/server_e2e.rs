//! Loopback integration tests: the full endpoint surface, mutation →
//! fresh-epoch visibility, malformed-request 4xx paths, frozen mode,
//! graceful shutdown, and concurrent readers during writes/rebuilds.

use hopi_build::{Hopi, OnlineHopi, WalRecord};
use hopi_server::json::{parse, Json};
use hopi_server::{serve, Client, ServerConfig};
use std::net::SocketAddr;
use std::path::Path;

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// Two linked documents; `a`'s root (id 0) reaches `b`'s `<sec>` (id 3),
/// which carries element text for content-predicate queries.
fn small_engine(distance_aware: bool) -> OnlineHopi {
    OnlineHopi::new(
        Hopi::builder()
            .distance_aware(distance_aware)
            .parse([
                ("a", r#"<r><cite xlink:href="b"/></r>"#),
                ("b", "<r><sec>two hop indexing</sec></r>"),
            ])
            .expect("valid fixture"),
    )
}

fn serve_small(distance_aware: bool, read_only: bool) -> hopi_server::ServerHandle {
    serve(
        small_engine(distance_aware),
        ServerConfig {
            addr: loopback(),
            threads: 4,
            read_only,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn get_json(client: &mut Client, path: &str) -> Json {
    let resp = client.get(path).expect("request");
    assert_eq!(resp.status, 200, "GET {path} -> {}", resp.body);
    parse(&resp.body).expect("valid JSON body")
}

fn epoch_of(v: &Json) -> u64 {
    v.get("epoch").and_then(Json::as_u64).expect("epoch field")
}

#[test]
fn read_endpoints_answer_from_one_snapshot() {
    let handle = serve_small(true, false);
    let mut c = Client::connect(handle.addr()).unwrap();

    let health = get_json(&mut c, "/healthz");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));

    let stats = get_json(&mut c, "/stats");
    assert_eq!(stats.get("documents").and_then(Json::as_u64), Some(2));
    assert_eq!(stats.get("elements").and_then(Json::as_u64), Some(4));
    assert_eq!(stats.get("links").and_then(Json::as_u64), Some(1));
    assert_eq!(
        stats.get("distance_aware").and_then(Json::as_bool),
        Some(true)
    );
    assert!(stats.get("cover_entries").and_then(Json::as_u64).unwrap() > 0);
    // The greedy kernel's counters of the build behind the snapshot.
    let build = stats.get("build").expect("build object in /stats");
    let counter = |name: &str| build.get(name).and_then(Json::as_u64).expect(name);
    assert!(counter("centers") > 0 && counter("densest_evals") > 0);
    assert!(counter("peel_offered") > 0 && counter("peel_removed") <= counter("peel_offered"));
    assert!(counter("degree_words") > 0);
    counter("reinsertions");

    // a's root (0) reaches b's sec (3) across the citation link.
    let conn = get_json(&mut c, "/connected?u=0&v=3");
    assert_eq!(conn.get("connected").and_then(Json::as_bool), Some(true));
    let conn = get_json(&mut c, "/connected?u=3&v=0");
    assert_eq!(conn.get("connected").and_then(Json::as_bool), Some(false));

    let dist = get_json(&mut c, "/distance?u=0&v=3");
    assert!(dist.get("distance").and_then(Json::as_u64).is_some());

    let desc = get_json(&mut c, "/descendants?u=0");
    let elements = desc.get("elements").and_then(Json::as_arr).unwrap();
    assert_eq!(elements.len(), 4, "a's root reaches everything");
    let anc = get_json(&mut c, "/ancestors?u=3");
    assert_eq!(anc.get("count").and_then(Json::as_u64), Some(4));

    // Path query, percent-encoded, plain and ranked.
    let q = get_json(&mut c, "/query?expr=%2F%2Fr%2F%2Fsec");
    assert_eq!(q.get("matches").and_then(Json::as_arr).unwrap().len(), 1);
    let ranked = get_json(&mut c, "/query?expr=%2F%2Fr%2F%2Fsec&ranked=true&k=1");
    let m = &ranked.get("matches").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(m.get("element").and_then(Json::as_u64), Some(3));
    assert!(m.get("score").is_some());
    assert_eq!(m.get("text_score").and_then(Json::as_f64), Some(0.0));

    // Content-and-structure: the sec's element text answers a contains()
    // predicate, and the ranked form fuses a positive BM25 text score.
    let q = get_json(
        &mut c,
        "/query?expr=%2F%2Fr%2F%2Fsec%5Bcontains(.%2C%20%22indexing%22)%5D",
    );
    let hits = q.get("matches").and_then(Json::as_arr).unwrap();
    assert_eq!(hits.len(), 1, "content predicate matches the texted sec");
    let q = get_json(
        &mut c,
        "/query?expr=%2F%2Fr%2F%2Fsec%5Bcontains(.%2C%20%22absent%22)%5D",
    );
    assert_eq!(q.get("count").and_then(Json::as_u64), Some(0));
    let ranked = get_json(
        &mut c,
        "/query?expr=%2F%2Fr%2F%2Fsec%5Babout(.%2C%20%22hop%20indexing%22)%5D&ranked=true",
    );
    let m = &ranked.get("matches").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(m.get("element").and_then(Json::as_u64), Some(3));
    assert!(m.get("text_score").and_then(Json::as_f64).unwrap() > 0.0);

    // Batched probes answer on one epoch in order.
    let resp = c
        .request(
            "POST",
            "/connected_many",
            r#"{"pairs":[[0,3],[3,0],[2,3]]}"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let batch = parse(&resp.body).unwrap();
    let results: Vec<bool> = batch
        .get("results")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|b| b.as_bool().unwrap())
        .collect();
    assert_eq!(results, vec![true, false, true]);
    assert_eq!(epoch_of(&batch), epoch_of(&stats));

    // The /query calls above executed `//` steps: the per-strategy plan
    // counters must show up in /stats and the Prometheus exposition.
    let stats = get_json(&mut c, "/stats");
    let plan = stats.get("plan").expect("plan object in /stats");
    assert!(
        plan.get("total").and_then(Json::as_u64).unwrap() > 0,
        "plan counters tally executed steps"
    );
    let fallbacks = plan.get("backward_fallbacks").and_then(Json::as_u64);
    assert!(fallbacks.is_some(), "budget overruns in /stats");
    // Term-index footprint in /stats: three distinct terms in one element.
    let text = stats.get("text").expect("text object in /stats");
    assert_eq!(text.get("vocabulary").and_then(Json::as_u64), Some(3));
    assert_eq!(text.get("postings").and_then(Json::as_u64), Some(3));
    assert!(text.get("postings_bytes").and_then(Json::as_u64).unwrap() > 0);
    assert!(
        text.get("bytes_per_posting")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert_eq!(text.get("indexed_elements").and_then(Json::as_u64), Some(1));
    let metrics = c.get("/metrics").expect("metrics scrape");
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .body
            .contains("hopi_query_plan_total{strategy=\"pairwise_probe\"}"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains(&format!(
            "hopi_query_backward_fallbacks_total {}\n",
            fallbacks.unwrap_or_default()
        )),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("hopi_text_vocabulary 3"),
        "{}",
        metrics.body
    );
    assert!(metrics.body.contains("hopi_text_postings_bytes "));

    // Ids naming no live element answer 404, as on /descendants: one past
    // the collection, one deleted with its document.
    for (method, path, body) in [
        ("POST", "/documents?name=gone", "<r/>"),
        ("DELETE", "/documents/2", ""),
    ] {
        let resp = c.request(method, path, body).unwrap();
        assert_eq!(resp.status, 200, "{method} {path}: {}", resp.body);
    }
    for path in [
        "/distance?u=99&v=99",
        "/distance?u=4&v=4",
        "/distance?u=0&v=99",
    ] {
        let resp = c.get(path).unwrap();
        assert_eq!(resp.status, 404, "{path}: {}", resp.body);
    }

    handle.shutdown();
}

#[test]
fn mutations_publish_fresh_epochs_visible_to_reads() {
    let handle = serve_small(false, false);
    let mut c = Client::connect(handle.addr()).unwrap();

    let before = get_json(&mut c, "/stats");
    let epoch0 = epoch_of(&before);

    // Insert a document citing `a`; the ack carries a newer epoch.
    let resp = c
        .request(
            "POST",
            "/documents?name=c",
            r#"<note><cite xlink:href="a"/></note>"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let inserted = parse(&resp.body).unwrap();
    let epoch1 = epoch_of(&inserted);
    assert!(epoch1 > epoch0, "insert must publish a fresh epoch");

    // The mutation is visible to every subsequent read: c's root (id 4)
    // now reaches b's sec (id 3) via c → a → b.
    let conn = get_json(&mut c, "/connected?u=4&v=3");
    assert_eq!(conn.get("connected").and_then(Json::as_bool), Some(true));
    assert!(epoch_of(&conn) >= epoch1);
    let q = get_json(&mut c, "/query?expr=%2F%2Fnote%2F%2Fsec");
    assert_eq!(q.get("count").and_then(Json::as_u64), Some(1));

    // Link maintenance round trip: add then delete a link b/sec → a/cite.
    let resp = c.request("POST", "/links", r#"{"from":3,"to":1}"#).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let epoch2 = epoch_of(&parse(&resp.body).unwrap());
    assert!(epoch2 > epoch1);
    let conn = get_json(&mut c, "/connected?u=3&v=1");
    assert_eq!(conn.get("connected").and_then(Json::as_bool), Some(true));
    let resp = c
        .request("DELETE", "/links", r#"{"from":3,"to":1}"#)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let conn = get_json(&mut c, "/connected?u=3&v=1");
    assert_eq!(conn.get("connected").and_then(Json::as_bool), Some(false));

    // Delete the inserted document; its matches disappear.
    let doc = inserted.get("doc").and_then(Json::as_u64).unwrap();
    let resp = c
        .request("DELETE", &format!("/documents/{doc}"), "")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let q = get_json(&mut c, "/query?expr=%2F%2Fnote%2F%2Fsec");
    assert_eq!(q.get("count").and_then(Json::as_u64), Some(0));

    // Admin: rebuild publishes a fresh epoch; save writes a loadable index.
    let resp = c.request("POST", "/admin/rebuild", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let rebuilt = parse(&resp.body).unwrap();
    assert!(epoch_of(&rebuilt) > epoch2);
    assert!(rebuilt.get("cover_entries").and_then(Json::as_u64).unwrap() > 0);

    let save_path =
        std::env::temp_dir().join(format!("hopi_server_save_{}.idx", std::process::id()));
    let body = format!(r#"{{"path":"{}"}}"#, save_path.display());
    let resp = c.request("POST", "/admin/save", &body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let collection = handle.state().engine.read(|h| h.collection().clone());
    let reopened = Hopi::open(collection, &save_path).expect("saved index loads");
    assert!(reopened.connected(0, 3));
    std::fs::remove_file(&save_path).ok();

    // Metrics accounted every endpoint we hit. The request mix above
    // reaches every family `hopi-bench`'s `check_metrics` requires, and CI
    // runs it over this live exposition, written to
    // `target/tmp/metrics.prom`.
    let resp = c.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let scrape = Path::new(env!("CARGO_TARGET_TMPDIR")).join("metrics.prom");
    std::fs::write(&scrape, &resp.body).expect("write the /metrics scrape");
    assert!(resp
        .body
        .contains("hopi_requests_total{endpoint=\"connected\"}"));
    assert!(resp
        .body
        .contains("hopi_requests_total{endpoint=\"insert_document\"} 1"));
    assert!(resp.body.contains("hopi_snapshot_epoch"));

    // Publish cost: one sample per published snapshot (the first epoch
    // included), each either a patch of its predecessor or a full freeze;
    // /stats describes the last one.
    let stats = get_json(&mut c, "/stats");
    let publishes = epoch_of(&stats) + 1;
    let count_of = |series: &str| -> u64 {
        let line = resp.body.lines().find(|l| l.starts_with(series));
        let value = line.and_then(|l| l.rsplit(' ').next()).expect(series);
        value.parse().expect(series)
    };
    assert_eq!(count_of("hopi_publish_duration_seconds_count"), publishes);
    let patched = count_of("hopi_publish_total{kind=\"patched\"}");
    let full = count_of("hopi_publish_total{kind=\"full\"}");
    assert_eq!(patched + full, publishes);
    assert!(full >= 2, "the first epoch and the rebuild freeze in full");
    count_of("hopi_publish_rows_patched_total");
    assert!(
        count_of("hopi_publish_bytes_total") > 0,
        "every full freeze writes all its blocks"
    );
    let publish = stats.get("publish").expect("publish object in /stats");
    assert!(publish.get("last_micros").and_then(Json::as_u64).is_some());
    assert!(publish.get("rows_patched").and_then(Json::as_u64).is_some());
    assert!(publish.get("bytes").and_then(Json::as_u64).is_some());
    let kind = publish.get("kind").and_then(Json::as_str).expect("kind");
    assert!(kind == "patched" || kind == "full", "{kind}");

    // §6 drift and its owners: one document link and one standalone link
    // were integrated, and the rebuild reset the drift baseline.
    let integrations: u64 = ["center", "lout_copy", "lin_copy", "noop"]
        .iter()
        .map(|c| count_of(&format!("hopi_link_integrations_total{{choice=\"{c}\"}}")))
        .sum();
    assert_eq!(integrations, 2);
    for op in [
        "insert_link",
        "insert_document",
        "delete_separator",
        "delete_general",
    ] {
        let series = format!("hopi_cover_entries_added_total{{op=\"{op}\"}}");
        assert!(resp.body.contains(&series), "{series}");
    }
    // One link and one document were deleted; the link by Theorem 3.
    let deletions: u64 = ["separator", "general"]
        .iter()
        .map(|a| count_of(&format!("hopi_deletions_total{{algorithm=\"{a}\"}}")))
        .sum();
    assert_eq!(deletions, 2);
    assert!(count_of("hopi_deletions_total{algorithm=\"general\"}") >= 1);
    count_of("hopi_recomputed_connections_total");
    // Per-kind §6 latency: one sample per maintenance call, kept across the
    // rebuild like the counters.
    let timed = |op: &str| {
        count_of(&format!(
            "hopi_maintenance_duration_seconds_count{{op=\"{op}\"}}"
        ))
    };
    assert_eq!(timed("insert_document"), 1);
    assert_eq!(timed("insert_link"), 1);
    assert_eq!(timed("delete_separator") + timed("delete_general"), 2);
    assert!(timed("delete_general") >= 1);
    assert!(resp.body.contains("hopi_cover_drift_ratio 1.0000"));
    let maintenance = stats
        .get("maintenance")
        .expect("maintenance object in /stats");
    assert_eq!(
        maintenance.get("drift_ratio").and_then(Json::as_f64),
        Some(1.0)
    );
    assert_eq!(
        maintenance.get("entries_at_build").and_then(Json::as_u64),
        stats.get("cover_entries").and_then(Json::as_u64)
    );
    let choices = maintenance.get("integrations").and_then(Json::as_obj);
    assert_eq!(choices.map(<[_]>::len), Some(4));
    let deleted = maintenance.get("deletions").and_then(Json::as_obj);
    assert_eq!(deleted.map(<[_]>::len), Some(3));

    handle.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_hangs() {
    let handle = serve_small(false, false);
    let addr = handle.addr();

    // Protocol-level garbage: one 4xx answer, then the connection closes.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = String::new();
        raw.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        assert!(buf.contains("Connection: close"));
    }

    let mut c = Client::connect(addr).unwrap();
    // A document that comes and goes: its element id 4 is no longer live.
    for (method, path, body) in [
        ("POST", "/documents?name=gone", "<r/>"),
        ("DELETE", "/documents/2", ""),
    ] {
        let resp = c.request(method, path, body).unwrap();
        assert_eq!(resp.status, 200, "{method} {path}: {}", resp.body);
    }
    for (method, path, body, want) in [
        ("GET", "/nope", "", 404),
        ("GET", "/descendants?u=99", "", 404), // past the collection
        ("GET", "/ancestors?u=99", "", 404),
        ("GET", "/descendants?u=4", "", 404), // deleted with its document
        ("GET", "/ancestors?u=4", "", 404),
        ("GET", "/connected?u=99&v=99", "", 404),
        ("GET", "/connected?u=4&v=4", "", 404),
        ("GET", "/connected?u=0&v=99", "", 404),
        ("PATCH", "/connected", "", 405),
        ("POST", "/healthz", "", 405),
        ("GET", "/connected?u=0", "", 400),        // missing v
        ("GET", "/connected?u=zork&v=1", "", 400), // non-numeric id
        ("GET", "/query", "", 400),                // missing expr
        ("GET", "/query?expr=%5Bbad", "", 400),    // unparsable expr
        ("GET", "/distance?u=0&v=3", "", 409),     // not distance-aware
        ("POST", "/connected_many", "not json", 400),
        ("POST", "/connected_many", r#"{"pairs":[[1]]}"#, 400),
        ("POST", "/documents?name=a", "<r/>", 409), // duplicate name
        ("POST", "/documents", "<r/>", 400),        // missing name
        ("POST", "/documents?name=x", "", 400),     // empty body
        ("POST", "/links", r#"{"from":0}"#, 400),
        ("POST", "/links", r#"{"from":0,"to":99}"#, 404), // unknown element
        ("DELETE", "/links", r#"{"from":0,"to":3}"#, 404), // no such link
        ("DELETE", "/documents/99", "", 404),
        ("DELETE", "/documents/zork", "", 400),
        ("POST", "/admin/save", "{}", 400), // missing path
    ] {
        let resp = c.request(method, path, body).expect("server stays up");
        assert_eq!(resp.status, want, "{method} {path}: {}", resp.body);
        let parsed = parse(&resp.body).expect("error bodies are JSON");
        assert!(parsed.get("error").and_then(Json::as_str).is_some());
    }

    // The connection survived the whole 4xx barrage.
    let health = get_json(&mut c, "/healthz");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    handle.shutdown();
}

/// A client that pauses mid-head and mid-body (longer than the server's
/// 250 ms read-timeout tick) must not desync the connection: the request
/// completes once the bytes arrive.
#[test]
fn slow_requests_survive_read_timeout_ticks() {
    use std::io::{Read, Write};

    let handle = serve_small(false, false);
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    let body = r#"{"pairs":[[0,3],[3,0]]}"#;
    let head = format!(
        "POST /connected_many HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    // Dribble: head in two chunks, then the body in two chunks, with
    // pauses longer than the idle tick between every piece.
    let (head_a, head_b) = head.as_bytes().split_at(10);
    let (body_a, body_b) = body.as_bytes().split_at(7);
    for piece in [head_a, head_b, body_a, body_b] {
        raw.write_all(piece).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(std::time::Duration::from_millis(400));
    }
    raw.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut all = String::new();
    raw.read_to_string(&mut all).unwrap();
    assert!(all.starts_with("HTTP/1.1 200"), "{all}");
    assert!(all.contains(r#""results":[true,false]"#), "{all}");
    // The follow-up request on the same connection parsed cleanly too —
    // the slow body did not desync the framing.
    assert!(all.contains(r#""ok":true"#), "{all}");
    handle.shutdown();
}

#[test]
fn frozen_mode_rejects_mutations_allows_reads() {
    let handle = serve_small(false, true);
    let mut c = Client::connect(handle.addr()).unwrap();

    let stats = get_json(&mut c, "/stats");
    assert_eq!(stats.get("read_only").and_then(Json::as_bool), Some(true));
    let conn = get_json(&mut c, "/connected?u=0&v=3");
    assert_eq!(conn.get("connected").and_then(Json::as_bool), Some(true));

    for (method, path, body) in [
        ("POST", "/documents?name=c", "<r/>"),
        ("POST", "/links", r#"{"from":3,"to":1}"#),
        ("DELETE", "/links", r#"{"from":1,"to":2}"#),
        ("DELETE", "/documents/0", ""),
        ("POST", "/admin/rebuild", ""),
    ] {
        let resp = c.request(method, path, body).unwrap();
        assert_eq!(resp.status, 403, "{method} {path}: {}", resp.body);
    }
    // Epoch never moved.
    assert_eq!(epoch_of(&get_json(&mut c, "/stats")), epoch_of(&stats));
    handle.shutdown();
}

#[test]
fn graceful_shutdown_finishes_in_flight_work() {
    let handle = serve_small(false, false);
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.get("/healthz").unwrap().status, 200);

    let trigger = handle.shutdown_trigger();
    trigger.trigger();
    handle.shutdown(); // joins acceptor + workers

    // New connections are refused (or reset before a response).
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.get("/healthz").is_err(),
    };
    assert!(refused, "server kept serving after shutdown");
}

/// The concurrent-serving satellite: reader threads hammer probes and
/// stats over HTTP while the engine absorbs batches of records and a
/// background rebuild. Epochs must be monotonic per reader and every
/// response must parse — no torn snapshots.
#[test]
fn concurrent_readers_during_batches_and_rebuild() {
    let handle = serve_small(false, false);
    let addr = handle.addr();
    let engine = handle.state().engine.clone();
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("reader connects");
                let mut last_epoch = 0u64;
                let mut reads = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let stats = c.get("/stats").expect("stats under writes");
                    assert_eq!(stats.status, 200);
                    let parsed = parse(&stats.body).expect("stats JSON never torn");
                    let epoch = parsed.get("epoch").and_then(Json::as_u64).unwrap();
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;

                    // Probe an invariant pair: a root (0) reaches b sec (3)
                    // in every epoch (writes only ever add documents).
                    let conn = c.get("/connected?u=0&v=3").expect("probe under writes");
                    let parsed = parse(&conn.body).expect("probe JSON never torn");
                    assert_eq!(parsed.get("connected").and_then(Json::as_bool), Some(true));
                    let probe_epoch = parsed.get("epoch").and_then(Json::as_u64).unwrap();
                    assert!(probe_epoch >= last_epoch);
                    last_epoch = probe_epoch;
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // Writer: batches of four inserts citing `a` (one epoch per batch)
    // plus a rebuild.
    for round in 0..5 {
        let batch = (0..4)
            .map(|i| {
                let name = format!("w{round}_{i}");
                let xml = r#"<note><cite xlink:href="a"/></note>"#;
                let (doc, links) = engine.read(|h| h.prepare_xml(&name, xml)).unwrap();
                WalRecord::InsertDocument {
                    doc,
                    outgoing: links.outgoing,
                    incoming: links.incoming,
                }
            })
            .collect();
        engine.apply(batch).expect("insert under readers");
    }
    let report = engine.rebuild_blocking();
    assert!(report.cover_size > 0);

    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: usize = readers
        .into_iter()
        .map(|r| r.join().expect("reader ok"))
        .sum();
    assert!(total > 0, "readers made progress");

    // 5 batch epochs + 1 rebuild epoch on top of epoch 0.
    assert_eq!(engine.epoch(), 6);
    let stats = engine.snapshot_stats();
    assert_eq!(stats.documents, 2 + 20);
    handle.shutdown();
}

/// The durability acceptance path: serve a durable engine, mutate over
/// HTTP, kill the server without checkpointing, reopen the directory —
/// every acknowledged mutation is present.
#[test]
fn durable_serving_survives_a_crash_without_checkpoint() {
    use hopi_build::{DurableConfig, SyncPolicy};

    let dir = std::env::temp_dir().join(format!("hopi_server_durable_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = DurableConfig::new(&dir).policy(SyncPolicy::GroupCommit);
    let bootstrap = Hopi::builder()
        .parse([
            ("a", r#"<r><cite xlink:href="b"/></r>"#),
            ("b", "<r><sec/></r>"),
        ])
        .unwrap()
        .collection()
        .clone();
    let engine = OnlineHopi::open_durable(&config, Hopi::builder(), Some(bootstrap)).unwrap();
    let handle = serve(
        engine,
        ServerConfig {
            addr: loopback(),
            threads: 4,
            read_only: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    // /stats announces durability and an empty WAL.
    let stats = get_json(&mut c, "/stats");
    assert_eq!(stats.get("durable").and_then(Json::as_bool), Some(true));
    let wal = stats.get("wal").expect("wal object");
    assert_eq!(
        wal.get("records_since_checkpoint").and_then(Json::as_u64),
        Some(0)
    );

    // Acked mutations over HTTP: a document, a link, a deletion.
    let resp = c
        .request(
            "POST",
            "/documents?name=crashnote",
            r#"<note><cite xlink:href="b"/></note>"#,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = parse(&resp.body)
        .unwrap()
        .get("doc")
        .and_then(Json::as_u64)
        .unwrap() as u32;
    let resp = c.request("POST", "/links?from=3&to=0", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = c.request("DELETE", "/links?from=3&to=0", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let stats = get_json(&mut c, "/stats");
    let wal = stats.get("wal").expect("wal object");
    assert_eq!(
        wal.get("records_since_checkpoint").and_then(Json::as_u64),
        Some(3)
    );
    let appended = wal.get("appended_seq").and_then(Json::as_u64).unwrap();
    assert_eq!(
        wal.get("durable_seq").and_then(Json::as_u64),
        Some(appended),
        "an acked mutation is a durable mutation"
    );

    // Kill without checkpointing (drop = the in-process kill -9: nothing
    // is flushed beyond what each ack already made durable).
    drop(c);
    handle.shutdown();

    // Reopen the directory: checkpoint(initial) + WAL tail replay.
    let recovered = Hopi::recover(&dir).unwrap();
    let note_root = recovered.collection().global_id(doc, 0);
    assert!(
        recovered.connected(note_root, 3),
        "recovered document still cites b's sec"
    );
    assert!(
        !recovered.collection().has_link(3, 0),
        "the acked deletion survived too"
    );

    // And the recovered directory serves again, with a working
    // /admin/checkpoint that truncates the WAL.
    let engine = OnlineHopi::open_durable(&config, Hopi::builder(), None).unwrap();
    let handle = serve(
        engine,
        ServerConfig {
            addr: loopback(),
            threads: 2,
            read_only: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let before = get_json(&mut c, "/stats");
    assert_eq!(
        before
            .get("wal")
            .and_then(|w| w.get("records_since_checkpoint"))
            .and_then(Json::as_u64),
        Some(3),
        "pre-checkpoint WAL tail is still there after recovery"
    );
    let resp = c.request("POST", "/admin/checkpoint", "").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let ck = parse(&resp.body).unwrap();
    assert_eq!(ck.get("seq").and_then(Json::as_u64), Some(3));
    let after = get_json(&mut c, "/stats");
    assert_eq!(
        after
            .get("wal")
            .and_then(|w| w.get("records_since_checkpoint"))
            .and_then(Json::as_u64),
        Some(0)
    );
    drop(c);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `POST /admin/checkpoint` on a non-durable engine is a clean 409.
#[test]
fn checkpoint_without_wal_is_409() {
    let handle = serve_small(false, false);
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c.request("POST", "/admin/checkpoint", "").unwrap();
    assert_eq!(resp.status, 409, "{}", resp.body);
    let stats = get_json(&mut c, "/stats");
    assert_eq!(stats.get("durable").and_then(Json::as_bool), Some(false));
    assert!(stats.get("wal").is_none());
    handle.shutdown();
}

#[test]
fn traces_and_slow_log_end_to_end() {
    // Threshold 0 turns the slow log into a capture-everything ring, so
    // an ordinary loopback query stands in for an "artificially slow" one.
    let handle = serve(
        small_engine(false),
        ServerConfig {
            addr: loopback(),
            threads: 2,
            read_only: false,
            slow_threshold_micros: 0,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut c = Client::connect(handle.addr()).expect("connect");

    // Every response carries a fresh 16-hex trace id.
    let mut ids = std::collections::HashSet::new();
    for _ in 0..20 {
        let resp = c.get("/healthz").expect("healthz");
        let id = resp.header("x-hopi-trace").expect("trace header");
        assert_eq!(id.len(), 16, "trace id is 16 hex chars: {id:?}");
        assert!(id.chars().all(|ch| ch.is_ascii_hexdigit()));
        assert!(ids.insert(id.to_string()), "trace ids must be unique");
    }

    // A query is captured in /debug/slow under its trace id, with the
    // expression as detail and a per-stage breakdown.
    let resp = c.get("/query?expr=%2F%2Fr%2F%2Fsec").expect("query");
    assert_eq!(resp.status, 200);
    let qid = resp
        .header("x-hopi-trace")
        .expect("trace header")
        .to_string();
    let slow = get_json(&mut c, "/debug/slow");
    assert_eq!(slow.get("threshold_micros").and_then(Json::as_u64), Some(0));
    let entries = slow.get("slow").and_then(Json::as_arr).expect("slow array");
    let entry = entries
        .iter()
        .find(|e| e.get("trace").and_then(Json::as_str) == Some(qid.as_str()))
        .expect("the query's trace id appears in the slow log");
    assert_eq!(entry.get("endpoint").and_then(Json::as_str), Some("query"));
    assert_eq!(entry.get("detail").and_then(Json::as_str), Some("//r//sec"));
    let stages = entry.get("stages").expect("stages object");
    for stage in ["read", "route", "eval", "serialize", "write"] {
        assert!(
            stages.get(stage).and_then(Json::as_u64).is_some(),
            "stage {stage} missing from breakdown"
        );
    }

    // /metrics advertises exposition format 0.0.4 and per-endpoint
    // histogram series the digests derive from.
    let m = c.get("/metrics").expect("metrics");
    assert_eq!(
        m.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    assert!(m
        .body
        .contains("hopi_request_duration_seconds_bucket{endpoint=\"query\""));
    assert!(m
        .body
        .contains("hopi_request_duration_seconds_count{endpoint=\"healthz\"} 20"));
    assert!(m
        .body
        .contains("hopi_stage_duration_seconds_bucket{stage=\"eval\""));
    assert!(m.body.contains("hopi_build_info{version="));

    // /stats surfaces p50/p95/p99 digests per endpoint.
    let stats = get_json(&mut c, "/stats");
    let latency = stats
        .get("latency")
        .and_then(Json::as_arr)
        .expect("latency array");
    let health = latency
        .iter()
        .find(|l| l.get("endpoint").and_then(Json::as_str) == Some("healthz"))
        .expect("healthz digest");
    assert_eq!(health.get("count").and_then(Json::as_u64), Some(20));
    let p50 = health
        .get("p50_micros")
        .and_then(Json::as_u64)
        .expect("p50");
    let p99 = health
        .get("p99_micros")
        .and_then(Json::as_u64)
        .expect("p99");
    assert!(p50 <= p99, "quantiles are monotone: p50={p50} p99={p99}");

    handle.shutdown();
}
