//! CLI subcommand implementations, driving the [`Hopi`] engine facade.

use crate::load::{flag_value, load_dir, positional};
use hopi_build::{Hopi, HopiBuilder, PartitionerChoice};
use hopi_xml::generator::{dblp, inex, DblpConfig, InexConfig};
use hopi_xml::CollectionStats;
use std::path::Path;
use std::time::Instant;

/// Formats an element id as `docname#local <tag>` for terminal output.
fn describe_element(
    collection: &hopi_xml::Collection,
    e: hopi_xml::ElemId,
) -> Result<String, String> {
    let (d, local) = collection
        .to_local(e)
        .ok_or_else(|| format!("element {e} is not live in the collection"))?;
    let doc = collection
        .document(d)
        .ok_or_else(|| format!("document {d} is not live in the collection"))?;
    Ok(format!(
        "{}#{} <{}>",
        doc.name,
        local,
        doc.element(local).tag
    ))
}

/// `hopi gen --kind dblp|inex --scale F --out DIR`
pub fn generate(args: &[String]) -> Result<(), String> {
    let kind = flag_value(args, "--kind").unwrap_or_else(|| "dblp".into());
    let scale: f64 = flag_value(args, "--scale")
        .unwrap_or_else(|| "0.01".into())
        .parse()
        .map_err(|e| format!("bad --scale: {e}"))?;
    let out = flag_value(args, "--out").ok_or("missing --out DIR")?;
    let collection = match kind.as_str() {
        "dblp" => dblp(&DblpConfig::scaled(scale)),
        "inex" => inex(&InexConfig::scaled(scale)),
        other => return Err(format!("unknown --kind '{other}' (dblp|inex)")),
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create '{out}': {e}"))?;
    let mut written = 0usize;
    for d in collection.doc_ids() {
        let doc = collection
            .document(d)
            .ok_or_else(|| format!("generated document {d} is not live"))?;
        let xml = collection
            .serialize_document(d)
            .ok_or_else(|| format!("generated document {d} does not serialize"))?;
        std::fs::write(Path::new(&out).join(format!("{}.xml", doc.name)), xml)
            .map_err(|e| format!("write failed: {e}"))?;
        written += 1;
    }
    println!(
        "wrote {written} documents ({} elements, {} links) to {out}",
        collection.element_count(),
        collection.links().len()
    );
    Ok(())
}

/// `hopi stats --dir DIR [--index FILE]`, `hopi stats --addr HOST:PORT`,
/// or `hopi stats --slow [--addr HOST:PORT]`
pub fn stats(args: &[String]) -> Result<(), String> {
    // `--slow` interrogates a *running* server's slow-query log instead
    // of a collection directory.
    if args.iter().any(|a| a == "--slow") {
        let addr = flag_value(args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".into());
        return slow_log(&addr);
    }
    // `--addr` without `--slow` asks a running server for its health and
    // serving statistics.
    if let Some(addr) = flag_value(args, "--addr") {
        return remote_stats(&addr);
    }
    let dir =
        flag_value(args, "--dir").ok_or("missing --dir DIR (or --addr HOST:PORT for a server)")?;
    let collection = load_dir(&dir)?;
    let s = CollectionStats::of(&collection);
    println!("{s}");
    println!(
        "  {:.1} elements/doc, {:.2} links/doc",
        s.elements_per_doc(),
        s.links_per_doc()
    );
    // With an index on the side, add engine + serving-snapshot statistics
    // (the offline view of the server's GET /stats endpoint).
    if let Some(index_path) = flag_value(args, "--index") {
        let hopi = Hopi::open(collection, Path::new(&index_path))
            .map_err(|e| format!("load failed: {e}"))?;
        let es = hopi.stats();
        println!(
            "index: {} cover entries ({:.2} per element){}",
            es.cover_entries,
            es.entries_per_element,
            match es.distance_entries {
                Some(d) => format!(", {d} distance entries"),
                None => String::new(),
            }
        );
        println!(
            "text: {} terms, {} postings ({} bytes, {:.2} per posting), \
             {} texted elements, {} tokens",
            es.text.vocabulary,
            es.text.postings,
            es.text.postings_bytes,
            es.text.bytes_per_posting(),
            es.text.indexed_elements,
            es.text.total_tokens
        );
        let snap = hopi.snapshot();
        let ss = snap.stats();
        println!(
            "snapshot: epoch {}, {} nodes, {} cover entries, distance-aware: {}",
            ss.epoch, ss.nodes, ss.cover_entries, ss.distance_aware
        );
    }
    Ok(())
}

/// Connects to a running server, folding every failure (malformed
/// address, refused connection, timeout) into one human-readable line
/// that names the address — the caller propagates it for a non-zero exit.
fn connect_server(addr: &str) -> Result<hopi_server::Client, String> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .ok_or_else(|| {
            format!("bad server address '{addr}' (expected HOST:PORT, e.g. 127.0.0.1:7070)")
        })?;
    hopi_server::Client::connect(sock)
        .map_err(|e| format!("cannot reach hopi server at {addr}: {e}"))
}

/// `hopi stats --addr HOST:PORT` — health and serving statistics from a
/// running server (`GET /healthz` + `GET /stats`): degraded/read-only
/// state, WAL health, snapshot epoch, and collection sizes.
fn remote_stats(addr: &str) -> Result<(), String> {
    use hopi_server::json::{parse, Json};
    let mut client = connect_server(addr)?;
    let health = client
        .get("/healthz")
        .map_err(|e| format!("GET /healthz from {addr} failed: {e}"))?;
    let hbody = parse(&health.body).map_err(|e| format!("bad /healthz JSON: {e}"))?;
    let degraded = hbody
        .get("degraded")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let read_only = hbody
        .get("read_only")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    print!("server at {addr}: ");
    if degraded {
        let reason = hbody
            .get("reason")
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        println!(
            "DEGRADED ({}) — reads only, healthz {}",
            reason, health.status
        );
    } else {
        println!(
            "healthy{} (healthz {})",
            if read_only { ", read-only" } else { "" },
            health.status
        );
    }
    let resp = client
        .get("/stats")
        .map_err(|e| format!("GET /stats from {addr} failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /stats -> {}: {}", resp.status, resp.body));
    }
    let s = parse(&resp.body).map_err(|e| format!("bad /stats JSON: {e}"))?;
    let u = |name: &str| s.get(name).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "  epoch {}: {} docs, {} elements, {} links, {} cover entries",
        u("epoch"),
        u("documents"),
        u("elements"),
        u("links"),
        u("cover_entries")
    );
    let durable = s.get("durable").and_then(Json::as_bool).unwrap_or(false);
    if let Some(wal) = s.get("wal").filter(|_| durable) {
        let wu = |name: &str| wal.get(name).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "  wal: healthy={}, seq {} (durable {}), {} records since checkpoint at seq {}",
            wal.get("healthy").and_then(Json::as_bool).unwrap_or(false),
            wu("appended_seq"),
            wu("durable_seq"),
            wu("records_since_checkpoint"),
            wu("last_checkpoint_seq")
        );
    } else {
        println!("  wal: none (not durable)");
    }
    Ok(())
}

/// `hopi stats --slow [--addr HOST:PORT]` — fetches `GET /debug/slow`
/// from a running server and pretty-prints the captured requests,
/// slowest first, with their trace ids and per-stage breakdowns.
fn slow_log(addr: &str) -> Result<(), String> {
    use hopi_server::json::{parse, Json};
    let mut client = connect_server(addr)?;
    let resp = client
        .get("/debug/slow")
        .map_err(|e| format!("GET /debug/slow failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /debug/slow -> {}: {}", resp.status, resp.body));
    }
    let body = parse(&resp.body).map_err(|e| format!("bad /debug/slow JSON: {e}"))?;
    let threshold = body
        .get("threshold_micros")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let entries = body.get("slow").and_then(Json::as_arr).unwrap_or_default();
    println!(
        "slow-query log at {addr}: {} captured (threshold {threshold}µs)",
        entries.len()
    );
    for e in entries {
        let trace = e.get("trace").and_then(Json::as_str).unwrap_or("?");
        let endpoint = e.get("endpoint").and_then(Json::as_str).unwrap_or("?");
        let micros = e.get("micros").and_then(Json::as_u64).unwrap_or(0);
        let epoch = e.get("epoch").and_then(Json::as_u64).unwrap_or(0);
        print!("  {micros:>8}µs  {trace}  {endpoint}  epoch={epoch}");
        if let Some(detail) = e.get("detail").and_then(Json::as_str) {
            print!("  {detail}");
        }
        println!();
        if let Some(stages) = e.get("stages").and_then(Json::as_obj) {
            let breakdown: Vec<String> = stages
                .iter()
                .filter_map(|(stage, us)| Some(format!("{stage}={}µs", us.as_u64()?)))
                .collect();
            if !breakdown.is_empty() {
                println!("            stages: {}", breakdown.join(" "));
            }
        }
    }
    Ok(())
}

fn builder_for_mode(mode: &str) -> Result<HopiBuilder, String> {
    match mode {
        "default" => Ok(Hopi::builder()),
        "flat" => Ok(Hopi::builder().partitioner(PartitionerChoice::Flat)),
        other => Err(format!("unknown --mode '{other}' (default|flat)")),
    }
}

/// `hopi build --dir DIR --out FILE [--mode default|flat]`
pub fn build(args: &[String]) -> Result<(), String> {
    let dir = flag_value(args, "--dir").ok_or("missing --dir DIR")?;
    let out = flag_value(args, "--out").ok_or("missing --out FILE")?;
    let mode = flag_value(args, "--mode").unwrap_or_else(|| "default".into());
    let collection = load_dir(&dir)?;
    let t = Instant::now();
    let hopi = builder_for_mode(&mode)?
        .build(collection)
        .map_err(|e| format!("build failed: {e}"))?;
    println!(
        "built: {} partitions, {} cover entries in {:?}",
        hopi.report().partitions,
        hopi.report().cover_size,
        t.elapsed()
    );
    let greedy = &hopi.report().greedy;
    println!(
        "greedy kernel: {} centers from {} center-graph evaluations ({} reinserted), \
         peels removed {} of {} offered vertices, degree passes read {} row words",
        greedy.centers,
        greedy.densest_evals,
        greedy.reinsertions,
        greedy.peel_removed,
        greedy.peel_offered,
        greedy.degree_words
    );
    hopi.save_frozen(Path::new(&out))
        .map_err(|e| format!("save failed: {e}"))?;
    println!("persisted frozen CSR cover to {out}");
    Ok(())
}

/// `hopi query --dir DIR --index FILE [--explain | --ranked [--k N]] EXPR`
///
/// Supports content-and-structure expressions (`//sec[contains(., "xml")]`,
/// `about(...)`). With `--ranked` the matches come back best-first with
/// their fused distance + BM25 score (needs a distance-aware index).
pub fn query(args: &[String]) -> Result<(), String> {
    let explain = args.iter().any(|a| a == "--explain");
    let ranked = args.iter().any(|a| a == "--ranked");
    if explain && ranked {
        return Err("--explain and --ranked are mutually exclusive".into());
    }
    // `--explain`/`--ranked` are bare switches; drop them before positional
    // parsing (which assumes every `--flag` carries a value).
    let args: Vec<String> = args
        .iter()
        .filter(|a| *a != "--explain" && *a != "--ranked")
        .cloned()
        .collect();
    let dir = flag_value(&args, "--dir").ok_or("missing --dir DIR")?;
    let index_path = flag_value(&args, "--index").ok_or("missing --index FILE")?;
    let k: Option<usize> = match flag_value(&args, "--k") {
        Some(raw) => Some(raw.parse().map_err(|e| format!("bad --k: {e}"))?),
        None => None,
    };
    let expr_src = positional(&args).ok_or("missing path expression")?;
    let collection = load_dir(&dir)?;
    let hopi =
        Hopi::open(collection, Path::new(&index_path)).map_err(|e| format!("load failed: {e}"))?;

    if ranked {
        let t = Instant::now();
        let mut matches = hopi.query_ranked(&expr_src).map_err(|e| format!("{e}"))?;
        if let Some(k) = k {
            matches.truncate(k);
        }
        let elapsed = t.elapsed();
        for m in &matches {
            println!(
                "{:8.4}  (distance {}, text {:.4})  {}",
                m.score(),
                m.distance,
                m.text_score,
                describe_element(hopi.collection(), m.element)?
            );
        }
        eprintln!("{} matches in {elapsed:?}", matches.len());
        return Ok(());
    }

    let t = Instant::now();
    let (result, report) = if explain {
        let (result, report) = hopi
            .query_explained(&expr_src)
            .map_err(|e| format!("{e}"))?;
        (result, Some(report))
    } else {
        (hopi.query(&expr_src).map_err(|e| format!("{e}"))?, None)
    };
    let elapsed = t.elapsed();
    for &e in &result {
        println!("{}", describe_element(hopi.collection(), e)?);
    }
    if let Some(report) = report {
        let parsed = hopi_query::parse_path(&expr_src).map_err(|e| format!("{e}"))?;
        eprint!("{}", report.render(&parsed));
    }
    eprintln!("{} matches in {elapsed:?}", result.len());
    Ok(())
}

/// `hopi serve --dir DIR [--index FILE] [--port N] [--threads N]
/// [--frozen] [--distance] [--wal STATEDIR] [--wal-sync group|per-op|none]
/// [--queue-capacity N] [--queue-deadline MS]`
///
/// Serves the collection over HTTP (see `hopi-server` for the endpoint
/// surface). With `--wal STATEDIR` the server runs durably: every
/// mutation is group-committed to `STATEDIR/wal.log` before it is
/// acknowledged, `POST /admin/checkpoint` snapshots the state atomically,
/// and on startup an existing checkpoint + WAL tail is recovered
/// (`--dir` then only seeds the very first boot). Blocks until stdin
/// reaches EOF or a `quit` line arrives — the CLI's shutdown signal —
/// then drains in-flight requests and exits.
pub fn serve(args: &[String]) -> Result<(), String> {
    use hopi_build::{DurableConfig, OnlineHopi, SyncPolicy};
    use hopi_server::ServerConfig;
    use std::io::BufRead;
    use std::io::Write as _;

    // --dir is the bootstrap source; a --wal directory that already holds
    // a checkpoint recovers without it, so only require it when used.
    let dir = flag_value(args, "--dir");
    let require_dir =
        || -> Result<String, String> { dir.clone().ok_or_else(|| "missing --dir DIR".into()) };
    let port: u16 = flag_value(args, "--port")
        .unwrap_or_else(|| "7070".into())
        .parse()
        .map_err(|e| format!("bad --port: {e}"))?;
    let threads: usize = flag_value(args, "--threads")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|e| format!("bad --threads: {e}"))?;
    let frozen = args.iter().any(|a| a == "--frozen");
    let distance = args.iter().any(|a| a == "--distance");
    // Milliseconds on the flag (human-facing), micros internally.
    let slow_threshold_micros: u64 = match flag_value(args, "--slow-threshold") {
        Some(ms) => ms
            .parse::<u64>()
            .map(|ms| ms.saturating_mul(1000))
            .map_err(|e| format!("bad --slow-threshold (milliseconds): {e}"))?,
        None => hopi_server::DEFAULT_SLOW_THRESHOLD_MICROS,
    };
    let queue_capacity: usize = flag_value(args, "--queue-capacity")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|e| format!("bad --queue-capacity: {e}"))?;
    let queue_deadline_millis: u64 = flag_value(args, "--queue-deadline")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|e| format!("bad --queue-deadline (milliseconds): {e}"))?;
    let wal_dir = flag_value(args, "--wal");
    let wal_sync = match flag_value(args, "--wal-sync").as_deref() {
        None | Some("group") => SyncPolicy::GroupCommit,
        Some("per-op") => SyncPolicy::PerOp,
        Some("none") => SyncPolicy::Never,
        Some(other) => return Err(format!("unknown --wal-sync '{other}' (group|per-op|none)")),
    };

    let builder = Hopi::builder().distance_aware(distance);
    let online = match wal_dir {
        Some(state_dir) => {
            let config = DurableConfig::new(&state_dir).policy(wal_sync);
            let recovering = hopi_build::is_durable_dir(Path::new(&state_dir));
            let t = Instant::now();
            let index = flag_value(args, "--index");
            let online = if recovering {
                // The checkpoint + WAL win over --dir/--index.
                if index.is_some() {
                    eprintln!("note: --index is ignored; recovering from the durable state dir");
                }
                OnlineHopi::open_durable(&config, builder, None)
            } else {
                // First boot: seed from the XML directory, through the
                // prebuilt index when one is given.
                let collection = load_dir(&require_dir()?)?;
                match index {
                    Some(index_path) => {
                        let hopi = builder
                            .open(collection, Path::new(&index_path))
                            .map_err(|e| format!("load failed: {e}"))?;
                        OnlineHopi::bootstrap_durable(&config, hopi)
                    }
                    None => OnlineHopi::open_durable(&config, builder, Some(collection)),
                }
            }
            .map_err(|e| format!("durable open failed: {e}"))?;
            let stats = online.read(|h| h.stats());
            let wal = online.wal_stats().expect("durable engine has WAL stats");
            eprintln!(
                "{} durable state in {state_dir}: {} docs, {} cover entries, \
                 WAL seq {} (checkpoint at {}) in {:?}",
                if recovering {
                    "recovered"
                } else {
                    "initialized"
                },
                stats.documents,
                stats.cover_entries,
                wal.appended_seq,
                wal.last_checkpoint_seq,
                t.elapsed()
            );
            online
        }
        None => {
            let collection = load_dir(&require_dir()?)?;
            let hopi = match flag_value(args, "--index") {
                Some(index_path) => builder
                    .open(collection, Path::new(&index_path))
                    .map_err(|e| format!("load failed: {e}"))?,
                None => {
                    let t = Instant::now();
                    let built = builder
                        .build(collection)
                        .map_err(|e| format!("build failed: {e}"))?;
                    eprintln!(
                        "built {} cover entries in {:?} (pass --index FILE to skip this)",
                        built.report().cover_size,
                        t.elapsed()
                    );
                    built
                }
            };
            OnlineHopi::new(hopi)
        }
    };

    let durable = online.is_durable();
    let handle = hopi_server::serve(
        online,
        ServerConfig {
            addr: std::net::SocketAddr::from(([127, 0, 0, 1], port)),
            threads,
            read_only: frozen,
            slow_threshold_micros,
            queue_capacity,
            queue_deadline_millis,
        },
    )
    .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?;
    println!("hopi-server listening on http://{}", handle.addr());
    println!(
        "  {} worker threads, {}{}; endpoints: /healthz /stats /metrics /debug/slow \
         /connected /connected_many /distance /descendants /ancestors /query /documents \
         /links /admin/rebuild /admin/save /admin/checkpoint",
        handle.state().workers,
        if frozen {
            "frozen (read-only)"
        } else {
            "read-write"
        },
        if durable { ", durable (WAL)" } else { "" },
    );
    println!("  close stdin or type 'quit' for graceful shutdown");
    std::io::stdout().flush().ok();

    // Block on the shutdown signal: stdin EOF (the supervisor closed the
    // pipe) or an explicit `quit` line.
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
        }
    }
    if durable {
        // Graceful exit: checkpoint so the next boot skips WAL replay. A
        // kill -9 skips this — recovery replays the log instead.
        match handle.state().engine.checkpoint() {
            Ok(ck) => println!("checkpointed at WAL seq {}", ck.seq),
            Err(e) => eprintln!("checkpoint on shutdown failed: {e}"),
        }
    }
    handle.shutdown();
    println!("shut down cleanly");
    Ok(())
}

/// `hopi check --dir DIR --index FILE [--samples N]`
pub fn check(args: &[String]) -> Result<(), String> {
    use rand::prelude::*;
    let dir = flag_value(args, "--dir").ok_or("missing --dir DIR")?;
    let index_path = flag_value(args, "--index").ok_or("missing --index FILE")?;
    let samples: usize = flag_value(args, "--samples")
        .unwrap_or_else(|| "10000".into())
        .parse()
        .map_err(|e| format!("bad --samples: {e}"))?;
    let collection = load_dir(&dir)?;
    let hopi =
        Hopi::open(collection, Path::new(&index_path)).map_err(|e| format!("load failed: {e}"))?;
    let graph = hopi.collection().element_graph();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc4ec);
    let n = graph.id_bound() as u32;
    for i in 0..samples {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let expect = hopi_graph::traversal::is_reachable(&graph, u, v);
        if hopi.connected(u, v) != expect {
            return Err(format!(
                "MISMATCH on pair ({u}, {v}) after {i} checks: index says {}, graph says {expect}",
                hopi.connected(u, v)
            ));
        }
    }
    println!("OK: {samples} sampled pairs agree with the BFS oracle");
    Ok(())
}
