//! HTTP serving throughput: the `hopi-server` subsystem under loopback
//! load, on an INEX-shaped linked collection.
//!
//! Workloads, each on 1 and N keep-alive client threads:
//!
//! * `probe` — point reachability requests (`GET /connected?u=&v=`), one
//!   HTTP round trip per probe;
//! * `probe_batch` — batched probes (`POST /connected_many`, 128 pairs
//!   per request), amortizing HTTP framing over the §3.4-style batched
//!   join kernel;
//! * `stats` — the observability path (`GET /stats`).
//!
//! Emits `BENCH_server.json`, so the HTTP layer's throughput is tracked
//! per-PR (the benchmark's `query-inex` workload measures the same reads
//! in process). The smoke acceptance floor is ≥ 10k point-probe
//! requests/s.
//!
//! ```sh
//! cargo run -p hopi-bench --release --bin server_throughput \
//!     [--scale 0.004] [--threads N] [--smoke] [--out BENCH_server.json] \
//!     [--metrics-out metrics.prom]
//! ```

use hopi_bench::{add_cross_links, flag_arg, inex_collection, scale_arg, thread_ladder};
use hopi_build::{Hopi, OnlineHopi};
use hopi_obs::{Histogram, HistogramSnapshot, Stopwatch};
use hopi_server::{serve, Client, ServerConfig};
use rand::prelude::*;
use std::net::SocketAddr;
use std::time::Instant;

/// Pairs per `POST /connected_many` request.
const BATCH: usize = 128;

/// One measured cell.
struct Sample {
    workload: &'static str,
    clients: usize,
    requests: usize,
    probes: usize,
    elapsed_ms: f64,
    /// Per-request round-trip latency across all client threads.
    latency: HistogramSnapshot,
}

impl Sample {
    fn rps(&self) -> f64 {
        self.requests as f64 / (self.elapsed_ms / 1000.0).max(1e-9)
    }
    fn probes_per_s(&self) -> f64 {
        self.probes as f64 / (self.elapsed_ms / 1000.0).max(1e-9)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = scale_arg(if smoke { 0.0006 } else { 0.004 });
    let out_path = flag_arg(&args, "--out").unwrap_or_else(|| "BENCH_server.json".into());
    let client_threads: usize = flag_arg(&args, "--threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get().min(4))
                .unwrap_or(4)
        });

    let mut collection = inex_collection(scale);
    add_cross_links(&mut collection);
    let hopi = Hopi::build(collection).expect("valid generated collection");
    let stats = hopi.stats();
    eprintln!(
        "server_throughput — INEX-like @ scale {scale}: {} docs, {} elements, {} links, \
         {} cover entries; {client_threads} client threads",
        stats.documents, stats.elements, stats.links, stats.cover_entries
    );

    let n = stats.elements as u32;
    let mut rng = StdRng::seed_from_u64(0xbe7c);
    let pairs: Vec<(u32, u32)> = (0..4096)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();

    // Pre-render request targets/bodies so client threads measure the
    // server, not client-side formatting.
    let point_paths: Vec<String> = pairs
        .iter()
        .map(|(u, v)| format!("/connected?u={u}&v={v}"))
        .collect();
    let batch_bodies: Vec<String> = pairs
        .chunks(BATCH)
        .map(|chunk| {
            let items: Vec<String> = chunk.iter().map(|(u, v)| format!("[{u},{v}]")).collect();
            format!("{{\"pairs\":[{}]}}", items.join(","))
        })
        .collect();

    let handle = serve(
        OnlineHopi::new(hopi),
        ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            threads: client_threads.max(2),
            read_only: false,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    let (point_rounds, batch_rounds, stats_requests) =
        if smoke { (2, 8, 500) } else { (20, 80, 5000) };

    let mut samples: Vec<Sample> = Vec::new();
    for &clients in &thread_ladder(client_threads) {
        samples.push(run(
            "probe",
            clients,
            point_rounds * point_paths.len(),
            point_rounds * point_paths.len(),
            addr,
            |client, lat| {
                for _ in 0..point_rounds {
                    for path in &point_paths {
                        let sw = Stopwatch::start();
                        let resp = client.get(path).expect("probe request");
                        lat.record_micros(sw.elapsed_micros());
                        assert_eq!(resp.status, 200, "{}", resp.body);
                    }
                }
            },
        ));
        samples.push(run(
            "probe_batch",
            clients,
            batch_rounds * batch_bodies.len(),
            batch_rounds * batch_bodies.len() * BATCH,
            addr,
            |client, lat| {
                for _ in 0..batch_rounds {
                    for body in &batch_bodies {
                        let sw = Stopwatch::start();
                        let resp = client
                            .request("POST", "/connected_many", body)
                            .expect("batch request");
                        lat.record_micros(sw.elapsed_micros());
                        assert_eq!(resp.status, 200, "{}", resp.body);
                    }
                }
            },
        ));
        samples.push(run(
            "stats",
            clients,
            stats_requests,
            0,
            addr,
            |client, lat| {
                for _ in 0..stats_requests {
                    let sw = Stopwatch::start();
                    let resp = client.get("/stats").expect("stats request");
                    lat.record_micros(sw.elapsed_micros());
                    assert_eq!(resp.status, 200, "{}", resp.body);
                }
            },
        ));
    }

    // Optionally scrape the server's own /metrics exposition (the CI
    // smoke run parses it with the check_metrics bin and archives it
    // next to BENCH_server.json).
    if let Some(metrics_out) = flag_arg(&args, "--metrics-out") {
        let mut client = Client::connect(addr).expect("metrics client");
        let resp = client.get("/metrics").expect("metrics scrape");
        assert_eq!(resp.status, 200, "{}", resp.body);
        std::fs::write(&metrics_out, &resp.body).expect("write metrics scrape");
        eprintln!("wrote {metrics_out}");
    }

    handle.shutdown();

    let json = render_json(scale, smoke, &stats, client_threads, &samples);
    std::fs::write(&out_path, &json).expect("write BENCH_server.json");
    eprintln!("wrote {out_path}");
    print_table(&samples);

    let point_peak = samples
        .iter()
        .filter(|s| s.workload == "probe")
        .map(Sample::rps)
        .fold(0.0f64, f64::max);
    eprintln!("peak point-probe rate: {point_peak:.0} requests/s");
    assert!(
        point_peak >= 10_000.0,
        "acceptance floor: expected >= 10k probe requests/s, got {point_peak:.0}"
    );
}

/// Runs `script` on `clients` threads, each over its own keep-alive
/// connection; `requests`/`probes` are per-thread counts (totals are
/// aggregate across threads).
fn run<F>(
    workload: &'static str,
    clients: usize,
    requests: usize,
    probes: usize,
    addr: SocketAddr,
    script: F,
) -> Sample
where
    F: Fn(&mut Client, &Histogram) + Sync,
{
    // One shared lock-free histogram: every client thread records each
    // request's round-trip latency into it as it goes.
    let latency = Histogram::new();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("client connects");
                    script(&mut client, &latency);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1000.0;
    Sample {
        workload,
        clients,
        requests: requests * clients,
        probes: probes * clients,
        elapsed_ms,
        latency: latency.snapshot(),
    }
}

fn render_json(
    scale: f64,
    smoke: bool,
    stats: &hopi_build::Stats,
    client_threads: usize,
    samples: &[Sample],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"collection\": {{\"kind\": \"inex-linked\", \"scale\": {scale}, \
         \"documents\": {}, \"elements\": {}, \"links\": {}, \"cover_entries\": {}}},\n",
        stats.documents, stats.elements, stats.links, stats.cover_entries
    ));
    s.push_str(&format!(
        "  \"smoke\": {smoke},\n  \"client_threads\": {client_threads},\n  \"results\": [\n"
    ));
    for (i, r) in samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"{}\", \"clients\": {}, \"requests\": {}, \
             \"probes\": {}, \"elapsed_ms\": {:.3}, \"rps\": {:.1}, \"probes_per_s\": {:.1}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"mean_us\": {:.1}}}{}\n",
            r.workload,
            r.clients,
            r.requests,
            r.probes,
            r.elapsed_ms,
            r.rps(),
            r.probes_per_s(),
            r.latency.quantile_micros(0.50),
            r.latency.quantile_micros(0.95),
            r.latency.quantile_micros(0.99),
            r.latency.mean_micros(),
            if i + 1 == samples.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn print_table(samples: &[Sample]) {
    let t = hopi_bench::TablePrinter::new(&[
        ("workload", 12),
        ("clients", 7),
        ("requests", 10),
        ("ms", 10),
        ("req/s", 12),
        ("probes/s", 12),
        ("p50µs", 8),
        ("p99µs", 8),
    ]);
    for r in samples {
        t.row(&[
            r.workload.into(),
            r.clients.to_string(),
            r.requests.to_string(),
            format!("{:.1}", r.elapsed_ms),
            format!("{:.0}", r.rps()),
            format!("{:.0}", r.probes_per_s()),
            r.latency.quantile_micros(0.50).to_string(),
            r.latency.quantile_micros(0.99).to_string(),
        ]);
    }
}
