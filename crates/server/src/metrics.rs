//! Per-endpoint serving metrics, exposed at `GET /metrics`.
//!
//! Every handled request bumps one [`EndpointMetrics`] cell: request count,
//! error count (any non-2xx status), and a full latency *distribution*
//! ([`hopi_obs::Histogram`]) — p50/p95/p99 are derivable from a single
//! scrape, not just the mean. A shared [`StageRegistry`] breaks request
//! time down by serve-loop stage ([`STAGES`]). Everything is relaxed
//! atomics: scrapes may be a hair stale but never torn, and the hot path
//! pays a handful of `fetch_add`s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use hopi_build::{MaintenanceStats, PlanCounts, PublishTotals, WalHistograms};
use hopi_obs::{Histogram, HistogramSnapshot, StageRegistry};

/// The fixed endpoint universe (one counter cell each; unknown paths land
/// in `Other`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /stats`
    Stats,
    /// `GET /metrics`
    Metrics,
    /// `GET /connected`
    Connected,
    /// `POST /connected_many`
    ConnectedMany,
    /// `GET /distance`
    Distance,
    /// `GET /descendants`
    Descendants,
    /// `GET /ancestors`
    Ancestors,
    /// `GET /query`
    Query,
    /// `POST /documents`
    InsertDocument,
    /// `DELETE /documents/{id}`
    DeleteDocument,
    /// `POST /links`
    InsertLink,
    /// `DELETE /links`
    DeleteLink,
    /// `POST /admin/rebuild`
    AdminRebuild,
    /// `POST /admin/save`
    AdminSave,
    /// `POST /admin/checkpoint`
    AdminCheckpoint,
    /// `GET /debug/slow`
    DebugSlow,
    /// Anything else (404s, bad methods, parse failures).
    Other,
}

/// All endpoints, in `/metrics` exposition order.
pub const ALL_ENDPOINTS: [Endpoint; 18] = [
    Endpoint::Healthz,
    Endpoint::Stats,
    Endpoint::Metrics,
    Endpoint::Connected,
    Endpoint::ConnectedMany,
    Endpoint::Distance,
    Endpoint::Descendants,
    Endpoint::Ancestors,
    Endpoint::Query,
    Endpoint::InsertDocument,
    Endpoint::DeleteDocument,
    Endpoint::InsertLink,
    Endpoint::DeleteLink,
    Endpoint::AdminRebuild,
    Endpoint::AdminSave,
    Endpoint::AdminCheckpoint,
    Endpoint::DebugSlow,
    Endpoint::Other,
];

/// The per-request stage taxonomy recorded by the serve loop: socket
/// read, routing + handler dispatch, engine evaluation, response body
/// serialization, socket write. `Trace` stages outside this fixed set
/// still appear in the slow-query log, just not as `/metrics` series.
pub const STAGES: [&str; 5] = ["read", "route", "eval", "serialize", "write"];

impl Endpoint {
    /// The label used in the `/metrics` exposition.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Stats => "stats",
            Endpoint::Metrics => "metrics",
            Endpoint::Connected => "connected",
            Endpoint::ConnectedMany => "connected_many",
            Endpoint::Distance => "distance",
            Endpoint::Descendants => "descendants",
            Endpoint::Ancestors => "ancestors",
            Endpoint::Query => "query",
            Endpoint::InsertDocument => "insert_document",
            Endpoint::DeleteDocument => "delete_document",
            Endpoint::InsertLink => "insert_link",
            Endpoint::DeleteLink => "delete_link",
            Endpoint::AdminRebuild => "admin_rebuild",
            Endpoint::AdminSave => "admin_save",
            Endpoint::AdminCheckpoint => "admin_checkpoint",
            Endpoint::DebugSlow => "debug_slow",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        // Falls back to the trailing `Other` slot — ALL_ENDPOINTS is
        // exhaustive, but miscounting metrics beats panicking a worker.
        ALL_ENDPOINTS
            .iter()
            .position(|&e| e == self)
            .unwrap_or(ALL_ENDPOINTS.len() - 1)
    }
}

/// Term-index gauges rendered at `/metrics`, sampled from the current
/// snapshot at scrape time.
#[derive(Clone, Copy, Debug, Default)]
pub struct TextGauges {
    /// Distinct terms in the vocabulary.
    pub vocabulary: u64,
    /// Total (element, term) postings.
    pub postings: u64,
    /// Bytes held by the frozen posting buffers.
    pub postings_bytes: u64,
}

/// One endpoint's counters and latency distribution.
#[derive(Debug, Default)]
pub struct EndpointMetrics {
    /// Requests handled.
    pub requests: AtomicU64,
    /// Requests answered with a non-2xx status.
    pub errors: AtomicU64,
    /// Full handling-latency distribution.
    pub latency: Histogram,
}

/// One endpoint's latency digest, served in the `GET /stats` JSON.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    /// The endpoint's `/metrics` label.
    pub endpoint: &'static str,
    /// Requests handled.
    pub count: u64,
    /// Requests answered with a non-2xx status.
    pub errors: u64,
    /// Mean handling latency, microseconds.
    pub mean_micros: f64,
    /// Median handling latency, microseconds (bucket upper bound).
    pub p50_micros: u64,
    /// 95th-percentile handling latency, microseconds.
    pub p95_micros: u64,
    /// 99th-percentile handling latency, microseconds.
    pub p99_micros: u64,
}

/// The server-wide metrics registry.
#[derive(Debug)]
pub struct Metrics {
    cells: [EndpointMetrics; ALL_ENDPOINTS.len()],
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections shed by admission control (accept queue full, or the
    /// queue wait blew the deadline) — each was answered `429` without
    /// reaching a handler.
    pub shed: AtomicU64,
    /// Per-stage latency breakdown across all requests ([`STAGES`]).
    pub stages: StageRegistry,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            cells: Default::default(),
            connections: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            stages: StageRegistry::new(&STAGES),
        }
    }
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one handled request.
    pub fn record(&self, endpoint: Endpoint, status: u16, elapsed: Duration) {
        let cell = &self.cells[endpoint.index()];
        cell.requests.fetch_add(1, Ordering::Relaxed);
        if !(200..300).contains(&status) {
            cell.errors.fetch_add(1, Ordering::Relaxed);
        }
        cell.latency.record(elapsed);
    }

    /// Latency digests for every endpoint that has seen traffic,
    /// in exposition order.
    pub fn latency_summaries(&self) -> Vec<LatencySummary> {
        ALL_ENDPOINTS
            .iter()
            .filter_map(|&e| {
                let cell = self.endpoint(e);
                let snap = cell.latency.snapshot();
                if snap.is_empty() {
                    return None;
                }
                Some(LatencySummary {
                    endpoint: e.label(),
                    count: snap.count(),
                    errors: cell.errors.load(Ordering::Relaxed),
                    mean_micros: snap.mean_micros(),
                    p50_micros: snap.quantile_micros(0.50),
                    p95_micros: snap.quantile_micros(0.95),
                    p99_micros: snap.quantile_micros(0.99),
                })
            })
            .collect()
    }

    /// One endpoint's counters.
    pub fn endpoint(&self, endpoint: Endpoint) -> &EndpointMetrics {
        &self.cells[endpoint.index()]
    }

    /// Total requests across all endpoints.
    pub fn total_requests(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.requests.load(Ordering::Relaxed))
            .sum()
    }

    /// Renders the Prometheus-style text exposition served at `/metrics`.
    pub fn render(&self, ctx: &RenderContext<'_>) -> String {
        let mut out = String::with_capacity(16 * 1024);
        out.push_str("# TYPE hopi_build_info gauge\n");
        out.push_str(&format!(
            "hopi_build_info{{version=\"{}\",store_format=\"{}\"}} 1\n",
            ctx.version, ctx.store_format
        ));
        out.push_str("# TYPE hopi_requests_total counter\n");
        for e in ALL_ENDPOINTS {
            let c = self.endpoint(e);
            out.push_str(&format!(
                "hopi_requests_total{{endpoint=\"{}\"}} {}\n",
                e.label(),
                c.requests.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# TYPE hopi_request_errors_total counter\n");
        for e in ALL_ENDPOINTS {
            let c = self.endpoint(e);
            out.push_str(&format!(
                "hopi_request_errors_total{{endpoint=\"{}\"}} {}\n",
                e.label(),
                c.errors.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# TYPE hopi_request_duration_seconds histogram\n");
        for e in ALL_ENDPOINTS {
            self.endpoint(e).latency.snapshot().render_prometheus(
                "hopi_request_duration_seconds",
                &format!("endpoint=\"{}\"", e.label()),
                &mut out,
            );
        }
        out.push_str("# TYPE hopi_stage_duration_seconds histogram\n");
        for (stage, hist) in self.stages.iter() {
            hist.snapshot().render_prometheus(
                "hopi_stage_duration_seconds",
                &format!("stage=\"{stage}\""),
                &mut out,
            );
        }
        if let Some(wal) = &ctx.wal {
            out.push_str("# TYPE hopi_wal_fsync_duration_seconds histogram\n");
            wal.fsync
                .render_prometheus("hopi_wal_fsync_duration_seconds", "", &mut out);
            out.push_str("# TYPE hopi_wal_group_commit_batch_records histogram\n");
            wal.batch
                .render_prometheus_raw("hopi_wal_group_commit_batch_records", "", &mut out);
        }
        out.push_str("# TYPE hopi_publish_duration_seconds histogram\n");
        ctx.publish
            .duration
            .render_prometheus("hopi_publish_duration_seconds", "", &mut out);
        out.push_str("# TYPE hopi_publish_total counter\n");
        for (kind, count) in [("patched", ctx.publish.patched), ("full", ctx.publish.full)] {
            out.push_str(&format!("hopi_publish_total{{kind=\"{kind}\"}} {count}\n"));
        }
        out.push_str("# TYPE hopi_publish_rows_patched_total counter\n");
        out.push_str(&format!(
            "hopi_publish_rows_patched_total {}\n",
            ctx.publish.rows_patched
        ));
        out.push_str("# TYPE hopi_cover_drift_ratio gauge\n");
        out.push_str(&format!("hopi_cover_drift_ratio {:.4}\n", ctx.drift_ratio));
        out.push_str("# TYPE hopi_link_integrations_total counter\n");
        for (choice, count) in ctx.maintenance.integrations.as_labeled() {
            out.push_str(&format!(
                "hopi_link_integrations_total{{choice=\"{choice}\"}} {count}\n"
            ));
        }
        out.push_str("# TYPE hopi_deletions_total counter\n");
        for (algorithm, count) in ctx.maintenance.deletions.as_labeled() {
            out.push_str(&format!(
                "hopi_deletions_total{{algorithm=\"{algorithm}\"}} {count}\n"
            ));
        }
        out.push_str("# TYPE hopi_recomputed_connections_total counter\n");
        out.push_str(&format!(
            "hopi_recomputed_connections_total {}\n",
            ctx.maintenance.deletions.recomputed_connections
        ));
        // A net change per operation kind, signed (deletions remove
        // entries), hence a gauge despite the `_total` name.
        out.push_str("# TYPE hopi_cover_entries_added_total gauge\n");
        for (op, net) in ctx.maintenance.entries_added.as_labeled() {
            out.push_str(&format!(
                "hopi_cover_entries_added_total{{op=\"{op}\"}} {net}\n"
            ));
        }
        out.push_str("# TYPE hopi_maintenance_duration_seconds histogram\n");
        for (op, hist) in ctx.maintenance_durations {
            hist.render_prometheus(
                "hopi_maintenance_duration_seconds",
                &format!("op=\"{op}\""),
                &mut out,
            );
        }
        out.push_str("# TYPE hopi_connections_total counter\n");
        out.push_str(&format!(
            "hopi_connections_total {}\n",
            self.connections.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE hopi_requests_shed_total counter\n");
        out.push_str(&format!(
            "hopi_requests_shed_total {}\n",
            self.shed.load(Ordering::Relaxed)
        ));
        out.push_str("# TYPE hopi_query_plan_total counter\n");
        for (label, count) in ctx.plan.as_labeled() {
            out.push_str(&format!(
                "hopi_query_plan_total{{strategy=\"{label}\"}} {count}\n"
            ));
        }
        out.push_str("# TYPE hopi_query_backward_fallbacks_total counter\n");
        out.push_str(&format!(
            "hopi_query_backward_fallbacks_total {}\n",
            ctx.plan.backward_fallbacks
        ));
        out.push_str("# TYPE hopi_rebuild_phase_ms gauge\n");
        for (phase, ms) in ctx.build_phases {
            out.push_str(&format!(
                "hopi_rebuild_phase_ms{{phase=\"{phase}\"}} {ms}\n"
            ));
        }
        let text = ctx.text;
        out.push_str("# TYPE hopi_text_vocabulary gauge\n");
        out.push_str(&format!("hopi_text_vocabulary {}\n", text.vocabulary));
        out.push_str("# TYPE hopi_text_postings gauge\n");
        out.push_str(&format!("hopi_text_postings {}\n", text.postings));
        out.push_str("# TYPE hopi_text_postings_bytes gauge\n");
        out.push_str(&format!(
            "hopi_text_postings_bytes {}\n",
            text.postings_bytes
        ));
        out.push_str("# TYPE hopi_text_bytes_per_posting gauge\n");
        out.push_str(&format!(
            "hopi_text_bytes_per_posting {:.2}\n",
            text.postings_bytes as f64 / text.postings.max(1) as f64
        ));
        out.push_str("# TYPE hopi_snapshot_epoch gauge\n");
        out.push_str(&format!("hopi_snapshot_epoch {}\n", ctx.epoch));
        out.push_str("# TYPE hopi_uptime_seconds gauge\n");
        out.push_str(&format!(
            "hopi_uptime_seconds {:.3}\n",
            ctx.uptime.as_secs_f64()
        ));
        out.push_str("# TYPE hopi_worker_threads gauge\n");
        out.push_str(&format!("hopi_worker_threads {}\n", ctx.workers));
        out
    }
}

/// Everything `/metrics` renders besides the registry itself, sampled
/// by the handler at scrape time.
#[derive(Debug)]
pub struct RenderContext<'a> {
    /// Current snapshot epoch.
    pub epoch: u64,
    /// Time since the server started.
    pub uptime: Duration,
    /// Worker threads serving connections.
    pub workers: usize,
    /// `//`-step execution totals per strategy whose rows a step
    /// returned, and the backward joins that fell back.
    pub plan: PlanCounts,
    /// Term-index sizes from the current snapshot.
    pub text: TextGauges,
    /// Wall time per phase of the build behind the current snapshot,
    /// `(phase, milliseconds)`.
    pub build_phases: &'a [(&'static str, u64)],
    /// WAL durability distributions (durable mode only).
    pub wal: Option<WalHistograms>,
    /// Snapshot-publish cost: capture-time distribution, patched vs full
    /// freezes, rows patched.
    pub publish: PublishTotals,
    /// The serving cover's drift against the last build, across restarts
    /// (see `hopi_maintenance::Degradation::drift_ratio`).
    pub drift_ratio: f64,
    /// §6 counters: link integrations by choice, deletions by algorithm,
    /// net entries per operation kind.
    pub maintenance: MaintenanceStats,
    /// Wall time of the §6 maintenance calls, `(op, distribution)`.
    pub maintenance_durations: &'a [(&'static str, HistogramSnapshot)],
    /// Server crate version for `hopi_build_info`.
    pub version: &'a str,
    /// On-disk store format version for `hopi_build_info`.
    pub store_format: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let m = Metrics::new();
        m.record(Endpoint::Connected, 200, Duration::from_micros(120));
        m.record(Endpoint::Connected, 200, Duration::from_micros(80));
        m.record(Endpoint::Query, 400, Duration::from_micros(10));
        m.stages.record_micros("eval", 50);
        assert_eq!(
            m.endpoint(Endpoint::Connected)
                .requests
                .load(Ordering::Relaxed),
            2
        );
        assert_eq!(
            m.endpoint(Endpoint::Connected)
                .errors
                .load(Ordering::Relaxed),
            0
        );
        assert_eq!(m.endpoint(Endpoint::Connected).latency.count(), 2);
        assert_eq!(
            m.endpoint(Endpoint::Query).errors.load(Ordering::Relaxed),
            1
        );
        assert_eq!(m.total_requests(), 3);

        let summaries = m.latency_summaries();
        assert_eq!(summaries.len(), 2, "only endpoints with traffic appear");
        let conn = summaries
            .iter()
            .find(|s| s.endpoint == "connected")
            .expect("connected summary");
        assert_eq!(conn.count, 2);
        assert_eq!(conn.errors, 0);
        assert!(conn.p50_micros >= 80 && conn.p50_micros <= 100);
        assert!(conn.p99_micros >= 120);

        let text = m.render(&RenderContext {
            epoch: 7,
            uptime: Duration::from_secs(2),
            workers: 4,
            plan: PlanCounts {
                forward_hop_join: 9,
                pairwise_probe: 1,
                backward_fallbacks: 2,
                ..Default::default()
            },
            text: TextGauges {
                vocabulary: 12,
                postings: 30,
                postings_bytes: 240,
            },
            build_phases: &[("partition", 3), ("freeze", 1)],
            wal: None,
            publish: PublishTotals {
                duration: {
                    let h = Histogram::default();
                    h.record_micros(180);
                    h.snapshot()
                },
                patched: 5,
                full: 1,
                rows_patched: 40,
            },
            drift_ratio: 1.5,
            maintenance: MaintenanceStats {
                integrations: hopi_maintenance::IntegrationCounts {
                    lout_copy: 3,
                    noop: 1,
                    ..Default::default()
                },
                deletions: hopi_maintenance::DeletionCounts {
                    general: 2,
                    recomputed_connections: 57,
                    ..Default::default()
                },
                entries_added: hopi_maintenance::EntriesAdded {
                    insert_link: 12,
                    delete_general: -4,
                    ..Default::default()
                },
                ..Default::default()
            },
            maintenance_durations: &[
                ("insert_link", HistogramSnapshot::default()),
                ("delete_general", {
                    let h = Histogram::default();
                    h.record_micros(2_500);
                    h.snapshot()
                }),
            ],
            version: "0.2.0",
            store_format: 3,
        });
        assert!(text.contains("hopi_build_info{version=\"0.2.0\",store_format=\"3\"} 1"));
        assert!(text.contains("hopi_requests_total{endpoint=\"connected\"} 2"));
        assert!(text.contains("hopi_request_errors_total{endpoint=\"query\"} 1"));
        assert!(text.contains("hopi_request_duration_seconds_bucket{endpoint=\"connected\",le="));
        assert!(text.contains("hopi_request_duration_seconds_count{endpoint=\"connected\"} 2"));
        // Idle endpoints still emit the +Inf bucket so series exist.
        assert!(
            text.contains("hopi_request_duration_seconds_bucket{endpoint=\"other\",le=\"+Inf\"} 0")
        );
        assert!(text.contains("hopi_stage_duration_seconds_count{stage=\"eval\"} 1"));
        assert!(text.contains("hopi_query_plan_total{strategy=\"forward_hop_join\"} 9"));
        assert!(text.contains("hopi_query_backward_fallbacks_total 2"));
        assert!(text.contains("hopi_rebuild_phase_ms{phase=\"partition\"} 3"));
        assert!(text.contains("hopi_text_vocabulary 12"));
        assert!(text.contains("hopi_text_postings 30"));
        assert!(text.contains("hopi_text_postings_bytes 240"));
        assert!(text.contains("hopi_text_bytes_per_posting 8.00"));
        assert!(text.contains("hopi_requests_shed_total 0"));
        assert!(text.contains("hopi_publish_duration_seconds_count 1"));
        assert!(text.contains("hopi_publish_total{kind=\"patched\"} 5"));
        assert!(text.contains("hopi_publish_total{kind=\"full\"} 1"));
        assert!(text.contains("hopi_publish_rows_patched_total 40"));
        assert!(text.contains("hopi_cover_drift_ratio 1.5000"));
        assert!(text.contains("hopi_link_integrations_total{choice=\"lout_copy\"} 3"));
        assert!(text.contains("hopi_link_integrations_total{choice=\"center\"} 0"));
        assert!(text.contains("hopi_link_integrations_total{choice=\"noop\"} 1"));
        assert!(text.contains("hopi_deletions_total{algorithm=\"separator\"} 0"));
        assert!(text.contains("hopi_deletions_total{algorithm=\"general\"} 2"));
        assert!(text.contains("hopi_recomputed_connections_total 57"));
        assert!(text.contains("hopi_cover_entries_added_total{op=\"insert_link\"} 12"));
        assert!(text.contains("hopi_cover_entries_added_total{op=\"delete_general\"} -4"));
        assert!(text.contains("# TYPE hopi_maintenance_duration_seconds histogram"));
        assert!(text.contains("hopi_maintenance_duration_seconds_count{op=\"delete_general\"} 1"));
        assert!(
            text.contains("hopi_maintenance_duration_seconds_sum{op=\"delete_general\"} 0.0025")
        );
        assert!(text.contains(
            "hopi_maintenance_duration_seconds_bucket{op=\"insert_link\",le=\"+Inf\"} 0"
        ));
        assert!(text.contains("hopi_snapshot_epoch 7"));
        assert!(text.contains("hopi_worker_threads 4"));
        assert!(
            !text.contains("hopi_wal_fsync"),
            "no WAL panel without durable mode"
        );
    }
}
