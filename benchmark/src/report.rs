//! The metric catalogue and the run report.
//!
//! `BENCHMARK.json` lists exactly the names below (the smoke test checks
//! the two against each other). A run with `--trace 0` reports every
//! end-to-end metric; a run with `--trace 1` reports every per-layer
//! metric, 0 where the workload does not exercise the layer.

use crate::oracle::Tally;
use crate::stats::{self, Digest};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, measured on every workload
/// through that workload's own access path (see README.md).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cover_entries", "entries"),
    ("probe_us", "us"),
    ("enum_us", "us"),
    ("path_qps", "1/s"),
    ("text_qps", "1/s"),
    ("write_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric; the prefix is the layer
/// (= crate) the number belongs to.
pub const PER_LAYER: [(&str, &str); 96] = [
    ("xml.generate_ms", "ms"),
    ("xml.parse_doc_us", "us"),
    ("graph.closure_ms", "ms"),
    ("graph.closure_connections", "count"),
    ("core.covers_ms", "ms"),
    ("core.cover_build_ms", "ms"),
    ("core.freeze_ms", "ms"),
    ("core.entries_per_element", "ratio"),
    ("core.lin_entries", "entries"),
    ("core.lout_entries", "entries"),
    ("core.frozen_probe_ns", "ns"),
    ("core.mutable_probe_ns", "ns"),
    ("core.probe_many_ns", "ns"),
    ("core.probe_hit_rate", "ratio"),
    ("core.descendants_us", "us"),
    ("core.ancestors_us", "us"),
    ("core.enum_mean_results", "count"),
    ("partition.partition_ms", "ms"),
    ("partition.partitions", "count"),
    ("partition.cross_links", "count"),
    ("partition.join_ms", "ms"),
    ("partition.join_entries", "entries"),
    ("partition.psg_nodes", "count"),
    ("partition.psg_edges", "count"),
    ("query.parse_us", "us"),
    ("query.forced_pairwise_ms", "ms"),
    ("query.forced_enumerate_ms", "ms"),
    ("query.forced_forward_ms", "ms"),
    ("query.forced_backward_ms", "ms"),
    ("query.planner_regret", "ratio"),
    ("query.steps_pairwise", "count"),
    ("query.steps_enumerate", "count"),
    ("query.steps_forward", "count"),
    ("query.steps_backward", "count"),
    ("query.tagindex_build_ms", "ms"),
    ("text.predicate_cost_ratio", "ratio"),
    ("text.terms", "count"),
    ("text.postings", "count"),
    ("text.posting_bytes", "bytes"),
    ("store.save_ms", "ms"),
    ("store.index_bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.wal_fsync_p50_us", "us"),
    ("store.wal_batch_mean", "count"),
    ("store.wal_bytes_per_op", "bytes"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoint_bytes", "bytes"),
    ("maintenance.insert_link_us", "us"),
    ("maintenance.insert_doc_us", "us"),
    ("maintenance.delete_link_ms", "ms"),
    ("maintenance.delete_doc_fast_ms", "ms"),
    ("maintenance.delete_doc_general_ms", "ms"),
    ("maintenance.separates_us", "us"),
    ("maintenance.thm2_count", "count"),
    ("maintenance.thm3_count", "count"),
    ("maintenance.recompute_seeds_mean", "count"),
    ("maintenance.cover_growth", "ratio"),
    ("build.build_s", "s"),
    ("build.snapshot_ms", "ms"),
    ("build.publish_share", "ratio"),
    ("build.insert_ack_p50_us", "us"),
    ("build.delete_ack_p50_ms", "ms"),
    ("build.recover_ms", "ms"),
    ("build.recover_replayed", "count"),
    ("build.rebuild_ms", "ms"),
    ("build.inproc_probe_us", "us"),
    ("server.stage_read_us", "us"),
    ("server.stage_route_us", "us"),
    ("server.stage_eval_us", "us"),
    ("server.stage_serialize_us", "us"),
    ("server.stage_write_us", "us"),
    ("server.http_overhead_us", "us"),
    ("server.unattributed_us", "us"),
    ("server.probe_p50_us", "us"),
    ("server.probe_p99_us", "us"),
    ("server.healthz_p50_us", "us"),
    ("server.many_p50_us", "us"),
    ("server.enum_p50_us", "us"),
    ("server.query_p50_us", "us"),
    ("server.write_p50_ms", "ms"),
    ("server.write_p90_ms", "ms"),
    ("server.writer_lag_ms", "ms"),
    ("server.read_rps", "1/s"),
    ("server.requests_shed", "count"),
    ("server.requests_failed", "count"),
    ("xml.self_ms", "ms"),
    ("graph.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("partition.self_ms", "ms"),
    ("query.self_ms", "ms"),
    ("text.self_ms", "ms"),
    ("store.self_ms", "ms"),
    ("maintenance.self_ms", "ms"),
    ("build.self_ms", "ms"),
    ("server.self_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// The catalogue's own (`'static`) spelling of a metric name.
fn listed(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(n, _)| n)
}

/// Everything one workload run found out.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    digests: BTreeMap<&'static str, Digest>,
    /// Free-form facts printed above the metrics (collection sizes, row
    /// counts, sample counts).
    pub notes: Vec<String>,
    pub tally: Tally,
}

impl Report {
    /// Records a metric. The name must be in the catalogue, and new.
    pub fn set(&mut self, name: &str, value: f64) {
        let name = listed(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} reported twice"
        );
    }

    /// Records a metric unless it is recorded already: a run sets up
    /// several times, and a number of the set-up is taken from the first.
    pub fn set_first(&mut self, name: &str, value: f64) {
        if self.get(name).is_none() {
            self.set(name, value);
        }
    }

    /// Records a metric as the median of raw samples, keeping the digest
    /// (count, quartiles, supported tail) for the printed table. `scale`
    /// converts the sample unit into the metric's unit.
    pub fn set_p50(&mut self, name: &str, samples: &[f64], scale: f64) {
        let scaled: Vec<f64> = samples.iter().map(|v| v * scale).collect();
        self.set(name, stats::p50(&scaled));
        if let (Some(name), Some(d)) = (listed(name), stats::digest(&scaled)) {
            self.digests.insert(name, d);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// The human-readable part: notes, then one line per reported metric.
    pub fn print_table(&self, workload: &str, traced: bool) {
        println!(
            "== {workload} ({}) ==",
            if traced { "traced" } else { "untraced" }
        );
        for n in &self.notes {
            println!("  {n}");
        }
        println!(
            "  ops_attempted {}  ops_failed {}",
            self.tally.attempted, self.tally.failed
        );
        for f in &self.tally.examples {
            println!("  FAILED: {f}");
        }
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for &(name, unit) in catalogue {
            let Some(v) = self.values.get(name) else {
                continue;
            };
            let mut line = format!("  {name:<34} {v:>16.4} {unit:<8}");
            if let Some(d) = self.digests.get(name) {
                let _ = write!(line, " n={} q1={:.4} q3={:.4}", d.n, d.q1, d.q3);
                if let Some((p, v)) = d.tail {
                    let _ = write!(line, " p{p}={v:.4}");
                }
            }
            println!("{line}");
        }
    }

    /// The machine-readable last line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn json_line(&self, traced: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.failed == 0,
            self.tally.attempted.max(1),
            self.tally.failed
        );
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (i, &(name, unit)) in catalogue.iter().enumerate() {
            let v = match self.values.get(name) {
                Some(&v) => v,
                // A layer the workload does not exercise reads 0; an
                // end-to-end metric must always be measured.
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(v.is_finite(), "metric {name} is not finite");
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn json_line_is_parseable_and_complete() {
        let mut r = Report::default();
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r.tally.ran(10);
        let json = hopi_server::json::parse(&r.json_line(false)).expect("valid JSON");
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(|c| c.as_bool()), Some(true));
        let metrics = json.get("metrics").and_then(|m| m.as_obj()).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        // A traced line carries every per-layer name, unmeasured ones as 0.
        let traced = hopi_server::json::parse(&r.json_line(true)).unwrap();
        assert_eq!(
            traced
                .get("metrics")
                .and_then(|m| m.as_obj())
                .unwrap()
                .len(),
            PER_LAYER.len()
        );
    }
}
