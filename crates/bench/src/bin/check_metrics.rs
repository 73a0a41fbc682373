//! Validates a Prometheus text-exposition (0.0.4) scrape, as written by
//! `server_throughput --metrics-out`. CI runs this over the smoke
//! bench's `/metrics` scrape so a malformed exposition — a rendering
//! regression no Rust unit test of an individual histogram would catch —
//! fails the build.
//!
//! Checks, line by line and per series:
//!
//! * every non-comment line parses as `name{labels} value` (or
//!   `name value`), with a valid metric name and a finite-or-`+Inf`
//!   numeric value;
//! * `# TYPE` comments are well-formed and each sample's metric matches
//!   a declared family (histogram samples via their `_bucket` /
//!   `_count` / `_sum` suffixes);
//! * at least one `_bucket` series exists (the PR's reason to exist:
//!   latency histograms), every histogram family has a `+Inf` bucket,
//!   and bucket counts are cumulative (monotone non-decreasing in `le`)
//!   within each label set;
//! * the required families for the serving path are present:
//!   `hopi_build_info`, `hopi_request_duration_seconds`,
//!   `hopi_requests_total`, the publish cost:
//!   `hopi_publish_duration_seconds`, `hopi_publish_total`,
//!   `hopi_publish_rows_patched_total`, `hopi_publish_bytes_total`, and
//!   the §6 drift and its owners:
//!   `hopi_cover_drift_ratio`, `hopi_link_integrations_total`,
//!   `hopi_cover_entries_added_total`, the §6.2 deletions:
//!   `hopi_deletions_total`, `hopi_recomputed_connections_total`, the
//!   per-kind §6 latency: `hopi_maintenance_duration_seconds`, and the
//!   query planner's budget overruns: `hopi_query_backward_fallbacks_total`.
//!
//! ```sh
//! cargo run -p hopi-bench --bin check_metrics -- metrics.prom
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Families that must appear in any hopi-server scrape.
const REQUIRED_FAMILIES: &[&str] = &[
    "hopi_build_info",
    "hopi_requests_total",
    "hopi_request_duration_seconds",
    "hopi_publish_duration_seconds",
    "hopi_publish_total",
    "hopi_publish_rows_patched_total",
    "hopi_publish_bytes_total",
    "hopi_cover_drift_ratio",
    "hopi_link_integrations_total",
    "hopi_cover_entries_added_total",
    "hopi_deletions_total",
    "hopi_recomputed_connections_total",
    "hopi_maintenance_duration_seconds",
    "hopi_query_backward_fallbacks_total",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!("usage: check_metrics <scrape-file>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_metrics: reading {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&text) {
        Ok(summary) => {
            println!("check_metrics OK: {summary}");
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("check_metrics: {e}");
            }
            eprintln!("check_metrics: {} error(s) in {path}", errors.len());
            ExitCode::FAILURE
        }
    }
}

/// One parsed sample line.
struct Sample {
    name: String,
    /// Full label block, brace-less, exactly as rendered.
    labels: String,
    value: f64,
}

fn check(text: &str) -> Result<String, Vec<String>> {
    let mut errors = Vec::new();
    let mut families: Vec<String> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let (name, kind) = (words.next(), words.next());
                    match (name, kind) {
                        (
                            Some(n),
                            Some("counter" | "gauge" | "histogram" | "summary" | "untyped"),
                        ) => {
                            families.push(n.to_string());
                        }
                        _ => errors.push(format!("line {lineno}: malformed # TYPE: {line}")),
                    }
                }
                Some("HELP") | Some("EOF") => {}
                _ => {} // free-form comments are legal
            }
            continue;
        }
        match parse_sample(line) {
            Ok(s) => samples.push(s),
            Err(e) => errors.push(format!("line {lineno}: {e}: {line}")),
        }
    }

    if samples.is_empty() {
        errors.push("no samples in scrape".into());
    }

    // Every sample must belong to a declared family (histogram suffixes
    // resolve to their base family name).
    for s in &samples {
        let base = ["_bucket", "_count", "_sum"]
            .iter()
            .find_map(|suf| s.name.strip_suffix(suf))
            .filter(|base| families.iter().any(|f| f == base))
            .unwrap_or(&s.name);
        if !families.iter().any(|f| f == base) {
            errors.push(format!("sample `{}` has no # TYPE declaration", s.name));
        }
    }

    for family in REQUIRED_FAMILIES {
        if !families.iter().any(|f| f == family) {
            errors.push(format!("required family `{family}` missing from scrape"));
        }
    }

    // Histogram buckets: group by (family, labels-minus-le); require a
    // +Inf bucket and cumulative counts within each group.
    let mut groups: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    let mut bucket_series = 0usize;
    for s in &samples {
        let Some(base) = s.name.strip_suffix("_bucket") else {
            continue;
        };
        bucket_series += 1;
        match split_le(&s.labels) {
            Some((rest, le)) => {
                groups
                    .entry((base.to_string(), rest))
                    .or_default()
                    .push((le, s.value));
            }
            None => errors.push(format!(
                "bucket sample without le label: {}{{{}}}",
                s.name, s.labels
            )),
        }
    }
    if bucket_series == 0 {
        errors.push("no _bucket series in scrape — histograms missing".into());
    }
    for ((family, labels), mut buckets) in groups {
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        if buckets.last().is_none_or(|&(le, _)| le.is_finite()) {
            errors.push(format!(
                "histogram {family}{{{labels}}} lacks a +Inf bucket"
            ));
        }
        for pair in buckets.windows(2) {
            if pair[1].1 < pair[0].1 {
                errors.push(format!(
                    "histogram {family}{{{labels}}} buckets not cumulative: \
                     le={} count {} > le={} count {}",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                ));
            }
        }
    }

    if errors.is_empty() {
        Ok(format!(
            "{} samples, {} families, {} bucket series",
            samples.len(),
            families.len(),
            bucket_series
        ))
    } else {
        Err(errors)
    }
}

/// Parses `name{labels} value` or `name value`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| "no value separator".to_string())?;
    let value = match value {
        "+Inf" => f64::INFINITY,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("unparseable value `{v}`"))?,
    };
    let (name, labels) = match name_labels.split_once('{') {
        Some((n, rest)) => {
            let labels = rest
                .strip_suffix('}')
                .ok_or_else(|| "unterminated label block".to_string())?;
            if !labels.is_empty() && !valid_labels(labels) {
                return Err(format!("malformed labels `{{{labels}}}`"));
            }
            (n, labels.to_string())
        }
        None => (name_labels, String::new()),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return Err(format!("invalid metric name `{name}`"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// `k="v",k2="v2"` — values may contain anything except an unescaped
/// quote (the renderer never emits escapes, so none are accepted).
fn valid_labels(labels: &str) -> bool {
    let mut rest = labels;
    loop {
        let Some(eq) = rest.find("=\"") else {
            return false;
        };
        let key = &rest[..eq];
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return false;
        }
        let after = &rest[eq + 2..];
        let Some(close) = after.find('"') else {
            return false;
        };
        match after[close + 1..].strip_prefix(',') {
            Some(next) => rest = next,
            None => return after[close + 1..].is_empty(),
        }
    }
}

/// Splits the `le` label out of a bucket's label block, returning the
/// remaining labels (order preserved) and the parsed bound.
fn split_le(labels: &str) -> Option<(String, f64)> {
    let mut rest_parts = Vec::new();
    let mut le = None;
    for part in split_label_pairs(labels) {
        if let Some(v) = part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
            le = Some(match v {
                "+Inf" => f64::INFINITY,
                v => v.parse().ok()?,
            });
        } else {
            rest_parts.push(part);
        }
    }
    Some((rest_parts.join(","), le?))
}

/// Splits `k="v",k2="v2"` on the commas *between* pairs (values are
/// quote-delimited, so a split inside a value cannot happen for the
/// renderer's output, which never escapes quotes).
fn split_label_pairs(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    for (i, c) in labels.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                out.push(&labels[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < labels.len() {
        out.push(&labels[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# TYPE hopi_build_info gauge
hopi_build_info{version=\"0.2.0\",store_format=\"3\"} 1
# TYPE hopi_requests_total counter
hopi_requests_total{endpoint=\"query\"} 7
# TYPE hopi_request_duration_seconds histogram
hopi_request_duration_seconds_bucket{endpoint=\"query\",le=\"0.001\"} 3
hopi_request_duration_seconds_bucket{endpoint=\"query\",le=\"+Inf\"} 7
hopi_request_duration_seconds_sum{endpoint=\"query\"} 0.5
hopi_request_duration_seconds_count{endpoint=\"query\"} 7
# TYPE hopi_publish_duration_seconds histogram
hopi_publish_duration_seconds_bucket{le=\"0.000192\"} 2
hopi_publish_duration_seconds_bucket{le=\"+Inf\"} 3
hopi_publish_duration_seconds_sum 0.0034
hopi_publish_duration_seconds_count 3
# TYPE hopi_publish_total counter
hopi_publish_total{kind=\"patched\"} 2
hopi_publish_total{kind=\"full\"} 1
# TYPE hopi_publish_rows_patched_total counter
hopi_publish_rows_patched_total 12
# TYPE hopi_publish_bytes_total counter
hopi_publish_bytes_total 24576
# TYPE hopi_cover_drift_ratio gauge
hopi_cover_drift_ratio 1.2500
# TYPE hopi_link_integrations_total counter
hopi_link_integrations_total{choice=\"lout_copy\"} 4
hopi_link_integrations_total{choice=\"noop\"} 1
# TYPE hopi_cover_entries_added_total gauge
hopi_cover_entries_added_total{op=\"insert_link\"} 9
hopi_cover_entries_added_total{op=\"delete_general\"} -3
# TYPE hopi_deletions_total counter
hopi_deletions_total{algorithm=\"separator\"} 1
hopi_deletions_total{algorithm=\"general\"} 2
# TYPE hopi_recomputed_connections_total counter
hopi_recomputed_connections_total 57
# TYPE hopi_maintenance_duration_seconds histogram
hopi_maintenance_duration_seconds_bucket{op=\"delete_general\",le=\"0.003071\"} 1
hopi_maintenance_duration_seconds_bucket{op=\"delete_general\",le=\"+Inf\"} 1
hopi_maintenance_duration_seconds_sum{op=\"delete_general\"} 0.0025
hopi_maintenance_duration_seconds_count{op=\"delete_general\"} 1
# TYPE hopi_query_backward_fallbacks_total counter
hopi_query_backward_fallbacks_total 3
";

    #[test]
    fn accepts_a_well_formed_scrape() {
        assert!(check(GOOD).is_ok());
    }

    #[test]
    fn requires_the_publish_families() {
        let without = GOOD.replace("# TYPE hopi_publish_total counter\n", "");
        assert!(check(&without)
            .unwrap_err()
            .iter()
            .any(|e| e.contains("`hopi_publish_total` missing")));
    }

    #[test]
    fn requires_the_maintenance_families() {
        for family in [
            "hopi_cover_drift_ratio gauge",
            "hopi_link_integrations_total counter",
            "hopi_cover_entries_added_total gauge",
            "hopi_deletions_total counter",
            "hopi_recomputed_connections_total counter",
            "hopi_maintenance_duration_seconds histogram",
        ] {
            let name = family.split(' ').next().unwrap_or_default();
            let without: String = GOOD
                .lines()
                .filter(|l| !l.contains(name))
                .map(|l| format!("{l}\n"))
                .collect();
            assert!(check(&without)
                .unwrap_err()
                .iter()
                .any(|e| e.contains(&format!("`{name}` missing"))));
        }
    }

    #[test]
    fn requires_the_planner_fallback_family() {
        let without = GOOD.replace("# TYPE hopi_query_backward_fallbacks_total counter\n", "");
        assert!(check(&without)
            .unwrap_err()
            .iter()
            .any(|e| e.contains("`hopi_query_backward_fallbacks_total` missing")));
    }

    #[test]
    fn rejects_missing_inf_bucket_and_non_cumulative_counts() {
        let no_inf = GOOD.replace(
            "hopi_request_duration_seconds_bucket{endpoint=\"query\",le=\"+Inf\"} 7\n",
            "",
        );
        assert!(check(&no_inf)
            .unwrap_err()
            .iter()
            .any(|e| e.contains("+Inf")));

        let decreasing = GOOD.replace("le=\"+Inf\"} 7", "le=\"+Inf\"} 1");
        assert!(check(&decreasing)
            .unwrap_err()
            .iter()
            .any(|e| e.contains("not cumulative")));
    }

    #[test]
    fn rejects_malformed_lines_and_undeclared_samples() {
        let garbled = format!("{GOOD}hopi_bad{{oops}} 1\n");
        assert!(check(&garbled).is_err());

        let undeclared = format!("{GOOD}hopi_mystery_total 3\n");
        assert!(check(&undeclared)
            .unwrap_err()
            .iter()
            .any(|e| e.contains("no # TYPE")));

        let no_buckets = "\
# TYPE hopi_build_info gauge
hopi_build_info 1
# TYPE hopi_requests_total counter
hopi_requests_total 1
# TYPE hopi_request_duration_seconds histogram
hopi_request_duration_seconds_count 1
# TYPE hopi_publish_duration_seconds histogram
# TYPE hopi_publish_total counter
# TYPE hopi_publish_rows_patched_total counter
# TYPE hopi_publish_bytes_total counter
# TYPE hopi_cover_drift_ratio gauge
# TYPE hopi_link_integrations_total counter
# TYPE hopi_cover_entries_added_total gauge
# TYPE hopi_deletions_total counter
# TYPE hopi_recomputed_connections_total counter
# TYPE hopi_maintenance_duration_seconds histogram
# TYPE hopi_query_backward_fallbacks_total counter
";
        assert!(check(no_buckets)
            .unwrap_err()
            .iter()
            .any(|e| e.contains("no _bucket")));
    }
}
