//! Runs the benchmark's `--smoke` tier — small collections, a fraction of a
//! second of timed region, every check on — for the three workloads of
//! `BENCHMARK.json` and for `serve-http` (which the traced `query-inex`
//! runs as its server layer), with and without tracing, and holds the
//! output against `BENCHMARK.json`:
//! every listed metric is emitted exactly once with its unit, no operation
//! failed, the outputs are correct. Smoke numbers are never compared.

use hopi_server::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// A fresh working directory per run: the benchmark writes its artefacts
/// under `target/benchmark/` of wherever it is started.
fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hopi-benchmark-smoke-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary working directory");
    dir
}

/// Runs one workload's smoke tier and returns its metrics.
fn run_smoke(workload: &str, traced: bool, listed: &[(String, String)]) -> Vec<(String, f64)> {
    let dir = workdir(&format!("{workload}-{}", u8::from(traced)));
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", workload, "--seed", "3", "--smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .current_dir(&dir)
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let what = format!("{workload} trace={traced}");
    assert!(
        output.status.success(),
        "{what} exited with {:?}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("ops_attempted") && stdout.contains("ops_failed 0"),
        "{what}\n{stdout}"
    );

    let last = stdout.lines().last().expect("a result line");
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("{what}: last line is not JSON: {e}\n{last}"));
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{what}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{what}"
    );

    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = listed.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        emitted, expected,
        "{what}: emitted names differ from BENCHMARK.json"
    );
    let mut values = Vec::new();
    for ((name, m), (_, unit)) in metrics.iter().zip(listed) {
        assert_eq!(
            last.matches(&format!("\"{name}\":")).count(),
            1,
            "{what}: {name} is not emitted exactly once"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{what}: unit of {name}"
        );
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{what}: {name} = {value}");
        if !traced {
            assert!(value > 0.0, "{what}: end-to-end metric {name} = {value}");
        }
        values.push((name.clone(), value));
    }

    let trace = dir
        .join("target/benchmark")
        .join(format!("trace-{workload}.json"));
    if traced {
        let text = std::fs::read_to_string(&trace)
            .unwrap_or_else(|e| panic!("{what}: {}: {e}", trace.display()));
        let spans = json::parse(&text).expect("trace parses");
        assert!(
            spans
                .get("spans")
                .and_then(Json::as_arr)
                .is_some_and(|s| !s.is_empty()),
            "{what}: empty trace"
        );
        let overhead = metrics.iter().find(|(k, _)| k == "trace_overhead_pct");
        assert!(overhead.is_some(), "{what}: trace_overhead_pct missing");
    } else {
        assert!(!trace.exists(), "{what}: an untraced run wrote a trace");
    }
    // Scratch state (durable directories, saved indexes) is removed.
    let leftovers: Vec<_> = std::fs::read_dir(dir.join("target/benchmark"))
        .map(|d| d.flatten().map(|e| e.file_name()).collect())
        .unwrap_or_default();
    assert!(
        leftovers
            .iter()
            .all(|f: &std::ffi::OsString| f.to_string_lossy().starts_with("trace-")),
        "{what}: left behind {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    values
}

#[test]
fn smoke_tier_emits_every_listed_metric_on_every_workload() {
    let spec = benchmark_json();
    let end_to_end = listed(&spec, "end_to_end");
    let per_layer = listed(&spec, "per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["build-dblp", "query-inex", "maintain-dblp"]);
    for workload in workloads.iter().map(String::as_str).chain(["serve-http"]) {
        run_smoke(workload, false, &end_to_end);
        let traced = run_smoke(workload, true, &per_layer);
        // The server layer is measured on the two workloads that serve.
        let served = traced
            .iter()
            .any(|(name, value)| name == "server.read_rps" && *value > 0.0);
        assert_eq!(
            served,
            matches!(workload, "query-inex" | "serve-http"),
            "{workload}: server.read_rps"
        );
    }
}

#[test]
fn a_bad_command_line_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("spawn the benchmark");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}
