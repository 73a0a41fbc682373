//! Access paths: the one read surface (probe, enumerate, query) behind
//! which each workload reaches the index its own way — the mutable engine,
//! a frozen snapshot, or HTTP — so that the same metric names mean the
//! same operation on every workload, and the same checks run on all of
//! them.

use crate::inputs::{is_out_of_vocabulary, ReadInputs};
use crate::oracle::{Oracle, Tally};
use crate::reference::{Reference, NOMINAL_NS};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use hopi_build::{Hopi, HopiSnapshot};
use hopi_query::parse_path;
use hopi_server::{json, Client};
use hopi_xml::ElemId;
use std::time::{Duration, Instant};

/// One way of reading the index. `None`/`false` is a failed operation.
pub trait ReadPath {
    /// Probes per latency sample: in-process probes are far shorter than
    /// a clock reading, so they are timed in batches.
    const PROBE_BATCH: usize;
    /// The layers a traced run attributes the four read slices to —
    /// probe, enumerate, path script, text script: the crate that does the
    /// work behind this path's public call.
    const LAYERS: [&'static str; 4];
    /// Name in failure messages.
    fn name(&self) -> &'static str;
    fn connected(&mut self, u: ElemId, v: ElemId) -> Option<bool>;
    /// Descendants-or-self (or ancestors-or-self) of `u` into `out`.
    fn enumerate(&mut self, u: ElemId, ancestors: bool, out: &mut Vec<ElemId>) -> bool;
    fn query(&mut self, expr: &str) -> Option<Vec<ElemId>>;
}

/// The mutable engine: probes walk the live `TwoHopCover`.
pub struct EnginePath<'a>(pub &'a Hopi);

impl ReadPath for EnginePath<'_> {
    const PROBE_BATCH: usize = 1024;
    const LAYERS: [&'static str; 4] = ["core", "core", "query", "text"];
    fn name(&self) -> &'static str {
        "engine"
    }
    fn connected(&mut self, u: ElemId, v: ElemId) -> Option<bool> {
        Some(self.0.connected(u, v))
    }
    fn enumerate(&mut self, u: ElemId, ancestors: bool, out: &mut Vec<ElemId>) -> bool {
        *out = if ancestors {
            self.0.ancestors(u)
        } else {
            self.0.descendants(u)
        };
        true
    }
    fn query(&mut self, expr: &str) -> Option<Vec<ElemId>> {
        self.0.query(expr).ok()
    }
}

/// A published snapshot: probes run on the frozen CSR cover.
pub struct SnapshotPath<'a>(pub &'a HopiSnapshot);

impl ReadPath for SnapshotPath<'_> {
    const PROBE_BATCH: usize = 1024;
    const LAYERS: [&'static str; 4] = ["core", "core", "query", "text"];
    fn name(&self) -> &'static str {
        "snapshot"
    }
    fn connected(&mut self, u: ElemId, v: ElemId) -> Option<bool> {
        Some(self.0.connected(u, v))
    }
    fn enumerate(&mut self, u: ElemId, ancestors: bool, out: &mut Vec<ElemId>) -> bool {
        if ancestors {
            self.0.frozen().ancestors_into(u, out);
        } else {
            self.0.frozen().descendants_into(u, out);
        }
        true
    }
    fn query(&mut self, expr: &str) -> Option<Vec<ElemId>> {
        self.0.query(expr).ok()
    }
}

/// One keep-alive HTTP connection to a `hopi-server`.
pub struct HttpPath<'a>(pub &'a mut Client);

/// Percent-encodes a path expression for `GET /query?expr=`.
pub fn url_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The element-id array under `key` of a parsed response body.
pub fn json_ids(body: &json::Json, key: &str) -> Option<Vec<ElemId>> {
    body.get(key)?
        .as_arr()?
        .iter()
        .map(|v| v.as_u32())
        .collect()
}

impl ReadPath for HttpPath<'_> {
    const PROBE_BATCH: usize = 1;
    const LAYERS: [&'static str; 4] = ["server"; 4];
    fn name(&self) -> &'static str {
        "http"
    }
    fn connected(&mut self, u: ElemId, v: ElemId) -> Option<bool> {
        let resp = self.0.get(&format!("/connected?u={u}&v={v}")).ok()?;
        (resp.status == 200).then_some(())?;
        json::parse(&resp.body).ok()?.get("connected")?.as_bool()
    }
    fn enumerate(&mut self, u: ElemId, ancestors: bool, out: &mut Vec<ElemId>) -> bool {
        let endpoint = if ancestors {
            "ancestors"
        } else {
            "descendants"
        };
        let Ok(resp) = self.0.get(&format!("/{endpoint}?u={u}")) else {
            return false;
        };
        let ids = json::parse(&resp.body)
            .ok()
            .and_then(|b| json_ids(&b, "elements"));
        match (resp.status, ids) {
            (200, Some(ids)) => {
                *out = ids;
                true
            }
            _ => false,
        }
    }
    fn query(&mut self, expr: &str) -> Option<Vec<ElemId>> {
        let resp = self
            .0
            .get(&format!("/query?expr={}", url_encode(expr)))
            .ok()?;
        (resp.status == 200).then_some(())?;
        json_ids(&json::parse(&resp.body).ok()?, "matches")
    }
}

/// What the read rounds of a run measured: per round, the reference
/// kernel's reading and one raw mean per operation class.
#[derive(Debug, Default)]
pub struct ReadSamples {
    /// Nanoseconds per reference probe in the round's reference slice.
    pub reference_ns: Vec<f64>,
    /// Microseconds per probe.
    pub probe_us: Vec<f64>,
    /// Microseconds per enumeration (descendants and ancestors
    /// alternating).
    pub enum_us: Vec<f64>,
    /// Seconds per pass over the path script.
    pub path_pass_s: Vec<f64>,
    /// Seconds per pass over the text script.
    pub text_pass_s: Vec<f64>,
    /// Probes answered `true` / probes made, and elements enumerated /
    /// enumerations made (exact counts, for the per-layer ratios).
    pub probe_hits: u64,
    pub probes: u64,
    pub enum_results: u64,
    pub enums: u64,
    pub passes: u64,
    /// Where the next round resumes in the pair list and the source order,
    /// so that successive rounds walk on through them instead of replaying
    /// the head.
    next_pair: usize,
    next_source: usize,
}

impl ReadSamples {
    /// What a time measured right beside the last round is multiplied by
    /// (see `reference.rs`).
    pub fn last_factor(&self) -> f64 {
        self.reference_ns.last().map_or(1.0, |r| NOMINAL_NS / r)
    }

    /// `raw` per-round values at the reference's nominal speed.
    fn normalised(&self, raw: &[f64]) -> Vec<f64> {
        raw.iter()
            .zip(&self.reference_ns)
            .map(|(v, r)| v * NOMINAL_NS / r)
            .collect()
    }

    /// Reports the four universal read metrics: medians over the rounds of
    /// the normalised per-round means.
    pub fn report(&self, report: &mut Report, inputs: &ReadInputs) {
        report.set_p50("probe_us", &self.normalised(&self.probe_us), 1.0);
        report.set_p50("enum_us", &self.normalised(&self.enum_us), 1.0);
        for (name, passes, script) in [
            ("path_qps", &self.path_pass_s, inputs.paths),
            ("text_qps", &self.text_pass_s, inputs.texts),
        ] {
            // Queries per second of a closed loop over the script: the
            // inverse of the per-pass times, so the printed quartiles are
            // in 1/s too.
            let qps: Vec<f64> = self
                .normalised(passes)
                .iter()
                .map(|s| script.len() as f64 / s)
                .collect();
            report.set_p50(name, &qps, 1.0);
        }
        report.note(format!(
            "reads: {} rounds, {} probes ({:.4} hit), {} enumerations ({:.1} results each), {} script passes",
            self.reference_ns.len(),
            self.probes,
            self.probe_hits as f64 / self.probes.max(1) as f64,
            self.enums,
            self.enum_results as f64 / self.enums.max(1) as f64,
            self.passes,
        ));
        report.note(format!(
            "as measured (medians over the rounds): reference {:.1} ns (nominal {NOMINAL_NS}), probe {:.4} us, enumeration {:.2} us, path pass {:.3} ms, text pass {:.3} ms",
            stats::p50(&self.reference_ns),
            stats::p50(&self.probe_us),
            stats::p50(&self.enum_us),
            stats::p50(&self.path_pass_s) * 1e3,
            stats::p50(&self.text_pass_s) * 1e3,
        ));
    }
}

/// Enumerations per batch of the enumeration slice.
pub const ENUM_CHUNK: usize = 256;

/// Repeats `batch` (which returns how many operations it made) until
/// `slice` has passed; seconds per operation.
fn time_slice(slice: Duration, mut batch: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut ops = 0usize;
    loop {
        ops += batch();
        let elapsed = start.elapsed();
        if elapsed >= slice {
            return elapsed.as_secs_f64() / ops.max(1) as f64;
        }
    }
}

/// One round of five interleaved slices — the reference kernel, probes,
/// enumerations, path script, text script — each running for at least
/// `slice`, and each adding one per-round value to `samples`. Rounds are
/// short (a workload makes hundreds to thousands of them), so that every
/// class meets every state of the machine, and so that the reference
/// reading a class is normalised by was taken milliseconds away from it.
pub fn read_round<P: ReadPath>(
    path: &mut P,
    inputs: &ReadInputs,
    slice: Duration,
    reference: &mut Reference,
    samples: &mut ReadSamples,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let span = tracer.begin("bench", "reference kernel", "reference");
    samples.reference_ns.push(reference.run(slice));
    tracer.end(span);

    let span = tracer.begin(P::LAYERS[0], "connected", "probe");
    let mut hits = 0u64;
    let per_probe = time_slice(slice, || {
        for _ in 0..P::PROBE_BATCH {
            let (u, v) = inputs.pairs[samples.next_pair % inputs.pairs.len()];
            samples.next_pair += 1;
            match path.connected(u, v) {
                Some(hit) => hits += u64::from(hit),
                None => tally.fail(|| format!("{}: connected({u},{v}) failed", path.name())),
            }
        }
        samples.probes += P::PROBE_BATCH as u64;
        tally.ran(P::PROBE_BATCH as u64);
        P::PROBE_BATCH
    });
    tracer.end(span);
    samples.probe_us.push(per_probe * 1e6);
    samples.probe_hits += std::hint::black_box(hits);

    // Enumerations: on through the seeded order of all live elements.
    let span = tracer.begin(P::LAYERS[1], "descendants | ancestors", "enumerate");
    let mut out: Vec<ElemId> = Vec::new();
    let chunk = ENUM_CHUNK.min(inputs.sources.len());
    let mut results = 0u64;
    let per_enum = time_slice(slice, || {
        for _ in 0..chunk {
            let u = inputs.sources[samples.next_source % inputs.sources.len()];
            if path.enumerate(u, samples.next_source % 2 == 1, &mut out) {
                results += out.len() as u64;
            } else {
                tally.fail(|| format!("{}: enumerate({u}) failed", path.name()));
            }
            samples.next_source += 1;
        }
        samples.enums += chunk as u64;
        tally.ran(chunk as u64);
        chunk
    });
    tracer.end(span);
    samples.enum_us.push(per_enum * 1e6);
    samples.enum_results += std::hint::black_box(results);

    // Whole passes over each script.
    let mut passes = 0u64;
    for (script, per_pass, layer, op) in [
        (inputs.paths, &mut samples.path_pass_s, P::LAYERS[2], "path"),
        (inputs.texts, &mut samples.text_pass_s, P::LAYERS[3], "text"),
    ] {
        let span = tracer.begin(layer, "query", op);
        per_pass.push(time_slice(slice, || {
            for expr in script {
                match path.query(expr) {
                    Some(rows) => {
                        std::hint::black_box(rows.len());
                    }
                    None => tally.fail(|| format!("{}: {expr} failed", path.name())),
                }
            }
            passes += 1;
            tally.ran(script.len() as u64);
            1
        }));
        tracer.end(span);
    }
    samples.passes += passes;
}

/// How much of the read inputs a correctness pass checks.
#[derive(Clone, Copy, Debug)]
pub struct CheckPlan {
    /// Sources whose `connected(u, ·)` is checked against every live
    /// target, and whose descendants and ancestors are enumerated.
    pub sources: usize,
    /// Seeded pairs probed one by one.
    pub pairs: usize,
}

/// Checks a path's answers against the oracle, outside every timed
/// region: sampled pairs, `connected(u, ·)` over all live targets and both
/// enumerations for the first `plan.sources` sources, and every script
/// expression against `expected` rows (computed once per state by
/// [`expected_rows`]).
pub fn check_reads<P: ReadPath>(
    path: &mut P,
    oracle: &Oracle,
    inputs: &ReadInputs,
    plan: CheckPlan,
    expected: &[(&'static str, Vec<ElemId>)],
    tally: &mut Tally,
) {
    let what = path.name();
    // The index contract covers live elements; a workload that deletes
    // documents leaves some of the seeded ids dead.
    let live_pairs = inputs
        .pairs
        .iter()
        .filter(|&&(u, v)| oracle.is_live(u) && oracle.is_live(v));
    for &(u, v) in live_pairs.take(plan.pairs) {
        match path.connected(u, v) {
            Some(got) => tally.check_connected(oracle, what, u, v, got),
            None => tally.fail(|| format!("{what}: connected({u},{v}) failed")),
        }
    }
    let live = oracle.live();
    let mut out = Vec::new();
    let live_sources = inputs.sources.iter().filter(|&&u| oracle.is_live(u));
    for &u in live_sources.take(plan.sources) {
        let row: Vec<(ElemId, bool)> = live
            .iter()
            .filter_map(|&v| path.connected(u, v).map(|got| (v, got)))
            .collect();
        if row.len() != live.len() {
            tally.fail(|| format!("{what}: a probe from {u} failed"));
        }
        tally.check_connected_row(oracle, what, u, row);
        for ancestors in [false, true] {
            if path.enumerate(u, ancestors, &mut out) {
                tally.check_enumeration(oracle, what, u, ancestors, &out);
            } else {
                tally.fail(|| format!("{what}: enumerate({u}) failed"));
            }
        }
    }
    for (expr, want) in expected {
        match path.query(expr) {
            Some(got) => tally.check_rows(what, expr, &got, want),
            None => tally.fail(|| format!("{what}: {expr} failed")),
        }
    }
}

/// The all-pairs check: every live source's reachable set, enumerated
/// through the path, equals one BFS.
pub fn check_all_sources<P: ReadPath>(path: &mut P, oracle: &Oracle, tally: &mut Tally) {
    let what = path.name();
    let mut out = Vec::new();
    for u in oracle.live() {
        if path.enumerate(u, false, &mut out) {
            tally.check_enumeration(oracle, what, u, false, &out);
        } else {
            tally.fail(|| format!("{what}: enumerate({u}) failed"));
        }
    }
}

/// The oracle's rows for every script expression, and the non-vacuity
/// check: an expression other than the deliberately out-of-vocabulary one
/// that returns nothing measures nothing, and fails the run. `pinned` are
/// the row counts on the canonical collection before anything is written
/// (paths, then texts): a generator that drifts changes what the ruler
/// measures, and must fail here rather than move a metric.
pub fn expected_rows(
    oracle: &Oracle,
    inputs: &ReadInputs,
    pinned: Option<&[usize]>,
    report: &mut Report,
) -> Vec<(&'static str, Vec<ElemId>)> {
    let exprs: Vec<&'static str> = inputs.paths.iter().chain(inputs.texts).copied().collect();
    let expected: Vec<(&'static str, Vec<ElemId>)> = exprs
        .iter()
        .map(|&expr| {
            let parsed = parse_path(expr).expect("script expressions parse");
            let rows = oracle.query(&parsed);
            report
                .tally
                .check(rows.is_empty() == is_out_of_vocabulary(expr), || {
                    format!("script expression {expr} is vacuous: {} rows", rows.len())
                });
            (expr, rows)
        })
        .collect();
    if let Some(pinned) = pinned {
        let counts: Vec<usize> = expected.iter().map(|(_, rows)| rows.len()).collect();
        for (expr, n) in exprs.iter().zip(&counts) {
            report.note(format!("rows {n:>6}  {expr}"));
        }
        report.tally.check(counts == pinned, || {
            format!("row counts {counts:?} differ from the pinned {pinned:?}")
        });
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{self, SMOKE};
    use rand::prelude::*;

    #[test]
    fn engine_and_snapshot_paths_pass_the_checks_and_a_wrong_path_fails() {
        let c = inputs::dblp_collection(0.01);
        let hopi = Hopi::build(c.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let inputs = inputs::read_inputs(
            &mut rng,
            &c,
            &SMOKE,
            &inputs::DBLP_PATHS,
            &inputs::DBLP_TEXTS,
        );
        let oracle = Oracle::new(&c);
        let mut report = Report::default();
        let expected = expected_rows(&oracle, &inputs, None, &mut report);
        assert_eq!(report.tally.failed, 0, "{:?}", report.tally.examples);
        let wrong_pin = vec![0; expected.len()];
        expected_rows(&oracle, &inputs, Some(&wrong_pin), &mut report);
        assert_eq!(report.tally.failed, 1, "a drifted row count is reported");
        let mut tally = Tally::default();
        let plan = CheckPlan {
            sources: 4,
            pairs: 256,
        };
        check_reads(
            &mut EnginePath(&hopi),
            &oracle,
            &inputs,
            plan,
            &expected,
            &mut tally,
        );
        let snap = hopi.snapshot();
        check_reads(
            &mut SnapshotPath(&snap),
            &oracle,
            &inputs,
            plan,
            &expected,
            &mut tally,
        );
        assert_eq!(tally.failed, 0, "{:?}", tally.examples);
        assert!(tally.attempted > 2 * 256);

        /// A path that lies about every probe.
        struct Liar<'a>(EnginePath<'a>);
        impl ReadPath for Liar<'_> {
            const PROBE_BATCH: usize = 1;
            const LAYERS: [&'static str; 4] = ["core"; 4];
            fn name(&self) -> &'static str {
                "liar"
            }
            fn connected(&mut self, u: ElemId, v: ElemId) -> Option<bool> {
                self.0.connected(u, v).map(|b| !b)
            }
            fn enumerate(&mut self, u: ElemId, a: bool, out: &mut Vec<ElemId>) -> bool {
                self.0.enumerate(u, a, out)
            }
            fn query(&mut self, expr: &str) -> Option<Vec<ElemId>> {
                self.0.query(expr)
            }
        }
        let mut lies = Tally::default();
        let plan = CheckPlan {
            sources: 0,
            pairs: 16,
        };
        check_reads(
            &mut Liar(EnginePath(&hopi)),
            &oracle,
            &inputs,
            plan,
            &[],
            &mut lies,
        );
        assert_eq!(lies.failed, 16);
    }

    #[test]
    fn read_round_samples_every_class() {
        let c = inputs::dblp_collection(0.01);
        let hopi = Hopi::build(c.clone()).unwrap();
        let snap = hopi.snapshot();
        let mut rng = StdRng::seed_from_u64(5);
        let inputs = inputs::read_inputs(
            &mut rng,
            &c,
            &SMOKE,
            &inputs::DBLP_PATHS,
            &inputs::DBLP_TEXTS,
        );
        let (mut samples, mut tally) = (ReadSamples::default(), Tally::default());
        let mut reference = Reference::new();
        for _ in 0..2 {
            read_round(
                &mut SnapshotPath(&snap),
                &inputs,
                Duration::from_millis(5),
                &mut reference,
                &mut samples,
                &mut Tracer::new("test", false),
                &mut tally,
            );
        }
        // One value per round and class, and the reference beside them.
        for per_round in [
            &samples.reference_ns,
            &samples.probe_us,
            &samples.enum_us,
            &samples.path_pass_s,
            &samples.text_pass_s,
        ] {
            assert_eq!(per_round.len(), 2);
            assert!(per_round.iter().all(|&v| v > 0.0));
        }
        assert!(samples.enums >= 2 * ENUM_CHUNK as u64 && samples.enums % ENUM_CHUNK as u64 == 0);
        assert!(samples.passes >= 4);
        assert!(samples.probes >= 2 * 1024 && samples.probes % 1024 == 0);
        assert!(tally.attempted > samples.probes + samples.enums);
        assert!(
            samples.enum_results >= samples.enums,
            "enumerations are reflexive"
        );
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn url_encoding_round_trips_through_the_server_decoder() {
        for expr in inputs::INEX_TEXTS {
            let enc = url_encode(expr);
            assert!(enc
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"-_.~%".contains(&b)));
            assert_eq!(
                hopi_server::http::percent_decode(&enc).as_deref(),
                Some(expr)
            );
        }
    }
}
