//! # hopi-bench — the harness regenerating the paper's evaluation (§7)
//!
//! One binary per table/experiment:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 — collection features (DBLP, INEX) |
//! | `table2` | Table 2 — build time/size/compression for baseline, Px, single, Nx (+ flat) |
//! | `maintenance` | §7.3 — separator fraction, separator-test / deletion / insertion timings |
//! | `distance_overhead` | §5 — space and time overhead of the distance-aware cover |
//! | `inex_stats` | §7.2 — INEX build: cover entries per node |
//!
//! All binaries accept a `--scale <f64>` argument (default 0.05 for DBLP,
//! 0.002 for INEX) scaling the paper's collection sizes; absolute numbers
//! shift, the *shape* of the results is preserved (see EXPERIMENTS.md).
//!
//! Criterion microbenches live in `benches/`: query latency and algorithmic
//! kernels.

#![forbid(unsafe_code)]

use hopi_xml::generator::{dblp, inex, DblpConfig, InexConfig};
use hopi_xml::Collection;

/// Paper-scale constants for translating Table 2 parameter names.
pub mod paper {
    /// Elements in the paper's DBLP subset.
    pub const DBLP_ELEMENTS: f64 = 168_991.0;
    /// Transitive-closure connections of the paper's DBLP subset.
    pub const DBLP_CLOSURE: f64 = 344_992_370.0;
    /// Cover size of the paper's no-partitioning baseline.
    pub const DBLP_FLAT_COVER: f64 = 1_289_930.0;
    /// Cover size of the paper's old-join baseline.
    pub const DBLP_OLD_JOIN_COVER: f64 = 15_976_677.0;
}

/// Parses `--scale <f>` (or a bare positional float) from argv. A number
/// that is the *value of another flag* (`--threads 4`) is not a scale.
pub fn scale_arg(default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--scale" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return v;
            }
        }
        let follows_flag = args
            .get(i.wrapping_sub(1))
            .is_some_and(|prev| prev.starts_with("--"));
        if let Ok(v) = a.parse::<f64>() {
            if i > 0 && !follows_flag {
                return v;
            }
        }
    }
    default
}

/// Extracts `--name value` from argv (the bench binaries' flag
/// convention).
pub fn flag_arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Runs `f`, recording its latency into `hist` on every 64th call
/// (indexed by `i`). Sampling keeps the two timer reads off most
/// iterations of sub-microsecond workloads, so the histogram reflects
/// the operation rather than the act of measuring it; quantiles over
/// the 1/64 sample converge to the true distribution's.
pub fn record_sampled<T>(hist: &hopi_obs::Histogram, i: usize, f: impl FnOnce() -> T) -> T {
    if i.is_multiple_of(64) {
        let sw = hopi_obs::Stopwatch::start();
        let out = f();
        hist.record_micros(sw.elapsed_micros());
        out
    } else {
        f()
    }
}

/// The thread counts a throughput bench measures: single-threaded plus
/// the requested count (deduplicated when they coincide).
pub fn thread_ladder(n: usize) -> Vec<usize> {
    if n <= 1 {
        vec![1]
    } else {
        vec![1, n]
    }
}

/// The DBLP-like evaluation collection at a given scale.
pub fn dblp_collection(scale: f64) -> Collection {
    dblp(&DblpConfig::scaled(scale))
}

/// The INEX-like evaluation collection at a given scale.
pub fn inex_collection(scale: f64) -> Collection {
    inex(&InexConfig::scaled(scale))
}

/// Sprinkles deterministic cross-document links over a collection (about
/// two per document) so connection probes cross documents — the
/// generator's pure INEX has none, and the 24×7 serving scenario is about
/// *linked* collections. Used by the `query_throughput` and
/// `server_throughput` serving benches.
pub fn add_cross_links(collection: &mut Collection) {
    use rand::prelude::*;
    let docs: Vec<u32> = collection.doc_ids().collect();
    if docs.len() < 2 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x11e8);
    let want = docs.len() * 2;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < want && attempts < want * 8 {
        attempts += 1;
        let a = docs[rng.gen_range(0..docs.len())];
        let b = docs[rng.gen_range(0..docs.len())];
        if a == b {
            continue;
        }
        let la = rng.gen_range(0..collection.document(a).expect("live").len() as u32);
        let from = collection.global_id(a, la);
        let to = collection.global_id(b, 0);
        if collection.add_link(from, to) {
            added += 1;
        }
    }
}

/// `n` distinct, deterministic cross-document links that each touch a
/// handful of labels: from an element of a document nothing links into
/// (its ancestors are its tree ancestors) to a childless, linkless element
/// of a document that is linked into (its only descendant is itself). A
/// write bench over a linked collection inserts these, so that it measures
/// the write path — maintenance, WAL, publish — and not cover growth: a
/// link between arbitrary elements of a cross-linked INEX collection joins
/// its giant strongly connected component and adds thousands of entries.
pub fn leaf_links(collection: &Collection, n: usize) -> Vec<(u32, u32)> {
    use rand::prelude::*;
    use std::collections::HashSet;
    let c = collection;
    let linked_into: HashSet<u32> = c.links().iter().filter_map(|l| c.doc_of(l.to)).collect();
    let links_out: HashSet<u32> = c.links().iter().map(|l| l.from).collect();
    let (targets, sources): (Vec<u32>, Vec<u32>) =
        c.doc_ids().partition(|d| linked_into.contains(d));
    assert!(
        !sources.is_empty() && !targets.is_empty(),
        "leaf links need a document nothing links into and one something does"
    );
    let mut rng = StdRng::seed_from_u64(0x1eaf);
    let mut pick = |among: &[u32]| {
        let d = among[rng.gen_range(0..among.len())];
        let doc = c.document(d).expect("live document");
        (doc, c.global_id(d, rng.gen_range(0..doc.len() as u32)))
    };
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n * 64 {
        if out.len() == n {
            break;
        }
        let (_, from) = pick(&sources);
        let (target, to) = pick(&targets);
        let local = c.to_local(to).expect("live element").1;
        let is_leaf = target.element(local).children.is_empty()
            && !links_out.contains(&to)
            && target.intra_links().iter().all(|&(f, _)| f != local);
        if is_leaf && seen.insert((from, to)) {
            out.push((from, to));
        }
    }
    assert_eq!(out.len(), n, "collection too small for {n} leaf links");
    out
}

/// Scales a paper `Px` node cap (`x·10⁴` of 168,991 elements) to a
/// collection with `elements` elements.
pub fn scaled_px_cap(x: f64, elements: usize) -> u64 {
    ((x * 1e4) * (elements as f64 / paper::DBLP_ELEMENTS)).max(8.0) as u64
}

/// Scales a paper `Nx` closure budget (`x·10⁵` of ~345M connections) to a
/// collection whose closure has `closure_connections` connections.
pub fn scaled_nx_budget(x: f64, closure_connections: u64) -> u64 {
    ((x * 1e5) * (closure_connections as f64 / paper::DBLP_CLOSURE)).max(64.0) as u64
}

/// Simple fixed-width table printer for the bench binaries.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Creates a printer and emits the header row.
    pub fn new(columns: &[(&str, usize)]) -> Self {
        let widths: Vec<usize> = columns.iter().map(|&(_, w)| w).collect();
        let header: Vec<String> = columns
            .iter()
            .map(|&(name, w)| format!("{name:>w$}"))
            .collect();
        println!("{}", header.join("  "));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        TablePrinter { widths }
    }

    /// Emits one data row.
    pub fn row(&self, cells: &[String]) {
        let formatted: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        println!("{}", formatted.join("  "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn px_cap_scales_linearly() {
        assert_eq!(scaled_px_cap(5.0, 168_991), 50_000);
        assert_eq!(scaled_px_cap(5.0, 16_899), 4_999);
        assert!(scaled_px_cap(5.0, 10) >= 8);
    }

    #[test]
    fn nx_budget_scales_linearly() {
        let full = scaled_nx_budget(10.0, 344_992_370);
        assert_eq!(full, 1_000_000);
        assert!(scaled_nx_budget(10.0, 3_449_923) > 0);
    }

    #[test]
    fn collections_generate() {
        assert!(dblp_collection(0.002).doc_count() > 5);
        assert!(inex_collection(0.0001).doc_count() >= 1);
    }
}
