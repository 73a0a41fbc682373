//! Regenerates **Table 2**: "Index build time and size with the baseline
//! algorithm (top) and with the new algorithm for cover joining with
//! different partitioning algorithms and partition size limits."
//!
//! Rows:
//! * `baseline` — old partitioner + **old** incremental join (§3.3);
//! * `P5/P10/P20/P50` — old node-capped partitioner (caps scaled from the
//!   paper's `x·10⁴` elements) + **new** PSG join (§4.1);
//! * `single` — one partition per document + new join;
//! * `N10/N25/N50/N100` — new closure-budget partitioner (budgets scaled
//!   from the paper's `x·10⁵` connections) + new join;
//! * `flat` — no partitioning (the §7.2 "45 hours / 80 GB" baseline, which
//!   at reduced scale becomes merely *much* slower);
//! * `presel` — N10 + link-target center preselection (§4.2).
//!
//! Beside each row's size, `pruned` is what the redundancy ruler
//! ([`hopi_bench::redundancy`]) leaves of its cover.
//!
//! ```sh
//! cargo run -p hopi-bench --release --bin table2 [--scale 0.05] [--flat]
//! ```

use hopi_bench::baseline::{self, Join};
use hopi_bench::old_partitioner::{self, OldPartitionerConfig};
use hopi_bench::{
    closure_connections, dblp_collection, paper, redundancy, scale_arg, scaled_nx_budget,
    scaled_px_cap, TablePrinter,
};
use hopi_build::{build_index, BuildConfig, BuildReport, HopiIndex, PartitionerChoice};
use hopi_partition::TcPartitionerConfig;
use hopi_xml::CollectionStats;

fn main() {
    let scale = scale_arg(0.05);
    let include_flat = std::env::args().any(|a| a == "--flat") || scale <= 0.06;
    let collection = dblp_collection(scale);
    let stats = CollectionStats::of(&collection);
    println!("Table 2 — DBLP-like collection @ scale {scale}: {stats}");

    let connections = closure_connections(&collection);
    println!(
        "transitive closure: {connections} connections (paper: {:.0})\n",
        paper::DBLP_CLOSURE
    );

    let elements = stats.elements;
    // Each row's report and pruned size; its index is dropped as soon as
    // it is measured.
    let measured = |(index, report): (HopiIndex, BuildReport)| {
        let pruned = redundancy::prune(index.cover()).size();
        (report, pruned)
    };
    let node_capped = |cap: u64, join: Join| {
        let config = OldPartitionerConfig {
            max_nodes_per_partition: cap,
            ..Default::default()
        };
        let partition = |c: &_| old_partitioner::partition(c, &config);
        measured(baseline::build(
            &collection,
            partition,
            join,
            &BuildConfig::default(),
        ))
    };
    let engine = |config: BuildConfig| measured(build_index(&collection, &config));
    let nx = |x: f64| {
        PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: scaled_nx_budget(x, connections),
            ..Default::default()
        })
    };

    let mut rows: Vec<(String, (BuildReport, usize))> = vec![(
        "baseline".into(),
        node_capped(scaled_px_cap(5.0, elements), Join::Incremental),
    )];
    for x in [2.0, 5.0, 10.0, 20.0, 50.0] {
        let cap = scaled_px_cap(x, elements);
        if cap >= elements as u64 {
            println!(
                "P{x:.0}: scaled cap {cap} ≥ collection ({elements} elements) — degenerates to flat, skipped"
            );
            continue;
        }
        rows.push((format!("P{x:.0}"), node_capped(cap, Join::Psg)));
    }
    rows.push((
        "single".into(),
        engine(BuildConfig {
            partitioner: PartitionerChoice::PerDocument,
            ..Default::default()
        }),
    ));
    for x in [10.0, 25.0, 50.0, 100.0] {
        rows.push((
            format!("N{x:.0}"),
            engine(BuildConfig {
                partitioner: nx(x),
                ..Default::default()
            }),
        ));
    }
    rows.push((
        "presel(N10)".into(),
        engine(BuildConfig {
            partitioner: nx(10.0),
            preselect_link_targets: true,
            ..Default::default()
        }),
    ));
    if include_flat {
        rows.push((
            "flat".into(),
            engine(BuildConfig {
                partitioner: PartitionerChoice::Flat,
                threads: 1,
                ..Default::default()
            }),
        ));
    }

    let t = TablePrinter::new(&[
        ("algorithm", 12),
        ("parts", 6),
        ("xlinks", 7),
        ("time", 10),
        ("covers_ms", 10),
        ("join_ms", 8),
        ("size", 10),
        ("pruned", 10),
        ("compression", 12),
        ("centers", 9),
        ("evals", 9),
        ("reinsert", 9),
        ("peeled/offered", 22),
        ("degree words", 14),
    ]);
    for (name, (report, pruned)) in rows {
        t.row(&[
            name,
            report.partitions.to_string(),
            report.cross_links.to_string(),
            format!("{:.1}s", report.total_ms as f64 / 1000.0),
            report.covers_ms.to_string(),
            report.join_ms.to_string(),
            report.cover_size.to_string(),
            pruned.to_string(),
            format!("{:.1}", report.compression_vs(connections)),
            report.greedy.centers.to_string(),
            report.greedy.densest_evals.to_string(),
            report.greedy.reinsertions.to_string(),
            format!(
                "{}/{}",
                report.greedy.peel_removed, report.greedy.peel_offered
            ),
            report.greedy.degree_words.to_string(),
        ]);
    }

    println!("\npaper (full scale, Table 2):");
    let t = TablePrinter::new(&[
        ("algorithm", 12),
        ("time", 10),
        ("size", 12),
        ("compression", 12),
    ]);
    for (a, time, size, c) in [
        ("baseline", "11,400s", "15,976,677", "21.6"),
        ("P5", "820.8s", "9,980,892", "34.6"),
        ("P10", "1,198.2s", "10,002,244", "34.5"),
        ("P20", "2,286.8s", "11,646,499", "29.6"),
        ("P50", "7,835.8s", "12,033,309", "28.7"),
        ("single", "22,778.0s", "12,384,432", "27.9"),
        ("N10", "1,359.7s", "9,999,052", "34.5"),
        ("N25", "2,368.3s", "10,601,986", "32.5"),
        ("N50", "3,635.8s", "10,274,871", "33.6"),
        ("N100", "6,118.9s", "12,777,218", "27.0"),
        ("flat", "163,380s", "1,289,930", "267.4"),
    ] {
        t.row(&[a.into(), time.into(), size.into(), c.into()]);
    }
}
