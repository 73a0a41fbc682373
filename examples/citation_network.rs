//! Citation-network scenario: the paper's DBLP workload.
//!
//! Generates a DBLP-like collection (publications as XML documents,
//! citations as XLinks — the paper's §7.1 setup), builds the engine with
//! several configurations from Table 2, and compares sizes, build times and
//! compression ratios. The rows of the §3.3 baselines (the node-capped
//! partitioner of [26] and the one-link-at-a-time join) are `hopi-bench`'s
//! `table2`.
//!
//! ```sh
//! cargo run --release --example citation_network [scale]
//! ```
//!
//! `scale` (default `0.05`) scales the 6,210-document collection of the
//! paper.

use hopi::graph::TransitiveClosure;
use hopi::prelude::*;
use hopi::xml::generator::{dblp, DblpConfig};

fn main() -> Result<(), HopiError> {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let collection = dblp(&DblpConfig::scaled(scale));
    let stats = CollectionStats::of(&collection);
    println!("DBLP-like collection @ scale {scale}: {stats}");

    // Ground truth: the full transitive closure (the object HOPI
    // compresses). Feasible here because the example runs at reduced scale.
    let closure = TransitiveClosure::from_graph(&collection.element_graph());
    let connections = closure.connection_count() as u64;
    println!("transitive closure: {connections} connections");

    let closure_budget = || {
        PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: 50_000,
            ..Default::default()
        })
    };
    let configs: Vec<(&str, HopiBuilder)> = vec![
        (
            "per-document partitions + PSG join",
            Hopi::builder().partitioner(PartitionerChoice::PerDocument),
        ),
        (
            "closure-budget partitions + PSG join",
            Hopi::builder().partitioner(closure_budget()),
        ),
        (
            "closure-budget partitions + center preselection",
            Hopi::builder()
                .partitioner(closure_budget())
                .preselect_link_targets(true),
        ),
    ];

    println!(
        "\n{:<48} {:>6} {:>10} {:>8} {:>12}",
        "configuration", "parts", "size", "ms", "compression"
    );
    for (name, builder) in configs {
        let hopi = builder.build(collection.clone())?;
        let report = hopi.report();
        println!(
            "{:<48} {:>6} {:>10} {:>8} {:>11.1}x",
            name,
            report.partitions,
            report.cover_size,
            report.total_ms,
            report.compression_vs(connections)
        );
        // Spot-check correctness on a few random element pairs.
        verify_sample(&hopi, &closure);
    }
    Ok(())
}

fn verify_sample(hopi: &Hopi, closure: &TransitiveClosure) {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(42);
    let n = hopi.collection().elem_id_bound() as u32;
    for _ in 0..2_000 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        assert_eq!(
            hopi.connected(u, v),
            closure.contains(u, v),
            "index disagrees with closure on ({u}, {v})"
        );
    }
}
