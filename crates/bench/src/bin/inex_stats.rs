//! Regenerates the **§7.2 INEX result**: "For the INEX collection, the
//! resulting cover has 33,701,084 entries … less than three index entries
//! per node seems to be quite efficient."
//!
//! Builds the index over the link-free INEX-like collection and reports
//! entries per element.
//!
//! ```sh
//! cargo run -p hopi-bench --release --bin inex_stats [--scale 0.002]
//! ```

use hopi_bench::{inex_collection, scale_arg};
use hopi_build::{build_index, BuildConfig, PartitionerChoice};
use hopi_partition::TcPartitionerConfig;
use hopi_xml::CollectionStats;

fn main() {
    let scale = scale_arg(0.002);
    let collection = inex_collection(scale);
    let stats = CollectionStats::of(&collection);
    println!("INEX-like collection @ scale {scale}: {stats}");

    let (index, report) = build_index(
        &collection,
        &BuildConfig {
            partitioner: PartitionerChoice::Tc(TcPartitionerConfig {
                max_connections_per_partition: 500_000,
                ..Default::default()
            }),
            ..Default::default()
        },
    );
    let per_node = report.cover_size as f64 / stats.elements.max(1) as f64;
    println!(
        "cover: {} entries over {} partitions in {:.1}s → {per_node:.2} entries/node",
        report.cover_size,
        report.partitions,
        report.total_ms as f64 / 1000.0
    );
    println!("paper: 33,701,084 entries over 12,061,348 nodes → 2.79 entries/node, ~4 hours");
    assert!(
        per_node < 3.5,
        "tree collections must stay near the paper's <3 entries/node"
    );
    drop(index);
}
