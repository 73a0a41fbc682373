//! Ablation study over the paper's §4 design choices:
//!
//! 1. **Edge-weight strategies** (§4.3): link count vs `A·D` vs `A+D`
//!    under both partitioners — the paper reports "the new partitioning
//!    algorithm in combination with edge weights set to A*D gave similar
//!    results to the old partitioning algorithm, while the other
//!    combinations were not as good."
//! 2. **Center preselection** (§4.2): on/off — the paper reports "some
//!    decrease in cover size, but the effects were marginal."
//!
//! ```sh
//! cargo run -p hopi-bench --release --bin ablations [--scale 0.05]
//! ```

use hopi_bench::baseline::{self, Join};
use hopi_bench::old_partitioner::{self, OldPartitionerConfig};
use hopi_bench::{closure_connections, dblp_collection, scale_arg, scaled_nx_budget, TablePrinter};
use hopi_build::{build_index, BuildConfig, PartitionerChoice};
use hopi_partition::{EdgeWeightStrategy, TcPartitionerConfig};

fn main() {
    let scale = scale_arg(0.05);
    let collection = dblp_collection(scale);
    let connections = closure_connections(&collection);
    println!(
        "ablations — DBLP-like @ scale {scale}: {} docs, closure {connections} connections\n",
        collection.doc_count()
    );
    let budget = scaled_nx_budget(10.0, connections);
    let node_cap = (collection.element_count() / 4) as u64;

    println!("1) edge-weight strategies (§4.3)");
    let t = TablePrinter::new(&[
        ("partitioner", 14),
        ("weights", 14),
        ("parts", 6),
        ("xlinks", 8),
        ("time_ms", 8),
        ("size", 10),
        ("compr", 7),
    ]);
    for strategy in [
        EdgeWeightStrategy::LinkCount,
        EdgeWeightStrategy::AncTimesDesc,
        EdgeWeightStrategy::AncPlusDesc,
    ] {
        let old = OldPartitionerConfig {
            max_nodes_per_partition: node_cap,
            strategy,
            ..Default::default()
        };
        let partition = |c: &_| old_partitioner::partition(c, &old);
        let (_, old) = baseline::build(&collection, partition, Join::Psg, &BuildConfig::default());
        let new = TcPartitionerConfig {
            max_connections_per_partition: budget,
            strategy,
            ..Default::default()
        };
        let (_, new) = build_index(
            &collection,
            &BuildConfig {
                partitioner: PartitionerChoice::Tc(new),
                ..Default::default()
            },
        );
        for (pname, report) in [("old (nodes)", old), ("new (closure)", new)] {
            t.row(&[
                pname.into(),
                format!("{strategy:?}"),
                report.partitions.to_string(),
                report.cross_links.to_string(),
                report.total_ms.to_string(),
                report.cover_size.to_string(),
                format!("{:.1}", report.compression_vs(connections)),
            ]);
        }
    }

    println!("\n2) link-target center preselection (§4.2)");
    let t = TablePrinter::new(&[
        ("preselect", 10),
        ("time_ms", 8),
        ("size", 10),
        ("delta", 8),
    ]);
    let mut base_size = 0usize;
    for preselect in [false, true] {
        let (_, report) = build_index(
            &collection,
            &BuildConfig {
                partitioner: PartitionerChoice::Tc(TcPartitionerConfig {
                    max_connections_per_partition: budget,
                    ..Default::default()
                }),
                preselect_link_targets: preselect,
                ..Default::default()
            },
        );
        let delta = if preselect {
            format!("{:+}", report.cover_size as i64 - base_size as i64)
        } else {
            base_size = report.cover_size;
            "-".into()
        };
        t.row(&[
            preselect.to_string(),
            report.total_ms.to_string(),
            report.cover_size.to_string(),
            delta,
        ]);
    }
}
