//! The redundancy ruler against the closure oracle: what it leaves of a
//! cover answers every pair like the transitive closure, on partitioned
//! builds of DBLP 0.01 and of a random cyclic collection.

use hopi_bench::redundancy;
use hopi_build::{build_index, BuildConfig, PartitionerChoice};
use hopi_graph::TransitiveClosure;
use hopi_partition::TcPartitionerConfig;
use hopi_xml::generator::{dblp, random_collection, DblpConfig, RandomConfig};
use hopi_xml::Collection;

/// Prunes the cover of a closure-budget build of `c` and checks every
/// pair of the result against the closure. Returns the sizes before and
/// after.
fn pruned_answers_like_the_closure(c: &Collection, budget: u64) -> (usize, usize) {
    let config = BuildConfig {
        partitioner: PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: budget,
            ..Default::default()
        }),
        ..Default::default()
    };
    let (index, report) = build_index(c, &config);
    assert!(report.partitions > 1, "the build joins partitions");
    let pruned = redundancy::prune(index.cover());
    let g = c.element_graph();
    let tc = TransitiveClosure::from_graph(&g);
    for u in 0..g.id_bound() as u32 {
        let reached: Vec<u32> = tc.descendants(u).iter().collect();
        assert_eq!(pruned.descendants(u), reached, "descendants of {u}");
        let reaching: Vec<u32> = tc.ancestors(u).iter().collect();
        assert_eq!(pruned.ancestors(u), reaching, "ancestors of {u}");
    }
    pruned.check_invariants();
    (index.size(), pruned.size())
}

#[test]
fn pruned_dblp_cover_stays_exact() {
    let (size, pruned) = pruned_answers_like_the_closure(&dblp(&DblpConfig::scaled(0.01)), 20_000);
    assert!(pruned < size, "{pruned} of {size}");
}

#[test]
fn pruned_random_cyclic_cover_stays_exact() {
    let c = random_collection(&RandomConfig {
        num_docs: 40,
        num_links: 90,
        num_intra_links: 30,
        allow_cycles: true,
        seed: 7,
        ..Default::default()
    });
    let (size, pruned) = pruned_answers_like_the_closure(&c, 400);
    assert!(pruned <= size);
}
