//! The §3.3 baselines of Table 2 against the closure oracle: the
//! node-capped partitioner of [26] under both joins, the engine's
//! partitioners under the one-link-at-a-time join, the partitioner's own
//! invariants, repeatability, and the size of `table2`'s `baseline` row.

use hopi_bench::baseline::{self, Join};
use hopi_bench::old_partitioner::{self, OldPartitionerConfig};
use hopi_bench::scaled_px_cap;
use hopi_build::{build_index, BuildConfig, BuildReport, HopiIndex, PartitionerChoice};
use hopi_graph::TransitiveClosure;
use hopi_partition::{tc_partitioner, EdgeWeightStrategy, Partitioning, TcPartitionerConfig};
use hopi_xml::generator::{dblp, inex, random_collection, DblpConfig, InexConfig, RandomConfig};
use hopi_xml::{Collection, XmlDocument};
use proptest::prelude::*;

/// How a configuration partitions the collection.
type Partitioner = fn(&Collection) -> Partitioning;

fn node_capped_40(c: &Collection) -> Partitioning {
    old_partitioner::partition(
        c,
        &OldPartitionerConfig {
            max_nodes_per_partition: 40,
            ..Default::default()
        },
    )
}

fn closure_budget_300(c: &Collection) -> Partitioning {
    tc_partitioner::partition(
        c,
        &TcPartitionerConfig {
            max_connections_per_partition: 300,
            ..Default::default()
        },
    )
}

/// Partitioner, join, and whether link targets are preselected as centers:
/// the node-capped partitioner with preselection under both joins, and the
/// engine's per-document and closure-budget partitioners under the
/// incremental join.
fn configurations() -> Vec<(Partitioner, Join, bool)> {
    vec![
        (node_capped_40, Join::Incremental, true),
        (node_capped_40, Join::Psg, true),
        (Partitioning::per_document, Join::Incremental, false),
        (closure_budget_300, Join::Incremental, false),
    ]
}

fn build_all(c: &Collection) -> Vec<(HopiIndex, BuildReport)> {
    configurations()
        .into_iter()
        .map(|(partition, join, preselect)| {
            let config = BuildConfig {
                preselect_link_targets: preselect,
                ..Default::default()
            };
            let (index, report) = baseline::build(c, partition, join, &config);
            assert_eq!(report.cover_size, index.size());
            index.cover().check_invariants();
            (index, report)
        })
        .collect()
}

fn oracle_check(c: &Collection, index: &HopiIndex) {
    let tc = TransitiveClosure::from_graph(&c.element_graph());
    let n = c.elem_id_bound() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(index.connected(u, v), tc.contains(u, v), "pair ({u},{v})");
        }
    }
}

#[test]
fn dblp_like_collection_all_baselines() {
    let c = dblp(&DblpConfig::scaled(0.003));
    for (index, _) in build_all(&c) {
        oracle_check(&c, &index);
    }
}

#[test]
fn random_cyclic_collections_all_baselines() {
    for seed in [3u64, 11, 29] {
        let c = random_collection(&RandomConfig {
            num_docs: 10,
            elements_range: (2, 7),
            num_links: 18,
            num_intra_links: 6,
            allow_cycles: true,
            seed,
            text: Default::default(),
        });
        for (index, _) in build_all(&c) {
            oracle_check(&c, &index);
        }
    }
}

#[test]
fn inex_like_tree_collection_has_nothing_to_join() {
    let c = inex(&InexConfig {
        num_docs: 6,
        mean_elements: 40,
        max_depth: 7,
        seed: 5,
        text: Default::default(),
    });
    for (index, report) in build_all(&c) {
        assert_eq!(report.cross_links, 0);
        assert_eq!(report.join_entries, 0);
        oracle_check(&c, &index);
    }
}

/// The §3.3 baseline built twice is the same cover, row for row.
#[test]
fn repeated_baseline_builds_are_identical() {
    let c = dblp(&DblpConfig::scaled(0.008));
    let build = || {
        baseline::build(
            &c,
            |c| old_partitioner::partition(c, &OldPartitionerConfig::default()),
            Join::Incremental,
            &BuildConfig::default(),
        )
        .0
    };
    let (a, b) = (build(), build());
    assert_eq!(a.size(), b.size());
    for u in 0..c.elem_id_bound() as u32 {
        assert_eq!(a.cover().lin(u), b.cover().lin(u), "lin({u})");
        assert_eq!(a.cover().lout(u), b.cover().lout(u), "lout({u})");
    }
}

/// `table2`'s `baseline` row at DBLP 0.01: the node-capped partitioner at
/// the scaled P5 cap, joined one link at a time.
#[test]
fn table2_baseline_row_is_pinned() {
    let c = dblp(&DblpConfig::scaled(0.01));
    let config = OldPartitionerConfig {
        max_nodes_per_partition: scaled_px_cap(5.0, c.element_count()),
        ..Default::default()
    };
    let (index, report) = baseline::build(
        &c,
        |c| old_partitioner::partition(c, &config),
        Join::Incremental,
        &BuildConfig::default(),
    );
    assert_eq!((report.partitions, report.cross_links), (4, 130));
    assert!(report.psg.is_none());
    assert_eq!(index.size(), 23_009);
}

/// A random collection blueprint: element counts per document and links
/// between arbitrary elements.
#[derive(Debug, Clone)]
struct CollectionPlan {
    docs: Vec<usize>,
    links: Vec<(usize, u32, usize, u32)>, // (doc_a, raw_elem, doc_b, raw_elem)
}

fn arb_plan() -> impl Strategy<Value = CollectionPlan> {
    let docs = proptest::collection::vec(1usize..6, 2..8);
    docs.prop_flat_map(|docs| {
        let n = docs.len();
        let links = proptest::collection::vec((0..n, 0u32..8, 0..n, 0u32..8), 0..12);
        (Just(docs), links).prop_map(|(docs, links)| CollectionPlan { docs, links })
    })
}

fn realize(plan: &CollectionPlan) -> Collection {
    let mut c = Collection::new();
    for (i, &n) in plan.docs.iter().enumerate() {
        let mut d = XmlDocument::new(format!("d{i}"), "r");
        for k in 1..n {
            // Chain/stars mix: attach to element k/2.
            d.add_element((k / 2) as u32, "e");
        }
        c.add_document(d);
    }
    for &(da, ea, db, eb) in &plan.links {
        if da == db {
            continue;
        }
        let (da, db) = (da as u32, db as u32);
        let la = ea % c.document(da).unwrap().len() as u32;
        let lb = eb % c.document(db).unwrap().len() as u32;
        c.add_link(c.global_id(da, la), c.global_id(db, lb));
    }
    c
}

/// A blueprint of up to twelve documents linked root to root.
type Blueprint = (Vec<usize>, Vec<(usize, usize)>);

fn arb_blueprint() -> impl Strategy<Value = Blueprint> {
    let docs = proptest::collection::vec(1usize..8, 2..12);
    docs.prop_flat_map(|docs| {
        let n = docs.len();
        let links = proptest::collection::vec((0..n, 0..n), 0..20);
        (Just(docs), links)
    })
}

fn realize_blueprint((docs, links): &Blueprint) -> Collection {
    let mut c = Collection::new();
    for (i, &n) in docs.iter().enumerate() {
        let mut d = XmlDocument::new(format!("d{i}"), "r");
        for k in 1..n {
            d.add_element((k - 1) as u32 / 2, "e");
        }
        c.add_document(d);
    }
    for &(a, b) in links {
        if a != b {
            let (a, b) = (a as u32, b as u32);
            c.add_link(c.global_id(a, 0), c.global_id(b, 0));
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arbitrary_collection_incremental_join(plan in arb_plan()) {
        let c = realize(&plan);
        let (index, _) = baseline::build(
            &c,
            Partitioning::per_document,
            Join::Incremental,
            &BuildConfig::default(),
        );
        let tc = TransitiveClosure::from_graph(&c.element_graph());
        let n = c.elem_id_bound() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(index.connected(u, v), tc.contains(u, v), "pair ({},{})", u, v);
            }
        }
    }

    #[test]
    fn psg_and_incremental_answer_identically(plan in arb_plan()) {
        let c = realize(&plan);
        let budget = TcPartitionerConfig {
            max_connections_per_partition: 60,
            ..Default::default()
        };
        let config = BuildConfig {
            partitioner: PartitionerChoice::Tc(budget.clone()),
            ..Default::default()
        };
        let (a, _) = build_index(&c, &config);
        let (b, _) = baseline::build(
            &c,
            |c| tc_partitioner::partition(c, &budget),
            Join::Incremental,
            &config,
        );
        let n = c.elem_id_bound() as u32;
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(a.connected(u, v), b.connected(u, v));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn old_partitioner_invariants(bp in arb_blueprint(), cap in 4u64..40) {
        let c = realize_blueprint(&bp);
        let p = old_partitioner::partition(&c, &OldPartitionerConfig {
            max_nodes_per_partition: cap,
            strategy: EdgeWeightStrategy::LinkCount,
            seed: 5,
        });
        p.check_invariants(&c);
        for part in &p.partitions {
            prop_assert!(
                part.node_weight <= cap || part.docs.len() == 1,
                "weight {} cap {cap} docs {}", part.node_weight, part.docs.len()
            );
        }
    }
}
