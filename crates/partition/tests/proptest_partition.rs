//! Property tests for the partitioners: any partitioning must be a disjoint
//! cover of the live documents with exactly the crossing links in `L_P`,
//! closure budgets must hold, and the PSG must witness exactly the
//! source→target connectivity of the underlying element graph. The
//! node-capped partitioner of [26] is checked in `hopi-bench`.

use hopi_graph::{traversal, DiGraph, FixedBitSet, TransitiveClosure};
use hopi_partition::{
    build_partition_covers, tc_partitioner, BuildConfig, EdgeWeightStrategy,
    PartitionSkeletonGraph, Partitioning, TcPartitionerConfig,
};
use hopi_xml::{Collection, DocId, DocSet, LinkIndex, XmlDocument};
use proptest::prelude::*;

type Blueprint = (Vec<usize>, Vec<(usize, usize)>);

fn arb_collection() -> impl Strategy<Value = Blueprint> {
    let docs = proptest::collection::vec(1usize..8, 2..12);
    docs.prop_flat_map(|docs| {
        let n = docs.len();
        let links = proptest::collection::vec((0..n, 0..n), 0..20);
        (Just(docs), links)
    })
}

fn realize((docs, links): &Blueprint) -> Collection {
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

/// The reference a partition's walk is checked against, independent of
/// it: the element graph of a clone of `c` that keeps only `docs`, in
/// global ids.
fn reference_graph(c: &Collection, docs: &[DocId]) -> DiGraph {
    let mut only = c.clone();
    for d in c.doc_ids().filter(|d| !docs.contains(d)) {
        only.remove_document(d);
    }
    only.element_graph()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tc_partitioner_invariants(bp in arb_collection(), budget in 8u64..120) {
        let c = realize(&bp);
        let p = tc_partitioner::partition(&c, &TcPartitionerConfig {
            max_connections_per_partition: budget,
            strategy: EdgeWeightStrategy::LinkCount,
            seed: 5,
        });
        p.check_invariants(&c);
        for part in &p.partitions {
            // Tracked closure size matches a fresh computation.
            let g = reference_graph(&c, &part.docs);
            let actual = TransitiveClosure::from_graph(&g).connection_count() as u64;
            prop_assert_eq!(part.tc_size, Some(actual));
            prop_assert!(
                actual <= budget || part.docs.len() == 1,
                "closure {actual} budget {budget}"
            );
        }
    }

    #[test]
    fn psg_reachability_matches_element_graph(bp in arb_collection(), budget in 8u64..120) {
        let c = realize(&bp);
        for p in [
            Partitioning::per_document(&c),
            tc_partitioner::partition(&c, &TcPartitionerConfig {
                max_connections_per_partition: budget,
                ..Default::default()
            }),
        ] {
            let (cover, _) = build_partition_covers(&c, &p, &BuildConfig::default());
            let psg = PartitionSkeletonGraph::build(&c, &p, &cover);
            // For every (source, target) PSG pair: PSG reachability must
            // equal element-graph reachability.
            let ge = c.element_graph();
            let n = psg.len() as u32;
            for s in (0..n).filter(|&s| psg.is_source[s as usize]) {
                for t in (0..n).filter(|&t| psg.is_target[t as usize]) {
                    let psg_reach = traversal::is_reachable(&psg.graph, s, t);
                    let elem_reach =
                        traversal::is_reachable(&ge, psg.nodes[s as usize], psg.nodes[t as usize]);
                    prop_assert_eq!(
                        psg_reach, elem_reach,
                        "source {} target {}", psg.nodes[s as usize], psg.nodes[t as usize]
                    );
                }
            }
            // Each partition's own closure: the rows of a skeleton node
            // are its intra-partition reach, and two skeleton nodes of one
            // partition share an edge exactly when the first reaches the
            // second there.
            for (pi, part) in (0..).zip(&p.partitions) {
                let tc = TransitiveClosure::from_graph(&reference_graph(&c, &part.docs));
                let members: Vec<u32> = (0..n).filter(|&x| psg.partition[x as usize] == pi).collect();
                for &x in &members {
                    let gx = psg.nodes[x as usize];
                    prop_assert_eq!(&psg.desc[x as usize], &tc.descendants(gx).to_vec());
                    prop_assert_eq!(&psg.anc[x as usize], &tc.ancestors(gx).to_vec());
                    for &y in members.iter().filter(|&&y| y != x) {
                        let reach = tc.contains(gx, psg.nodes[y as usize]);
                        prop_assert_eq!(psg.graph.has_edge(x, y), reach, "{} -> {}", x, y);
                    }
                }
            }
        }
    }

    #[test]
    fn partition_graphs_tile_the_element_graph(bp in arb_collection(), budget in 8u64..200) {
        let c = realize(&bp);
        let p = tc_partitioner::partition(&c, &TcPartitionerConfig {
            max_connections_per_partition: budget,
            ..Default::default()
        });
        let total_edges: usize = p
            .partitions
            .iter()
            .map(|part| reference_graph(&c, &part.docs).edge_count())
            .sum();
        prop_assert_eq!(
            total_edges + p.cross_links.len(),
            c.element_graph().edge_count()
        );
    }
}

/// Asserts that the closure a walk confined to `docs` computes over
/// `links` equals the closure of [`reference_graph`], row by row, in both
/// directions.
fn assert_walk_matches_reference(
    c: &Collection,
    docs: &[DocId],
    links: &LinkIndex,
) -> Result<(), TestCaseError> {
    let set = DocSet::new(c, docs.iter().copied());
    let tc = set.closure(links);
    let want = TransitiveClosure::from_graph(&reference_graph(c, docs));
    let globals = set.globals();
    let global =
        |row: &FixedBitSet| -> Vec<u32> { row.iter().map(|l| globals[l as usize]).collect() };
    prop_assert_eq!(
        tc.connection_count(),
        want.connection_count(),
        "docs {:?}",
        docs
    );
    for (u, &gu) in (0..).zip(&globals) {
        prop_assert_eq!(
            global(tc.descendants(u)),
            want.descendants(gu).to_vec(),
            "desc {}",
            gu
        );
        prop_assert_eq!(
            global(tc.ancestors(u)),
            want.ancestors(gu).to_vec(),
            "anc {}",
            gu
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A walk restricted to a set of documents equals the closure of the
    /// collection with every other document removed, on random cyclic
    /// collections with intra-document links and removed documents: for
    /// every partition of the flat, per-document and closure-budget
    /// partitionings over the shared link index, and for one document
    /// over its own intra-document links (the §6.1 shape).
    #[test]
    fn partition_walks_match_the_reference(seed in 0u64..u64::MAX, budget in 8u64..200) {
        use hopi_xml::generator::{random_collection, RandomConfig};
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = random_collection(&RandomConfig {
            num_docs: rng.gen_range(2..16),
            elements_range: (1, 8),
            num_links: rng.gen_range(0..40),
            num_intra_links: rng.gen_range(0..10),
            allow_cycles: true,
            seed,
            text: Default::default(),
        });
        for _ in 0..rng.gen_range(0..3) {
            let live: Vec<DocId> = c.doc_ids().collect();
            if live.len() > 1 {
                c.remove_document(live[rng.gen_range(0..live.len())]);
            }
        }
        let links = LinkIndex::new(&c);
        for p in [
            Partitioning::single_partition(&c),
            Partitioning::per_document(&c),
            tc_partitioner::partition(&c, &TcPartitionerConfig {
                max_connections_per_partition: budget,
                ..Default::default()
            }),
        ] {
            for part in &p.partitions {
                assert_walk_matches_reference(&c, &part.docs, &links)?;
            }
        }
        let live: Vec<DocId> = c.doc_ids().collect();
        let d = live[rng.gen_range(0..live.len())];
        assert_walk_matches_reference(&c, &[d], &LinkIndex::of_document(&c, d))?;
    }
}
