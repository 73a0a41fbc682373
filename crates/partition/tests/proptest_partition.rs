//! Property tests for the partitioners: any partitioning must be a disjoint
//! cover of the live documents with exactly the crossing links in `L_P`,
//! closure budgets must hold, and the PSG must witness exactly the
//! source→target connectivity of the underlying element graph. The
//! node-capped partitioner of [26] is checked in `hopi-bench`.

use hopi_graph::{traversal, FixedBitSet, TransitiveClosure};
use hopi_partition::{
    build_partition_covers, tc_partitioner, BuildConfig, EdgeWeightStrategy,
    PartitionSkeletonGraph, Partitioning, TcPartitionerConfig,
};
use hopi_xml::{Collection, XmlDocument};
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
        for (pi, part) in p.partitions.iter().enumerate() {
            // Tracked closure size matches a fresh computation.
            let (g, _, _) = p.partition_element_graph(&c, pi as u32);
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
            for pi in 0..p.len() as u32 {
                let (g, l2g, g2l) = p.partition_element_graph(&c, pi);
                let tc = TransitiveClosure::from_graph(&g);
                let global = |row: &FixedBitSet| {
                    let mut out: Vec<_> = row.iter().map(|l| l2g[l as usize]).collect();
                    out.sort_unstable();
                    out
                };
                let members: Vec<u32> = (0..n).filter(|&x| psg.partition[x as usize] == pi).collect();
                for &x in &members {
                    let lx = g2l[&psg.nodes[x as usize]];
                    prop_assert_eq!(&psg.desc[x as usize], &global(tc.descendants(lx)));
                    prop_assert_eq!(&psg.anc[x as usize], &global(tc.ancestors(lx)));
                    for &y in members.iter().filter(|&&y| y != x) {
                        let reach = tc.contains(lx, g2l[&psg.nodes[y as usize]]);
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
        let total_edges: usize = (0..p.len() as u32)
            .map(|i| p.partition_element_graph(&c, i).0.edge_count())
            .sum();
        prop_assert_eq!(
            total_edges + p.cross_links.len(),
            c.element_graph().edge_count()
        );
    }
}
