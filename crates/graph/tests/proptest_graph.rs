//! Property-based tests for the graph substrate: the transitive closure,
//! SCC decomposition, and traversal primitives must agree with naive oracles
//! on arbitrary random digraphs (including cyclic ones).

use hopi_graph::closure::region_closure;
use hopi_graph::traversal::{bfs_distances, is_reachable, reachable_from, reaching_to};
use hopi_graph::{
    condensation, tarjan_scc, topo_sort, Csr, DiGraph, DistanceClosure, FixedBitSet,
    TransitiveClosure,
};
use proptest::prelude::*;

/// An arbitrary digraph as (node count, edge list).
fn arb_graph(max_n: u32, max_edges: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..=max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..=max_edges);
        (Just(n), edges)
    })
}

fn build(n: u32, edges: &[(u32, u32)]) -> DiGraph {
    let mut g = DiGraph::new();
    g.ensure_node(n - 1);
    for &(u, v) in edges {
        g.add_edge(u, v);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn closure_matches_bfs((n, edges) in arb_graph(40, 120)) {
        let g = build(n, &edges);
        let tc = TransitiveClosure::from_graph(&g);
        for u in 0..n {
            let oracle = reachable_from(&g, u);
            prop_assert_eq!(tc.descendants(u).to_vec(), oracle.to_vec());
        }
    }

    #[test]
    fn ancestors_are_transpose_of_descendants((n, edges) in arb_graph(35, 100)) {
        let g = build(n, &edges);
        let tc = TransitiveClosure::from_graph(&g);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    tc.descendants(u).contains(v),
                    tc.ancestors(v).contains(u)
                );
            }
        }
    }

    #[test]
    fn incremental_closure_equals_batch((n, edges) in arb_graph(30, 80)) {
        let g = build(n, &edges);
        let mut inc = TransitiveClosure::new();
        inc.ensure_node(n - 1);
        for &(u, v) in &edges {
            inc.insert_edge(u, v);
        }
        let batch = TransitiveClosure::from_graph(&g);
        prop_assert_eq!(inc.connection_count(), batch.connection_count());
        for u in 0..n {
            prop_assert_eq!(inc.descendants(u).to_vec(), batch.descendants(u).to_vec());
        }
    }

    #[test]
    fn distance_closure_matches_bfs((n, edges) in arb_graph(25, 70)) {
        let g = build(n, &edges);
        let dc = DistanceClosure::from_graph(&g);
        for u in 0..n {
            let d = bfs_distances(&g, u);
            for v in 0..n {
                let expect = (d[v as usize] != u32::MAX).then_some(d[v as usize]);
                prop_assert_eq!(dc.dist(u, v), expect);
            }
        }
    }

    #[test]
    fn scc_partition_is_exact((n, edges) in arb_graph(30, 90)) {
        let g = build(n, &edges);
        let comps = tarjan_scc(&g);
        // Every live node appears exactly once.
        let mut seen = vec![0u32; n as usize];
        for c in &comps {
            for &v in c {
                seen[v as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        // Two nodes share a component iff mutually reachable.
        let cond = condensation(&g);
        for u in 0..n {
            for v in 0..n {
                let same = cond.component_of[u as usize] == cond.component_of[v as usize];
                let mutual = is_reachable(&g, u, v) && is_reachable(&g, v, u);
                prop_assert_eq!(same, mutual, "nodes {} {}", u, v);
            }
        }
    }

    #[test]
    fn condensation_dag_is_acyclic((n, edges) in arb_graph(30, 90)) {
        let g = build(n, &edges);
        let cond = condensation(&g);
        prop_assert!(topo_sort(&cond.dag).is_ok());
    }

    #[test]
    fn reaching_to_is_reverse((n, edges) in arb_graph(30, 90)) {
        let g = build(n, &edges);
        let rev = g.reversed();
        for v in 0..n {
            prop_assert_eq!(
                reaching_to(&g, v).to_vec(),
                reachable_from(&rev, v).to_vec()
            );
        }
    }

    #[test]
    fn region_closure_rows_match_bfs(
        (n, edges) in arb_graph(150, 400),
        dead in proptest::collection::vec(0u32..150, 0..20),
        picks in proptest::collection::vec(0u8..4, 150),
    ) {
        let mut g = build(n, &edges);
        for d in dead {
            g.remove_node(d % n);
        }
        // Any ascending region, dead slots included, and any target set,
        // which may reach outside the region.
        let region: Vec<u32> = (0..n).filter(|&v| picks[v as usize] & 1 != 0).collect();
        let targets: FixedBitSet = (0..n).filter(|&v| picks[v as usize] & 2 != 0).collect();
        let rows = region_closure(&g, &region, &targets);
        prop_assert_eq!(rows.len(), region.len());
        for (i, &x) in region.iter().enumerate() {
            let reach = if g.is_alive(x) { reachable_from(&g, x) } else { FixedBitSet::new(0) };
            let want: Vec<u32> = (0..region.len() as u32)
                .filter(|&j| {
                    let y = region[j as usize];
                    targets.contains(y) && reach.contains(y)
                })
                .collect();
            prop_assert_eq!(rows[i].len(), region.len());
            prop_assert_eq!(rows[i].to_vec(), want, "row of {}", x);
        }
    }

    #[test]
    fn csr_preserves_edges((n, edges) in arb_graph(40, 120)) {
        let g = build(n, &edges);
        let csr = Csr::from_digraph(&g);
        prop_assert_eq!(csr.num_edges(), g.edge_count());
        for (u, v) in g.edges() {
            prop_assert!(csr.has_edge(u, v));
        }
        for u in 0..n {
            prop_assert_eq!(csr.neighbors(u).len(), g.out_degree(u));
        }
    }

    #[test]
    fn edge_removal_restores_reachability_subset((n, edges) in arb_graph(25, 60)) {
        // Removing an edge never adds reachability.
        let g = build(n, &edges);
        if let Some(&(u, v)) = edges.first() {
            let mut g2 = g.clone();
            g2.remove_edge(u, v);
            let tc = TransitiveClosure::from_graph(&g);
            let tc2 = TransitiveClosure::from_graph(&g2);
            for a in 0..n {
                for b in 0..n {
                    if tc2.contains(a, b) {
                        prop_assert!(tc.contains(a, b));
                    }
                }
            }
        }
    }
}
