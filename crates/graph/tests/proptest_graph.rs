//! Property-based tests for the graph substrate: the transitive closure,
//! the condensing walk, and traversal primitives must agree with naive
//! oracles on arbitrary random digraphs (including cyclic ones).

use hopi_graph::traversal::{bfs_distances, is_reachable, reachable_from, reaching_to};
use hopi_graph::{reach_rows, DiGraph, DistanceClosure, NodeId, TransitiveClosure};
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

/// The walk's row of every node of `g`, every node its own target slot.
fn all_rows(g: &DiGraph) -> Vec<Vec<u32>> {
    let n = g.id_bound();
    let starts: Vec<NodeId> = (0..n as u32).collect();
    let succ = |v, out: &mut Vec<NodeId>| out.extend_from_slice(g.successors(v));
    let rows = reach_rows(n, &starts, n, Some, succ);
    rows.iter().map(|r| r.to_vec()).collect()
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

    /// From any start set, on cyclic graphs with self-loops and dead
    /// slots, the walk's rows are BFS reachability cut to target slots
    /// numbered in a random order.
    #[test]
    fn walk_rows_match_bfs(
        (n, edges) in arb_graph(40, 120),
        picks in proptest::collection::vec(0u8..16, 40),
        seed in 0u64..u64::MAX,
    ) {
        use rand::prelude::*;
        let mut g = build(n, &edges);
        let pick = |v: u32| picks[v as usize];
        for v in 0..n {
            if pick(v) & 4 != 0 {
                g.add_edge(v, v);
            }
            if pick(v) & 12 == 12 {
                g.remove_node(v);
            }
        }
        let mut targets: Vec<u32> = (0..n).filter(|&v| g.is_alive(v) && pick(v) & 2 != 0).collect();
        targets.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut slot_of = vec![None; n as usize];
        for (j, &t) in targets.iter().enumerate() {
            slot_of[t as usize] = Some(j as u32);
        }
        let starts: Vec<u32> = (0..n).filter(|&v| pick(v) & 1 != 0).collect();
        let rows = reach_rows(
            n as usize,
            &starts,
            targets.len(),
            |v| slot_of[v as usize],
            |v, out: &mut Vec<NodeId>| out.extend_from_slice(g.successors(v)),
        );
        prop_assert_eq!(rows.len(), starts.len());
        for (row, &s) in rows.iter().zip(&starts) {
            let mut want: Vec<u32> = reachable_from(&g, s)
                .iter()
                .filter_map(|v| slot_of[v as usize])
                .collect();
            want.sort_unstable();
            prop_assert_eq!(row.len(), targets.len());
            prop_assert_eq!(row.to_vec(), want, "row of {}", s);
        }
    }

    /// The walk condenses exactly the strongly connected components: two
    /// nodes get the same row iff they are mutually reachable.
    #[test]
    fn scc_partition_is_exact((n, edges) in arb_graph(30, 90)) {
        let g = build(n, &edges);
        let rows = all_rows(&g);
        for u in 0..n {
            for v in 0..n {
                let same = rows[u as usize] == rows[v as usize];
                let mutual = is_reachable(&g, u, v) && is_reachable(&g, v, u);
                prop_assert_eq!(same, mutual, "nodes {} {}", u, v);
            }
        }
    }

    /// Along every edge `u → v` the row of `v` lies within the row of `u`,
    /// and strictly so unless `v` reaches back: the condensed components
    /// form a DAG.
    #[test]
    fn condensation_dag_is_acyclic((n, edges) in arb_graph(30, 90)) {
        let g = build(n, &edges);
        let rows = all_rows(&g);
        for &(u, v) in &edges {
            let (ru, rv) = (&rows[u as usize], &rows[v as usize]);
            prop_assert!(rv.iter().all(|x| ru.contains(x)), "edge {}->{}", u, v);
            prop_assert_eq!(ru == rv, is_reachable(&g, v, u), "edge {}->{}", u, v);
        }
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
