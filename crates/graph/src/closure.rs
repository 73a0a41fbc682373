//! Reflexive-transitive closures with incremental edge insertion, plus a
//! distance closure for the distance-aware cover (paper §5).
//!
//! The 2-hop cover builder (paper §3.2) consumes the *reflexive and
//! transitive closure* `C(G) = (V, T(G))` of a graph. For each node the
//! closure keeps both a descendant row (`Cout`) and an ancestor row (`Cin`)
//! as bit sets — the center-graph construction needs both directions.
//!
//! [`TransitiveClosure::insert_edge`] maintains the closure incrementally and
//! reports the number of *new* connections, which is exactly what the new
//! TC-size-aware partitioner (paper §4.3) needs: it grows a partition
//! document by document "while incrementally building the partition, the
//! transitive closure of the partition and continues with the next partition
//! when the transitive closure is as large as the available memory".

use crate::bitset::FixedBitSet;
use crate::digraph::{DiGraph, NodeId};
use crate::scc::{condensation, tarjan_scc};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// Reflexive-transitive closure of a digraph over nodes `0..num_nodes`.
///
/// Connection counting **includes** the reflexive pairs `(v, v)` of live
/// nodes, matching the paper's `C(G) = (V, T(G))` with
/// `T(G) = {(x,y) | there is a path from x to y}` under reflexive closure.
#[derive(Clone, Debug, Default)]
pub struct TransitiveClosure {
    desc: Vec<FixedBitSet>,
    anc: Vec<FixedBitSet>,
    /// Live flags (a dead slot has empty rows and contributes nothing).
    alive: Vec<bool>,
    connections: usize,
    capacity: usize,
}

impl TransitiveClosure {
    /// Creates an empty closure with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the closure of `g`. Runs on the SCC condensation so cyclic
    /// graphs cost no more than their condensed DAG.
    pub fn from_graph(g: &DiGraph) -> Self {
        let n = g.id_bound();
        let cond = condensation(g);
        // Components arrive in reverse topological order (successors first),
        // so a single pass unions successor-component rows.
        let mut comp_rows: Vec<FixedBitSet> = Vec::with_capacity(cond.components.len());
        for (ci, comp) in cond.components.iter().enumerate() {
            let mut row = FixedBitSet::new(n);
            for &v in comp {
                row.insert(v);
            }
            for &succ_comp in cond.dag.successors(ci as u32) {
                // Reverse topological emission guarantees the successor row
                // is already final.
                debug_assert!((succ_comp as usize) < ci);
                row.union_with(&comp_rows[succ_comp as usize]);
            }
            comp_rows.push(row);
        }

        let mut desc: Vec<FixedBitSet> = vec![FixedBitSet::new(n); n];
        let mut alive = vec![false; n];
        let mut connections = 0usize;
        for (ci, comp) in cond.components.iter().enumerate() {
            for &v in comp {
                alive[v as usize] = true;
                connections += comp_rows[ci].count();
                desc[v as usize] = comp_rows[ci].clone();
            }
        }
        // Transpose for ancestor rows.
        let mut anc: Vec<FixedBitSet> = vec![FixedBitSet::new(n); n];
        for (u, row) in desc.iter().enumerate() {
            for v in row.iter() {
                anc[v as usize].insert(u as NodeId);
            }
        }
        TransitiveClosure {
            desc,
            anc,
            alive,
            connections,
            capacity: n,
        }
    }

    /// Builds a closure-like relation from raw descendant rows.
    ///
    /// Used by the general deletion algorithm (paper §6.2, Theorem 3): the
    /// partially recomputed closure `Ĉ` of [`region_closure`] has a row
    /// for every live element of the deleted region's ancestors `A_di` and
    /// descendants `D_di`, each cut down to its reachable nodes inside
    /// `D_di`. The 2-hop cover builder consumes the result like any
    /// closure — a center `w` chosen from a row still witnesses real paths,
    /// so the produced cover is sound.
    ///
    /// Every live node's row gets its reflexive pair; `rows.len()` fixes
    /// the node-slot count. With `sources`, ancestor rows are the transpose
    /// of the sources' rows alone: `ancestors(v)` holds the sources that
    /// reach `v`, which is all that `CoverBuilder::only_from` with the same
    /// sources reads of them.
    pub fn from_desc_rows(
        mut rows: Vec<FixedBitSet>,
        alive: Vec<bool>,
        sources: Option<&FixedBitSet>,
    ) -> Self {
        let n = rows.len();
        assert_eq!(alive.len(), n, "alive flags must match row count");
        let mut connections = 0usize;
        let mut anc: Vec<FixedBitSet> = vec![FixedBitSet::new(n); n];
        for (u, row) in rows.iter_mut().enumerate() {
            row.grow(n);
            if alive[u] {
                row.insert(u as NodeId);
            }
            connections += row.count();
            if sources.is_none_or(|s| s.contains(u as NodeId)) {
                for v in row.iter() {
                    anc[v as usize].insert(u as NodeId);
                }
            }
        }
        TransitiveClosure {
            desc: rows,
            anc,
            alive,
            connections,
            capacity: n,
        }
    }

    /// Number of node slots (including dead ones).
    pub fn num_nodes(&self) -> usize {
        self.desc.len()
    }

    /// Total number of connections, reflexive pairs included.
    pub fn connection_count(&self) -> usize {
        self.connections
    }

    /// Tests `(u, v) ∈ T(G)`.
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.desc.get(u as usize).is_some_and(|row| row.contains(v))
    }

    /// Descendant row of `u` (includes `u` itself for live nodes).
    pub fn descendants(&self, u: NodeId) -> &FixedBitSet {
        &self.desc[u as usize]
    }

    /// Ancestor row of `u` (includes `u` itself for live nodes).
    pub fn ancestors(&self, u: NodeId) -> &FixedBitSet {
        &self.anc[u as usize]
    }

    /// Whether `u` is a live node of the closure.
    pub fn is_alive(&self, u: NodeId) -> bool {
        self.alive.get(u as usize).copied().unwrap_or(false)
    }

    /// Appends a fresh isolated node and returns its id. Adds the reflexive
    /// connection.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.desc.len() as NodeId;
        self.push_slot(true);
        id
    }

    /// Ensures ids `0..=id` exist and are live (reflexive pairs added for
    /// newly live nodes), mirroring [`DiGraph::ensure_node`].
    pub fn ensure_node(&mut self, id: NodeId) {
        while (self.desc.len() as NodeId) <= id {
            self.push_slot(true);
        }
        if !self.alive[id as usize] {
            self.alive[id as usize] = true;
            self.desc[id as usize].insert(id);
            self.anc[id as usize].insert(id);
            self.connections += 1;
        }
    }

    fn push_slot(&mut self, live: bool) {
        let id = self.desc.len() as NodeId;
        if self.desc.len() == self.capacity {
            self.capacity = (self.capacity * 2).max(64);
            for row in self.desc.iter_mut().chain(self.anc.iter_mut()) {
                row.grow(self.capacity);
            }
        }
        let mut d = FixedBitSet::new(self.capacity);
        let mut a = FixedBitSet::new(self.capacity);
        if live {
            d.insert(id);
            a.insert(id);
            self.connections += 1;
        }
        self.desc.push(d);
        self.anc.push(a);
        self.alive.push(live);
    }

    /// Inserts edge `(u, v)` into the closure, transitively. Returns the
    /// number of **new** connections created. Both endpoints must exist
    /// (use [`TransitiveClosure::ensure_node`] first).
    ///
    /// Cost is `O(|anc(u)| + |desc(v)|)` row unions — the standard
    /// incremental-closure update.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> usize {
        assert!(
            self.is_alive(u) && self.is_alive(v),
            "insert_edge on unknown node ({u}, {v})"
        );
        if self.desc[u as usize].contains(v) {
            return 0;
        }
        let desc_v = self.desc[v as usize].clone();
        let anc_u = self.anc[u as usize].clone();
        let mut added = 0usize;
        for a in anc_u.iter() {
            added += self.desc[a as usize].union_with_count(&desc_v);
        }
        for d in desc_v.iter() {
            self.anc[d as usize].union_with(&anc_u);
        }
        self.connections += added;
        added
    }

    /// Iterates over all connections `(u, v)` (reflexive included).
    pub fn iter_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.desc
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.iter().map(move |v| (u as NodeId, v)))
    }
}

/// Reachability from a region into a target set, in the region's own id
/// space.
///
/// `region` lists nodes in ascending order; `region[i]` gets local id `i`.
/// Row `i` holds the local ids `j` with `region[j] ∈ targets` and
/// `region[i] →* region[j]` (reflexively); a dead node's row is empty, and
/// targets outside the region have no local id and are left out. Rows are
/// `region.len()` bits wide.
///
/// The general deletion algorithm (paper §6.2, Theorem 3) recomputes
/// reachability only from the ancestors and descendants of the deleted
/// region — "as the set of seed nodes is typically much smaller than the
/// set of all nodes, the partial recomputation is typically much faster".
/// One pass over the strongly connected components of `g`, in the reverse
/// topological order Tarjan emits them, computes every row: a component's
/// row is its own targets plus the rows of the components its members have
/// edges into, which are final by then; a component that reaches no target
/// gets none.
pub fn region_closure(g: &DiGraph, region: &[NodeId], targets: &FixedBitSet) -> Vec<FixedBitSet> {
    let m = region.len();
    let mut local = vec![u32::MAX; g.id_bound()];
    for (i, &v) in region.iter().enumerate() {
        debug_assert!(i == 0 || region[i - 1] < v, "region must ascend");
        local[v as usize] = i as u32;
    }
    let mut component_of = vec![u32::MAX; g.id_bound()];
    let mut comp_rows: Vec<Option<FixedBitSet>> = Vec::new();
    for (ci, comp) in tarjan_scc(g).iter().enumerate() {
        let mut row: Option<FixedBitSet> = None;
        for &v in comp {
            component_of[v as usize] = ci as u32;
            let l = local[v as usize];
            if l != u32::MAX && targets.contains(v) {
                row.get_or_insert_with(|| FixedBitSet::new(m)).insert(l);
            }
        }
        for &v in comp {
            for &w in g.successors(v) {
                let cw = component_of[w as usize] as usize;
                if let Some(Some(succ_row)) = comp_rows.get(cw) {
                    row.get_or_insert_with(|| FixedBitSet::new(m))
                        .union_with(succ_row);
                }
            }
        }
        comp_rows.push(row);
    }
    let row_of = |v: NodeId| match comp_rows.get(component_of[v as usize] as usize) {
        Some(Some(row)) => row.clone(),
        _ => FixedBitSet::new(m),
    };
    region.iter().map(|&v| row_of(v)).collect()
}

/// All-pairs unweighted shortest distances (the distance closure of
/// paper §5). Rows are hash maps `target → distance`; `dist(u, u) = 0`.
#[derive(Clone, Debug, Default)]
pub struct DistanceClosure {
    out_rows: Vec<FxHashMap<NodeId, u32>>,
    in_rows: Vec<FxHashMap<NodeId, u32>>,
    alive: Vec<bool>,
    connections: usize,
}

impl DistanceClosure {
    /// Creates an empty distance closure.
    pub fn new() -> Self {
        Self::default()
    }

    /// BFS from every live node. `O(n · m)` — acceptable because the
    /// partitioner bounds partition sizes, and the paper's distance-aware
    /// experiments run on reduced collections for the same reason.
    pub fn from_graph(g: &DiGraph) -> Self {
        let n = g.id_bound();
        let mut out_rows: Vec<FxHashMap<NodeId, u32>> = vec![FxHashMap::default(); n];
        let mut in_rows: Vec<FxHashMap<NodeId, u32>> = vec![FxHashMap::default(); n];
        let mut alive = vec![false; n];
        let mut connections = 0usize;
        let mut dist = vec![u32::MAX; n];
        let mut touched: Vec<NodeId> = Vec::new();
        for u in g.nodes() {
            alive[u as usize] = true;
            // In-place BFS reusing the dist scratch buffer.
            dist[u as usize] = 0;
            touched.clear();
            touched.push(u);
            let mut queue = VecDeque::from([u]);
            while let Some(x) = queue.pop_front() {
                let dx = dist[x as usize];
                for &y in g.successors(x) {
                    if dist[y as usize] == u32::MAX {
                        dist[y as usize] = dx + 1;
                        touched.push(y);
                        queue.push_back(y);
                    }
                }
            }
            for &t in &touched {
                let d = dist[t as usize];
                out_rows[u as usize].insert(t, d);
                in_rows[t as usize].insert(u, d);
                connections += 1;
                dist[t as usize] = u32::MAX;
            }
        }
        DistanceClosure {
            out_rows,
            in_rows,
            alive,
            connections,
        }
    }

    /// Number of node slots.
    pub fn num_nodes(&self) -> usize {
        self.out_rows.len()
    }

    /// Number of connections (reflexive included).
    pub fn connection_count(&self) -> usize {
        self.connections
    }

    /// Shortest distance `u →* v`, `None` if unreachable.
    pub fn dist(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.out_rows.get(u as usize)?.get(&v).copied()
    }

    /// Targets reachable from `u` with distances.
    pub fn out_row(&self, u: NodeId) -> &FxHashMap<NodeId, u32> {
        &self.out_rows[u as usize]
    }

    /// Sources reaching `u` with distances.
    pub fn in_row(&self, u: NodeId) -> &FxHashMap<NodeId, u32> {
        &self.in_rows[u as usize]
    }

    /// Whether `u` is a live node.
    pub fn is_alive(&self, u: NodeId) -> bool {
        self.alive.get(u as usize).copied().unwrap_or(false)
    }

    /// Inserts edge `(u, v)` and relaxes all distances that the new edge
    /// shortens. Every new shortest path using the edge decomposes as
    /// `a →* u → v →* d` with *old* shortest segments, so one pass over
    /// `anc(u) × desc(v)` suffices.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) {
        self.ensure_node(u);
        self.ensure_node(v);
        let mut anc_u: Vec<(NodeId, u32)> = self.in_rows[u as usize]
            .iter()
            .map(|(&a, &d)| (a, d))
            .collect();
        anc_u.push((u, 0));
        let mut desc_v: Vec<(NodeId, u32)> = self.out_rows[v as usize]
            .iter()
            .map(|(&x, &d)| (x, d))
            .collect();
        desc_v.push((v, 0));
        // Dedup (u,0)/(v,0) may already be present as reflexive entries.
        anc_u.sort_unstable();
        anc_u.dedup_by_key(|e| e.0);
        desc_v.sort_unstable();
        desc_v.dedup_by_key(|e| e.0);
        for &(a, dau) in &anc_u {
            for &(x, dvx) in &desc_v {
                let cand = dau + 1 + dvx;
                let row = &mut self.out_rows[a as usize];
                match row.get_mut(&x) {
                    Some(existing) => {
                        if cand < *existing {
                            *existing = cand;
                            self.in_rows[x as usize].insert(a, cand);
                        }
                    }
                    None => {
                        row.insert(x, cand);
                        self.in_rows[x as usize].insert(a, cand);
                        self.connections += 1;
                    }
                }
            }
        }
    }

    /// Ensures ids `0..=id` exist and are live with their reflexive entries,
    /// mirroring [`DiGraph::ensure_node`].
    pub fn ensure_node(&mut self, id: NodeId) {
        let need = id as usize + 1;
        if self.out_rows.len() < need {
            self.out_rows.resize_with(need, FxHashMap::default);
            self.in_rows.resize_with(need, FxHashMap::default);
            self.alive.resize(need, false);
        }
        for i in 0..need {
            if !self.alive[i] {
                self.alive[i] = true;
                self.out_rows[i].insert(i as NodeId, 0);
                self.in_rows[i].insert(i as NodeId, 0);
                self.connections += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{is_reachable, reachable_from};
    use rand::prelude::*;

    fn diamond() -> DiGraph {
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn closure_of_diamond() {
        let tc = TransitiveClosure::from_graph(&diamond());
        assert!(tc.contains(0, 3));
        assert!(tc.contains(0, 0)); // reflexive
        assert!(!tc.contains(3, 0));
        // 4 reflexive + 0->{1,2,3} + 1->3 + 2->3
        assert_eq!(tc.connection_count(), 9);
        assert_eq!(tc.descendants(0).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(tc.ancestors(3).to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn closure_with_cycle() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        let tc = TransitiveClosure::from_graph(&g);
        assert!(tc.contains(0, 0) && tc.contains(0, 1) && tc.contains(1, 0));
        assert!(tc.contains(0, 2) && tc.contains(1, 2));
        assert!(!tc.contains(2, 0));
        assert_eq!(tc.connection_count(), 7);
    }

    #[test]
    fn incremental_matches_batch() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..30 {
            let n = 30u32;
            let mut g = DiGraph::new();
            let mut tc = TransitiveClosure::new();
            for _ in 0..n {
                let id = tc.add_node();
                g.ensure_node(id);
            }
            for _ in 0..60 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                g.add_edge(u, v);
                tc.insert_edge(u, v);
            }
            let batch = TransitiveClosure::from_graph(&g);
            assert_eq!(tc.connection_count(), batch.connection_count());
            for u in 0..n {
                assert_eq!(
                    tc.descendants(u).to_vec(),
                    batch.descendants(u).to_vec(),
                    "desc row {u}"
                );
                assert_eq!(
                    tc.ancestors(u).to_vec(),
                    batch.ancestors(u).to_vec(),
                    "anc row {u}"
                );
            }
        }
    }

    #[test]
    fn insert_edge_returns_new_connection_count() {
        let mut tc = TransitiveClosure::new();
        for _ in 0..4 {
            tc.add_node();
        }
        assert_eq!(tc.connection_count(), 4);
        assert_eq!(tc.insert_edge(0, 1), 1);
        assert_eq!(tc.insert_edge(1, 2), 2); // 1->2 and 0->2
        assert_eq!(tc.insert_edge(0, 2), 0); // already implied
        assert_eq!(tc.insert_edge(2, 0), 3); // closes a cycle: 1->0, 2->0, 2->1
        assert_eq!(tc.connection_count(), 10);
    }

    #[test]
    fn ensure_node_makes_all_slots_live() {
        let mut tc = TransitiveClosure::new();
        tc.ensure_node(5);
        assert!(tc.is_alive(5));
        assert!(tc.is_alive(3));
        assert_eq!(tc.connection_count(), 6);
        tc.ensure_node(3); // idempotent
        assert_eq!(tc.connection_count(), 6);
    }

    #[test]
    fn closure_matches_bfs_oracle_random() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 60u32;
        let mut g = DiGraph::new();
        g.ensure_node(n - 1);
        for _ in 0..150 {
            g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        let tc = TransitiveClosure::from_graph(&g);
        for u in 0..n {
            let oracle = reachable_from(&g, u);
            assert_eq!(tc.descendants(u).to_vec(), oracle.to_vec());
        }
    }

    #[test]
    fn iter_pairs_consistent_with_count() {
        let tc = TransitiveClosure::from_graph(&diamond());
        assert_eq!(tc.iter_pairs().count(), tc.connection_count());
        assert!(tc.iter_pairs().all(|(u, v)| tc.contains(u, v)));
    }

    #[test]
    fn region_closure_rows_are_local_and_cut_to_targets() {
        // Diamond 0 → {1, 2} → 3 plus 4 → 0; region {1, 2, 3, 4} is local
        // 0..4, targets {3, 4}: 4 reaches 3 through 0, which is outside.
        let mut g = diamond();
        g.add_edge(4, 0);
        let targets: FixedBitSet = [3u32, 4].into_iter().collect();
        let rows = region_closure(&g, &[1, 2, 3, 4], &targets);
        let rows: Vec<Vec<u32>> = rows.iter().map(FixedBitSet::to_vec).collect();
        assert_eq!(rows, vec![vec![2], vec![2], vec![2], vec![2, 3]]);
    }

    #[test]
    fn from_desc_rows_transposes_only_sources() {
        let rows = vec![
            [1u32, 2].into_iter().collect(),
            [2u32].into_iter().collect(),
            FixedBitSet::new(3),
        ];
        let sources: FixedBitSet = [0u32].into_iter().collect();
        let tc = TransitiveClosure::from_desc_rows(rows, vec![true; 3], Some(&sources));
        assert_eq!(tc.descendants(1).to_vec(), vec![1, 2]);
        assert_eq!(tc.ancestors(2).to_vec(), vec![0]);
        assert_eq!(tc.ancestors(1).to_vec(), vec![0]);
        assert_eq!(tc.connection_count(), 6);
    }

    #[test]
    fn distance_closure_diamond() {
        let dc = DistanceClosure::from_graph(&diamond());
        assert_eq!(dc.dist(0, 3), Some(2));
        assert_eq!(dc.dist(0, 0), Some(0));
        assert_eq!(dc.dist(3, 0), None);
        assert_eq!(dc.connection_count(), 9);
    }

    #[test]
    fn distance_closure_prefers_shortcut() {
        let mut g = diamond();
        g.add_edge(0, 3);
        let dc = DistanceClosure::from_graph(&g);
        assert_eq!(dc.dist(0, 3), Some(1));
        assert_eq!(dc.in_row(3)[&0], 1);
    }

    #[test]
    fn distance_incremental_insert_matches_batch() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let n = 25u32;
            let mut g = DiGraph::new();
            g.ensure_node(n - 1);
            let mut dc = DistanceClosure::new();
            for id in 0..n {
                dc.ensure_node(id);
            }
            for _ in 0..50 {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                g.add_edge(u, v);
                dc.insert_edge(u, v);
            }
            let batch = DistanceClosure::from_graph(&g);
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(dc.dist(u, v), batch.dist(u, v), "dist({u},{v})");
                }
            }
        }
    }

    #[test]
    fn is_reachable_agrees_with_closure() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 40u32;
        let mut g = DiGraph::new();
        g.ensure_node(n - 1);
        for _ in 0..80 {
            g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        let tc = TransitiveClosure::from_graph(&g);
        for _ in 0..200 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            assert_eq!(tc.contains(u, v), is_reachable(&g, u, v));
        }
    }
}
