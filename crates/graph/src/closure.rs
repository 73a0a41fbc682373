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

use crate::bitset::{FixedBitSet, WordSpan};
use crate::digraph::{DiGraph, NodeId};
use crate::walk::reach_rows;
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
}

impl TransitiveClosure {
    /// Creates an empty closure with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the closure of `g`: its [`descendant_rows`] and their
    /// transpose.
    pub fn from_graph(g: &DiGraph) -> Self {
        let desc = descendant_rows(g);
        let alive: Vec<bool> = (0..desc.len() as NodeId).map(|v| g.is_alive(v)).collect();
        let connections = desc.iter().map(FixedBitSet::count).sum();
        let anc = transpose(&desc, None);
        TransitiveClosure {
            desc,
            anc,
            alive,
            connections,
        }
    }

    /// Builds a closure-like relation from raw descendant rows.
    ///
    /// Used by the general deletion algorithm (paper §6.2, Theorem 3): the
    /// partially recomputed closure `Ĉ` (`hopi_maintenance::region`) has a row
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
        for (u, row) in rows.iter_mut().enumerate() {
            row.grow(n);
            if alive[u] {
                row.insert(u as NodeId);
            }
            connections += row.count();
        }
        let anc = transpose(&rows, sources);
        TransitiveClosure {
            desc: rows,
            anc,
            alive,
            connections,
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
        self.push_slot();
        id
    }

    /// Ensures ids `0..=id` exist and are live (reflexive pairs added for
    /// newly live nodes), mirroring [`DiGraph::ensure_node`].
    pub fn ensure_node(&mut self, id: NodeId) {
        while (self.desc.len() as NodeId) <= id {
            self.push_slot();
        }
        if !self.alive[id as usize] {
            self.alive[id as usize] = true;
            self.desc[id as usize].insert(id);
            self.anc[id as usize].insert(id);
            self.connections += 1;
        }
    }

    /// Appends a live slot whose rows store the one word of its own bit;
    /// a row stores more words as edges bring it bits there.
    fn push_slot(&mut self) {
        let id = self.desc.len() as NodeId;
        let row = || {
            let mut row = FixedBitSet::with_span(id as usize + 1, WordSpan::of_bit(id));
            row.insert(id);
            row
        };
        self.connections += 1;
        self.desc.push(row());
        self.anc.push(row());
        self.alive.push(true);
    }

    /// Inserts edge `(u, v)` into the closure, transitively. Returns the
    /// number of **new** connections created. Both endpoints must exist
    /// (use [`TransitiveClosure::ensure_node`] first).
    ///
    /// Cost is `O(|anc(u)| + |desc(v)|)` row unions — the standard
    /// incremental-closure update. Each union touches only the words
    /// `desc(v)` (or `anc(u)`) has bits in, and a row that gets bits
    /// outside its stored words is reallocated over the hull of both (with
    /// room to grow upward, see [`FixedBitSet::union_with_count_in`]).
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
        let (desc_span, anc_span) = (desc_v.word_span(), anc_u.word_span());
        let mut added = 0usize;
        for a in anc_u.iter_in(anc_span) {
            added += self.desc[a as usize].union_with_count_in(&desc_v, desc_span);
        }
        for d in desc_v.iter_in(desc_span) {
            self.anc[d as usize].union_with_in(&anc_u, anc_span);
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

/// The descendant row of every node slot of `g`, reflexive for live
/// nodes: the walk of [`reach_rows`] from every slot, every live node its
/// own target. A dead slot has no successors and no target, so its row
/// stays empty.
pub fn descendant_rows(g: &DiGraph) -> Vec<FixedBitSet> {
    let n = g.id_bound();
    let slots: Vec<NodeId> = (0..n as NodeId).collect();
    reach_rows(
        n,
        &slots,
        n,
        |v| g.is_alive(v).then_some(v),
        |v, out| out.extend_from_slice(g.successors(v)),
    )
}

/// The transpose of the `n × n` bit matrix `rows`, restricted to the rows
/// of `sources` (all rows without): row `v` of the result holds the `u`
/// with `v ∈ rows[u]`.
///
/// Works on 64 × 64 blocks: for each group of 64 rows, every word column
/// their rows have a bit in is gathered, transposed in registers and ORed
/// into the 64 result rows it covers, one word each. That is a few
/// hundred word operations per block that holds a bit, where setting the
/// bits one at a time writes a scattered row per bit. A first pass ORs
/// each gathered column instead of transposing it: bit `r` of that OR is
/// set iff result row `64·w + r` gets a word from the group, so every
/// result row is allocated once, over the span of its words.
fn transpose(rows: &[FixedBitSet], sources: Option<&FixedBitSet>) -> Vec<FixedBitSet> {
    let n = rows.len();
    // Each group of 64 rows: its index, rows, kept rows as a mask, and the
    // hull of the kept rows' words.
    let groups = || {
        rows.chunks(64).zip(0u32..).map(|(chunk, group)| {
            let kept = sources.map_or(!0, |s| s.word(group));
            let hull = (0..chunk.len())
                .filter(|r| kept >> r & 1 != 0)
                .fold(WordSpan::EMPTY, |hull, r| hull.hull(chunk[r].word_span()));
            (group, chunk, kept, hull)
        })
    };
    let mut block = [0u64; 64];
    let mut spans = vec![WordSpan::EMPTY; n];
    for (group, chunk, kept, hull) in groups() {
        for w in hull.lo..hull.hi {
            let mut column = gather(&mut block, chunk, kept, w);
            while column != 0 {
                let v = w as usize * 64 + column.trailing_zeros() as usize;
                spans[v] = spans[v].hull(WordSpan {
                    lo: group,
                    hi: group + 1,
                });
                column &= column - 1;
            }
        }
    }
    let mut out: Vec<FixedBitSet> = spans
        .iter()
        .map(|&span| FixedBitSet::with_span(n, span))
        .collect();
    for (group, chunk, kept, hull) in groups() {
        for w in hull.lo..hull.hi {
            if gather(&mut block, chunk, kept, w) == 0 {
                continue;
            }
            transpose64(&mut block);
            for (r, &bits) in block.iter().enumerate() {
                if bits != 0 {
                    out[w as usize * 64 + r].or_word(group, bits);
                }
            }
        }
    }
    out
}

/// Fills `block` with word `w` of each kept row of `chunk` (zero for the
/// others and past its end) and returns their OR.
fn gather(block: &mut [u64; 64], chunk: &[FixedBitSet], kept: u64, w: u32) -> u64 {
    let mut any = 0;
    for (r, slot) in block.iter_mut().enumerate() {
        *slot = match chunk.get(r) {
            Some(row) if kept >> r & 1 != 0 => row.word(w),
            _ => 0,
        };
        any |= *slot;
    }
    any
}

/// Transposes a 64 × 64 bit block in place: bit `c` of word `r` trades
/// places with bit `r` of word `c`. Swaps the off-diagonal halves of
/// ever smaller sub-blocks (Hacker's Delight, §7-3).
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & mask;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
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
                for row in [batch.descendants(u), batch.ancestors(u)] {
                    assert_eq!(row.stored_span(), row.word_span(), "batch row {u}");
                }
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
    fn blocked_transpose_matches_bit_by_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 63, 64, 65, 130, 200] {
            let rows: Vec<FixedBitSet> = (0..n)
                .map(|_| {
                    let mut row = FixedBitSet::new(n);
                    for v in 0..n as u32 {
                        if rng.gen_bool(0.1) {
                            row.insert(v);
                        }
                    }
                    row
                })
                .collect();
            let sources: FixedBitSet = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
            for sources in [None, Some(&sources)] {
                let mut want = vec![FixedBitSet::new(n); n];
                for (u, row) in rows.iter().enumerate() {
                    if sources.is_none_or(|s| s.contains(u as u32)) {
                        for v in row.iter() {
                            want[v as usize].insert(u as u32);
                        }
                    }
                }
                assert_eq!(transpose(&rows, sources), want, "n = {n}");
            }
        }
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
