//! Reachability rows by one condensing depth-first walk.
//!
//! Every batch closure the index computes runs through [`reach_rows`]:
//! [`crate::TransitiveClosure::from_graph`] (the PSG skeleton, the
//! oracles) and the walks `hopi_xml::walk` reads off a collection — a
//! partition's closure (§4), a new document's (§6.1), Theorem 3's
//! partial closure `Ĉ` (§6.2), which starts only from the deleted region,
//! and the flat closure `hopi-bench` counts. The closure-budget
//! partitioner's closure is the exception: it grows one edge at a time
//! ([`crate::TransitiveClosure::insert_edge`]). Link cycles between XML
//! documents are legal, so the walk condenses strongly connected
//! components as it goes and the members of one share their row.

use crate::bitset::{FixedBitSet, WordSpan};
use crate::digraph::NodeId;

const NONE: u32 = u32::MAX;
/// The walk id of a dead end: a node without successors or target slot.
const DEAD: u32 = u32::MAX - 1;

/// The targets each of `starts` reaches, reflexively, as rows of `width`
/// target slots: row `i` holds `slot(v)` for every `v` with
/// `starts[i] →* v` and a slot. Node ids lie below `id_bound`;
/// `successors(v, out)` appends the successors of `v` to `out`, and is
/// called at most once per node.
///
/// One depth-first walk from the starts reads each node's successors as
/// it first reaches it. An iterative Tarjan over the walk emits the
/// strongly connected components of the nodes reached, successors first.
/// A component's row is its own slots plus the rows of the components its
/// members have edges into, which are final by then; it stores only the
/// hull of those words, and a component that reaches no target gets no
/// row. The last start in a component takes its row, the others get
/// copies. A node with no successors and no slot is a dead end: its row
/// would be empty and no path runs through it, so the walk does not enter
/// it (most elements of a document tree are such leaves). Nothing the
/// starts do not reach is read.
pub fn reach_rows(
    id_bound: usize,
    starts: &[NodeId],
    width: usize,
    slot: impl Fn(NodeId) -> Option<u32>,
    successors: impl FnMut(NodeId, &mut Vec<NodeId>),
) -> Vec<FixedBitSet> {
    let mut walk = Walk {
        slot,
        successors,
        width,
        walk_id: vec![NONE; id_bound],
        node: Vec::new(),
        succ: Vec::new(),
        succ_range: Vec::new(),
        lowlink: Vec::new(),
        component: Vec::new(),
        stack: Vec::new(),
        calls: Vec::new(),
        row_of: Vec::new(),
        merged_into: Vec::new(),
        rows: Vec::new(),
        own: Vec::new(),
        merge: Vec::new(),
    };
    for &s in starts {
        if walk.walk_id[s as usize] == NONE {
            walk.enter(s);
            walk.run();
        }
    }
    let row_of: Vec<u32> = starts
        .iter()
        .map(|&s| match walk.walk_id[s as usize] {
            DEAD => NONE,
            v => walk.row_of[walk.component[v as usize] as usize],
        })
        .collect();
    // A row moves to the last start that has it; the starts before it in
    // its component get copies.
    let mut last = vec![NONE; walk.rows.len()];
    for (i, &row) in (0..).zip(&row_of) {
        if row != NONE {
            last[row as usize] = i;
        }
    }
    (0..)
        .zip(&row_of)
        .map(|(i, &row)| match row {
            NONE => FixedBitSet::with_span(width, WordSpan::EMPTY),
            row if last[row as usize] == i => std::mem::take(&mut walk.rows[row as usize]),
            row => walk.rows[row as usize].clone(),
        })
        .collect()
}

/// The state of [`reach_rows`]'s walk. Walk ids number the nodes in the
/// order the walk enters them, so they double as Tarjan's indices.
struct Walk<T, S> {
    slot: T,
    successors: S,
    /// Target slots per row.
    width: usize,
    /// Node id → walk id: [`NONE`] until reached, [`DEAD`] for a dead end.
    walk_id: Vec<u32>,
    /// Per walk id: the node and the range of `succ` holding its
    /// successors.
    node: Vec<NodeId>,
    succ: Vec<NodeId>,
    succ_range: Vec<(u32, u32)>,
    lowlink: Vec<u32>,
    /// Per walk id: its component, [`NONE`] while on Tarjan's stack.
    component: Vec<u32>,
    stack: Vec<u32>,
    /// The depth-first call stack: a walk id and its next successor.
    calls: Vec<(u32, u32)>,
    /// Per component: its row in `rows`, or [`NONE`] when it reaches no
    /// target; and the last component that merged its row.
    row_of: Vec<u32>,
    merged_into: Vec<u32>,
    rows: Vec<FixedBitSet>,
    /// Scratch of one [`Walk::close_component`]: the component's own
    /// slots and the rows it merges.
    own: Vec<u32>,
    merge: Vec<u32>,
}

impl<T, S> Walk<T, S>
where
    T: Fn(NodeId) -> Option<u32>,
    S: FnMut(NodeId, &mut Vec<NodeId>),
{
    /// Reaches `v`: reads its successors and, unless it is a dead end,
    /// numbers it and pushes it on both stacks.
    fn enter(&mut self, v: NodeId) {
        let lo = self.succ.len() as u32;
        (self.successors)(v, &mut self.succ);
        let hi = self.succ.len() as u32;
        if lo == hi && (self.slot)(v).is_none() {
            self.walk_id[v as usize] = DEAD;
            return;
        }
        let id = self.node.len() as u32;
        self.walk_id[v as usize] = id;
        self.node.push(v);
        self.succ_range.push((lo, hi));
        self.lowlink.push(id);
        self.component.push(NONE);
        self.stack.push(id);
        self.calls.push((id, lo));
    }

    /// Runs the depth-first walk until the call stack empties.
    fn run(&mut self) {
        while let Some(&(v, pos)) = self.calls.last() {
            let vi = v as usize;
            if pos < self.succ_range[vi].1 {
                self.calls.last_mut().expect("a call").1 += 1;
                let w = self.succ[pos as usize];
                match self.walk_id[w as usize] {
                    NONE => self.enter(w),
                    DEAD => {}
                    wv if self.component[wv as usize] == NONE => {
                        self.lowlink[vi] = self.lowlink[vi].min(wv);
                    }
                    _ => {}
                }
            } else {
                self.calls.pop();
                if let Some(&(p, _)) = self.calls.last() {
                    let p = p as usize;
                    self.lowlink[p] = self.lowlink[p].min(self.lowlink[vi]);
                }
                if self.lowlink[vi] == v {
                    self.close_component(v);
                }
            }
        }
    }

    /// Pops the component rooted at `root` off Tarjan's stack and builds
    /// its row from its own slots and its successor components' rows. The
    /// row is allocated once, over the hull of its slots' words and those
    /// rows' spans, which are final by then.
    fn close_component(&mut self, root: u32) {
        let c = self.row_of.len() as u32;
        // Walk ids enter the stack in ascending order.
        let at = self.stack.partition_point(|&x| x < root);
        for &x in &self.stack[at..] {
            self.component[x as usize] = c;
        }
        self.own.clear();
        self.merge.clear();
        let mut span = WordSpan::EMPTY;
        for &x in &self.stack[at..] {
            if let Some(j) = (self.slot)(self.node[x as usize]) {
                self.own.push(j);
                span = span.hull(WordSpan::of_bit(j));
            }
            let (lo, hi) = self.succ_range[x as usize];
            for &w in &self.succ[lo as usize..hi as usize] {
                let wv = self.walk_id[w as usize];
                if wv == DEAD {
                    continue;
                }
                let cw = self.component[wv as usize];
                if cw == c || self.merged_into[cw as usize] == c {
                    continue;
                }
                self.merged_into[cw as usize] = c;
                let from = self.row_of[cw as usize];
                if from != NONE {
                    self.merge.push(from);
                    span = span.hull(self.rows[from as usize].stored_span());
                }
            }
        }
        self.stack.truncate(at);
        self.merged_into.push(NONE);
        if span.is_empty() {
            self.row_of.push(NONE);
            return;
        }
        let mut row = FixedBitSet::with_span(self.width, span);
        for &j in &self.own {
            row.insert(j);
        }
        for &from in &self.merge {
            row.union_with(&self.rows[from as usize]);
        }
        self.row_of.push(self.rows.len() as u32);
        self.rows.push(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    /// Rows of `starts` over `g`, every live node its own target slot.
    fn rows_of(g: &DiGraph, starts: &[NodeId]) -> Vec<Vec<u32>> {
        let n = g.id_bound();
        let live = |v| g.is_alive(v).then_some(v);
        let succ = |v, out: &mut Vec<NodeId>| out.extend_from_slice(g.successors(v));
        let rows = reach_rows(n, starts, n, live, succ);
        rows.iter().map(FixedBitSet::to_vec).collect()
    }

    #[test]
    fn dag_yields_singletons() {
        // Each node of a path is its own component: no two rows are equal.
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(
            rows_of(&g, &[0, 1, 2]),
            vec![vec![0, 1, 2], vec![1, 2], vec![2]]
        );
    }

    #[test]
    fn cycle_is_one_component() {
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (1, 2), (2, 0), (2, 3)] {
            g.add_edge(u, v);
        }
        let all = vec![0, 1, 2, 3];
        assert_eq!(
            rows_of(&g, &[0, 1, 2, 3]),
            vec![all.clone(), all.clone(), all, vec![3]]
        );
    }

    #[test]
    fn cycle_members_share_a_row() {
        // 0 ⇄ 1 → 2: the cycle's members get one row, 2 its own.
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (1, 0), (1, 2)] {
            g.add_edge(u, v);
        }
        assert_eq!(
            rows_of(&g, &[1, 2, 0]),
            vec![vec![0, 1, 2], vec![2], vec![0, 1, 2]]
        );
    }

    #[test]
    fn successor_rows_close_first() {
        // 0 → {1, 2} → 3, plus the cycle 4 ⇄ 5 hanging off 3. A row is
        // built once from its successors' rows, so those must be final by
        // then: every row is exact and each node's successors are read once.
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 4)] {
            g.add_edge(u, v);
        }
        let mut asked = Vec::new();
        let rows = reach_rows(6, &[0, 3, 5], 6, Some, |v, out: &mut Vec<NodeId>| {
            asked.push(v);
            out.extend_from_slice(g.successors(v));
        });
        let rows: Vec<Vec<u32>> = rows.iter().map(FixedBitSet::to_vec).collect();
        assert_eq!(
            rows,
            vec![vec![0, 1, 2, 3, 4, 5], vec![3, 4, 5], vec![4, 5]]
        );
        asked.sort_unstable();
        assert_eq!(asked, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn skips_dead_slots() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.remove_node(1);
        assert_eq!(rows_of(&g, &[0, 1, 2]), vec![vec![0], vec![], vec![2]]);
    }

    #[test]
    fn self_loop_is_one_component() {
        let mut g = DiGraph::new();
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        assert_eq!(rows_of(&g, &[0, 1]), vec![vec![0, 1], vec![1]]);
    }

    #[test]
    fn dead_ends_are_not_entered() {
        // 0 → {1, 2}, 2 → 3; only 3 is a target. Leaf 1 is a dead end.
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (0, 2), (2, 3)] {
            g.add_edge(u, v);
        }
        let mut asked = Vec::new();
        let rows = reach_rows(
            4,
            &[0, 1],
            1,
            |v| (v == 3).then_some(0),
            |v, out| {
                asked.push(v);
                out.extend_from_slice(g.successors(v));
            },
        );
        assert_eq!(
            rows,
            vec![[0u32].into_iter().collect(), FixedBitSet::new(1)]
        );
        asked.sort_unstable();
        assert_eq!(asked, vec![0, 1, 2, 3], "each node read once");
    }

    #[test]
    fn large_path_no_stack_overflow() {
        // The walk is iterative; one target slot keeps the rows one word.
        let n = 200_001u32;
        let rows = reach_rows(
            n as usize,
            &[0],
            1,
            |v| (v == n - 1).then_some(0),
            |v, out| out.extend((v + 1 < n).then_some(v + 1)),
        );
        assert_eq!(rows[0].to_vec(), vec![0]);
    }
}
