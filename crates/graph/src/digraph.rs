//! A mutable directed graph over dense `u32` node ids.
//!
//! The element-level graph `G_E(X)` and document-level graph `G_D(X)` of the
//! paper are both instances of this structure. Incremental maintenance
//! (paper §6) inserts and deletes nodes and edges in place, so adjacency is
//! kept in both directions and deleted node slots are tombstoned rather than
//! compacted (ids handed out to the index must stay stable).

/// Node identifier: a dense index into the graph's node table.
pub type NodeId = u32;

/// Outcome of [`DiGraph::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeInsert {
    /// The edge was newly inserted.
    Inserted,
    /// The edge already existed; the graph is unchanged.
    Existed,
}

/// A directed graph with O(1) amortized edge insertion, bidirectional
/// adjacency, and tombstoned node removal.
///
/// Parallel edges are collapsed (the graph is a set of edges, matching the
/// paper's model where `E_E(d)` and `L` are sets); self-loops are allowed.
///
/// ```
/// use hopi_graph::DiGraph;
///
/// let mut g = DiGraph::new();
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.successors(1), &[2]);
/// assert_eq!(g.predecessors(1), &[0]);
///
/// g.remove_node(1); // tombstoned: the id slot is never reused
/// assert_eq!(g.node_count(), 2);
/// assert!(g.successors(0).is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    succ: Vec<Vec<NodeId>>,
    pred: Vec<Vec<NodeId>>,
    alive: Vec<bool>,
    node_count: usize,
    edge_count: usize,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with `n` pre-allocated live nodes `0..n`.
    pub fn with_nodes(n: usize) -> Self {
        DiGraph {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
            alive: vec![true; n],
            node_count: n,
            edge_count: 0,
        }
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.succ.len() as NodeId;
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        self.alive.push(true);
        self.node_count += 1;
        id
    }

    /// Ensures ids `0..=id` exist (live).
    pub fn ensure_node(&mut self, id: NodeId) {
        while (self.succ.len() as NodeId) <= id {
            self.add_node();
        }
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Upper bound (exclusive) on node ids ever allocated, including removed
    /// slots. All dense per-node arrays must be sized by this.
    pub fn id_bound(&self) -> usize {
        self.succ.len()
    }

    /// Whether `id` refers to a live node.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive.get(id as usize).copied().unwrap_or(false)
    }

    /// Iterates over live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as NodeId)
    }

    /// Successors of `u` (empty for dead or out-of-range nodes).
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        self.succ.get(u as usize).map_or(&[], Vec::as_slice)
    }

    /// Predecessors of `u` (empty for dead or out-of-range nodes).
    pub fn predecessors(&self, u: NodeId) -> &[NodeId] {
        self.pred.get(u as usize).map_or(&[], Vec::as_slice)
    }

    /// Tests whether edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.successors(u).contains(&v)
    }

    /// Inserts edge `(u, v)`, creating the endpoints if necessary.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> EdgeInsert {
        self.ensure_node(u.max(v));
        assert!(
            self.alive[u as usize] && self.alive[v as usize],
            "add_edge on removed node"
        );
        if self.succ[u as usize].contains(&v) {
            return EdgeInsert::Existed;
        }
        self.succ[u as usize].push(v);
        self.pred[v as usize].push(u);
        self.edge_count += 1;
        EdgeInsert::Inserted
    }

    /// Removes edge `(u, v)`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let Some(su) = self.succ.get_mut(u as usize) else {
            return false;
        };
        let Some(pos) = su.iter().position(|&x| x == v) else {
            return false;
        };
        su.swap_remove(pos);
        let pv = &mut self.pred[v as usize];
        let pos = pv
            .iter()
            .position(|&x| x == u)
            .expect("pred/succ adjacency out of sync");
        pv.swap_remove(pos);
        self.edge_count -= 1;
        true
    }

    /// Removes node `u` together with all incident edges. The id slot is
    /// tombstoned; it is never reused.
    pub fn remove_node(&mut self, u: NodeId) {
        if !self.is_alive(u) {
            return;
        }
        let outs = std::mem::take(&mut self.succ[u as usize]);
        for v in outs {
            let pv = &mut self.pred[v as usize];
            if let Some(pos) = pv.iter().position(|&x| x == u) {
                pv.swap_remove(pos);
                self.edge_count -= 1;
            }
        }
        let ins = std::mem::take(&mut self.pred[u as usize]);
        for p in ins {
            let sp = &mut self.succ[p as usize];
            if let Some(pos) = sp.iter().position(|&x| x == u) {
                sp.swap_remove(pos);
                self.edge_count -= 1;
            }
        }
        self.alive[u as usize] = false;
        self.node_count -= 1;
    }

    /// Iterates over all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as NodeId, v)))
    }

    /// Returns the reverse graph (every edge flipped).
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            succ: self.pred.clone(),
            pred: self.succ.clone(),
            alive: self.alive.clone(),
            node_count: self.node_count,
            edge_count: self.edge_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn add_edge_dedups() {
        let mut g = DiGraph::new();
        assert_eq!(g.add_edge(0, 1), EdgeInsert::Inserted);
        assert_eq!(g.add_edge(0, 1), EdgeInsert::Existed);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
    }

    #[test]
    fn adjacency_is_bidirectional() {
        let g = diamond();
        assert_eq!(g.successors(0), &[1, 2]);
        let mut p3 = g.predecessors(3).to_vec();
        p3.sort_unstable();
        assert_eq!(p3, vec![1, 2]);
        assert!(g.predecessors(0).is_empty());
        assert!(g.successors(3).is_empty());
    }

    #[test]
    fn remove_edge_both_directions() {
        let mut g = diamond();
        assert!(g.remove_edge(1, 3));
        assert!(!g.remove_edge(1, 3));
        assert!(!g.has_edge(1, 3));
        assert_eq!(g.predecessors(3), &[2]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn remove_node_tombstones() {
        let mut g = diamond();
        g.remove_node(1);
        assert!(!g.is_alive(1));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(0), &[2]);
        assert_eq!(g.predecessors(3), &[2]);
        // id not reused
        let fresh = g.add_node();
        assert_eq!(fresh, 4);
        assert_eq!(g.id_bound(), 5);
    }

    #[test]
    fn self_loop_allowed() {
        let mut g = DiGraph::new();
        g.add_edge(5, 5);
        assert!(g.has_edge(5, 5));
        assert_eq!(g.node_count(), 6); // ensure_node filled 0..=5
        g.remove_node(5);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn reversed_flips_edges() {
        let g = diamond().reversed();
        assert!(g.has_edge(3, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn edges_iterator_complete() {
        let g = diamond();
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }
}
