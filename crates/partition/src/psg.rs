//! The partition-level skeleton graph `S(P)` (paper §4.1, Definition 1).
//!
//! Nodes: sources and targets of cross-partition links. Edges: the
//! cross-partition links `L_P`, plus an edge `x → x'` for every pair of
//! skeleton nodes of one partition where `x` reaches `x'` inside that
//! partition. Definition 1 asks only for the `target → source` edges; the
//! others (source → source, target → target, source → target) change no
//! skeleton reachability, but they let the PSG join see which skeleton
//! node is nearest to an element, so each label is lifted only from there.
//!
//! Every node carries its intra-partition ancestor and descendant rows,
//! enumerated on the merged partition covers; the intra-partition edges are
//! read off the descendant rows.

use crate::partitioning::Partitioning;
use hopi_core::TwoHopCover;
use hopi_graph::DiGraph;
use hopi_xml::{Collection, ElemId};
use rustc_hash::FxHashMap;

/// The PSG with compact node indexing.
pub struct PartitionSkeletonGraph {
    /// Global element ids of the PSG nodes.
    pub nodes: Vec<ElemId>,
    /// Global element id → compact PSG index.
    pub index: FxHashMap<ElemId, u32>,
    /// Graph over compact indices.
    pub graph: DiGraph,
    /// Is the node a source of a cross-partition link?
    pub is_source: Vec<bool>,
    /// Is the node a target of a cross-partition link?
    pub is_target: Vec<bool>,
    /// Partition of each node.
    pub partition: Vec<u32>,
    /// Intra-partition ancestors of each node (global ids, sorted, the
    /// node included).
    pub anc: Vec<Vec<ElemId>>,
    /// Intra-partition descendants of each node (global ids, sorted, the
    /// node included).
    pub desc: Vec<Vec<ElemId>>,
}

impl PartitionSkeletonGraph {
    /// Builds the PSG. `cover` must be exact inside every partition of
    /// `partitioning` and empty across partitions — the merged partition
    /// covers before any join.
    pub fn build(
        collection: &Collection,
        partitioning: &Partitioning,
        cover: &TwoHopCover,
    ) -> Self {
        let mut nodes: Vec<ElemId> = Vec::new();
        let mut index: FxHashMap<ElemId, u32> = FxHashMap::default();
        let mut is_source: Vec<bool> = Vec::new();
        let mut is_target: Vec<bool> = Vec::new();
        let mut partition: Vec<u32> = Vec::new();
        let mut graph = DiGraph::new();
        for l in &partitioning.cross_links {
            let mut intern = |e: ElemId| -> u32 {
                *index.entry(e).or_insert_with(|| {
                    nodes.push(e);
                    is_source.push(false);
                    is_target.push(false);
                    partition.push(
                        partitioning
                            .partition_of_elem(collection, e)
                            .expect("PSG node in live partition"),
                    );
                    nodes.len() as u32 - 1
                })
            };
            let (f, t) = (intern(l.from), intern(l.to));
            is_source[f as usize] = true;
            is_target[t as usize] = true;
            graph.add_edge(f, t);
        }

        let anc: Vec<Vec<ElemId>> = nodes.iter().map(|&e| cover.ancestors(e)).collect();
        let desc: Vec<Vec<ElemId>> = nodes.iter().map(|&e| cover.descendants(e)).collect();
        // Intra-partition edges: every skeleton node in a descendant row.
        // A dense element → node map keeps this to one load per entry.
        let mut node_of = vec![u32::MAX; collection.elem_id_bound()];
        for (i, &e) in nodes.iter().enumerate() {
            node_of[e as usize] = i as u32;
        }
        for (x, row) in desc.iter().enumerate() {
            for &e in row {
                let y = node_of[e as usize];
                if y != u32::MAX && y != x as u32 {
                    graph.add_edge(x as u32, y);
                }
            }
        }
        PartitionSkeletonGraph {
            nodes,
            index,
            graph,
            is_source,
            is_target,
            partition,
            anc,
            desc,
        }
    }

    /// Number of PSG nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when there are no cross-partition links at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Skeleton nodes that `x` reaches inside its partition, `x` excluded.
    pub fn below(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        let p = self.partition[x as usize];
        let succ = self.graph.successors(x).iter().copied();
        succ.filter(move |&y| self.partition[y as usize] == p)
    }

    /// Skeleton nodes that reach `x` inside its partition, `x` excluded.
    pub fn above(&self, x: u32) -> impl Iterator<Item = u32> + '_ {
        let p = self.partition[x as usize];
        let pred = self.graph.predecessors(x).iter().copied();
        pred.filter(move |&y| self.partition[y as usize] == p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_partition_covers, BuildConfig};
    use hopi_graph::traversal;
    use hopi_xml::XmlDocument;

    /// Reproduces the paper's Figure 3 situation: two partitions, the link
    /// target in P1 connects within the partition down to the sources of
    /// further cross links.
    fn fixture() -> (Collection, Partitioning) {
        let mut c = Collection::new();
        // P0: doc a (root 0, child 1), doc b (root 2, child 3).
        // P1: doc x (root 4, children 5,6).
        let mut a = XmlDocument::new("a", "r");
        a.add_element(0, "s");
        c.add_document(a);
        let mut b = XmlDocument::new("b", "r");
        b.add_element(0, "s");
        c.add_document(b);
        let mut x = XmlDocument::new("x", "r");
        x.add_element(0, "p");
        x.add_element(0, "q");
        c.add_document(x);
        // Intra-partition link a/s -> b/root (inside P0).
        c.add_link(1, 2);
        // Cross links: b/s(3) -> x/root(4); x/q(6) -> a/root(0).
        c.add_link(3, 4);
        c.add_link(6, 0);
        let part = Partitioning::from_assignment(&c, 2, vec![0, 0, 1]);
        (c, part)
    }

    fn build(c: &Collection, p: &Partitioning) -> PartitionSkeletonGraph {
        let (cover, _) = build_partition_covers(c, p, &BuildConfig::default());
        PartitionSkeletonGraph::build(c, p, &cover)
    }

    #[test]
    fn psg_nodes_and_edges() {
        let (c, p) = fixture();
        let psg = build(&c, &p);
        // Cross-link endpoints: 3, 4, 6, 0.
        let mut ns = psg.nodes.clone();
        ns.sort_unstable();
        assert_eq!(ns, vec![0, 3, 4, 6]);
        // Cross edges 3→4 and 6→0.
        assert!(psg.graph.has_edge(psg.index[&3], psg.index[&4]));
        assert!(psg.graph.has_edge(psg.index[&6], psg.index[&0]));
        // Intra-partition connection edges: target 4 (x/root) reaches source
        // 6 (x/q) inside P1; target 0 (a/root) reaches source 3? 0→1→(link
        // 1→2 inside P0)→2→3: yes, via the intra-partition link.
        assert!(psg.graph.has_edge(psg.index[&4], psg.index[&6]));
        assert!(psg.graph.has_edge(psg.index[&0], psg.index[&3]));
        // No intra-partition edge runs against reachability.
        assert!(!psg.graph.has_edge(psg.index[&6], psg.index[&4]));
        assert!(!psg.graph.has_edge(psg.index[&3], psg.index[&0]));
        assert_eq!(psg.graph.edge_count(), 4);
        // The PSG is strongly connected in this fixture.
        assert!(traversal::is_reachable(
            &psg.graph,
            psg.index[&3],
            psg.index[&3]
        ));
    }

    #[test]
    fn intra_edges_join_every_reaching_pair() {
        // Both link targets of P1 lie on one root-to-leaf path, and so do
        // both link sources of P0: the target → target and source → source
        // pairs get edges too.
        let mut c = Collection::new();
        for name in ["a", "b"] {
            let mut d = XmlDocument::new(name, "r");
            let s = d.add_element(0, "s");
            d.add_element(s, "t");
            c.add_document(d);
        }
        c.add_link(1, 4); // a/s → b/s
        c.add_link(2, 5); // a/t → b/t
        let p = Partitioning::per_document(&c);
        let psg = build(&c, &p);
        let node = |e: ElemId| psg.index[&e];
        assert!(psg.graph.has_edge(node(1), node(2)));
        assert!(psg.graph.has_edge(node(4), node(5)));
        assert_eq!(psg.below(node(1)).collect::<Vec<_>>(), vec![node(2)]);
        assert_eq!(psg.above(node(5)).collect::<Vec<_>>(), vec![node(4)]);
        // Cross links are not intra-partition reach.
        assert_eq!(psg.below(node(2)).count(), 0);
        assert_eq!(psg.desc[node(1) as usize], vec![1, 2]);
        assert_eq!(psg.anc[node(5) as usize], vec![3, 4, 5]);
    }

    #[test]
    fn source_target_flags() {
        let (c, p) = fixture();
        let psg = build(&c, &p);
        assert!(psg.is_source[psg.index[&3] as usize]);
        assert!(psg.is_target[psg.index[&4] as usize]);
        assert!(psg.is_source[psg.index[&6] as usize]);
        assert!(psg.is_target[psg.index[&0] as usize]);
        assert_eq!(psg.is_source.iter().filter(|&&s| s).count(), 2);
        assert_eq!(psg.is_target.iter().filter(|&&t| t).count(), 2);
    }

    #[test]
    fn empty_when_no_cross_links() {
        let (c, _) = fixture();
        let p = Partitioning::single_partition(&c);
        assert!(build(&c, &p).is_empty());
    }

    #[test]
    fn partition_annotation() {
        let (c, p) = fixture();
        let psg = build(&c, &p);
        assert_eq!(psg.partition[psg.index[&3] as usize], 0);
        assert_eq!(psg.partition[psg.index[&4] as usize], 1);
    }
}
