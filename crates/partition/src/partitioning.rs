//! Partitions and partitionings of a collection (paper §2).
//!
//! A *partition* `P_i = (D_i, L_i)` is a subcollection closed over its own
//! links; a *partitioning* `P(X) = ({P_1..P_m}, L_P)` splits the documents
//! disjointly and collects the leftover cross-partition links in `L_P`.

use hopi_xml::{Collection, DocId, ElemId, Link};

/// One partition: a set of documents. Links internal to the partition stay
/// implicit: the walk that covers the partition ([`hopi_xml::DocSet`])
/// stays inside its documents and reads their links off the collection's
/// [`hopi_xml::LinkIndex`], numbering the elements in ascending global-id
/// order.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    /// Documents of this partition.
    pub docs: Vec<DocId>,
    /// Sum of document node weights (element counts).
    pub node_weight: u64,
    /// Transitive-closure size if the partitioner tracked it (paper §4.3).
    pub tc_size: Option<u64>,
}

/// A partitioning of a collection: disjoint partitions plus the
/// cross-partition links `L_P`.
#[derive(Clone, Debug, Default)]
pub struct Partitioning {
    /// The partitions `P_1 .. P_m`.
    pub partitions: Vec<Partition>,
    /// `part_of[doc] = partition index` (`u32::MAX` for dead docs).
    pub part_of: Vec<u32>,
    /// Cross-partition links `L_P`.
    pub cross_links: Vec<Link>,
}

impl Partitioning {
    /// Builds a partitioning from a document → partition assignment,
    /// computing node weights and `L_P`.
    pub fn from_assignment(
        collection: &Collection,
        num_partitions: usize,
        part_of: Vec<u32>,
    ) -> Self {
        let mut partitions = vec![Partition::default(); num_partitions];
        for d in collection.doc_ids() {
            let p = part_of[d as usize];
            assert!(
                (p as usize) < num_partitions,
                "document {d} unassigned (partition {p})"
            );
            partitions[p as usize].docs.push(d);
            partitions[p as usize].node_weight += collection.doc_weight(d) as u64;
        }
        let mut cross_links = Vec::new();
        for &l in collection.links() {
            let fd = collection.doc_of(l.from).expect("live link source");
            let td = collection.doc_of(l.to).expect("live link target");
            if part_of[fd as usize] != part_of[td as usize] {
                cross_links.push(l);
            }
        }
        Partitioning {
            partitions,
            part_of,
            cross_links,
        }
    }

    /// The trivial partitioning: every document in one partition
    /// (`L_P = ∅`). Used by the flat (no-partition) baseline build.
    pub fn single_partition(collection: &Collection) -> Self {
        let mut part_of = vec![u32::MAX; collection.doc_id_bound()];
        for d in collection.doc_ids() {
            part_of[d as usize] = 0;
        }
        Self::from_assignment(collection, 1, part_of)
    }

    /// The "naive"/`single` configuration of Table 2: each document forms
    /// its own partition, so every inter-document link is a cross link.
    pub fn per_document(collection: &Collection) -> Self {
        let mut part_of = vec![u32::MAX; collection.doc_id_bound()];
        let mut next = 0u32;
        for d in collection.doc_ids() {
            part_of[d as usize] = next;
            next += 1;
        }
        Self::from_assignment(collection, next as usize, part_of)
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when there are no partitions.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// The partition map `part(doc)`.
    pub fn partition_of_doc(&self, d: DocId) -> Option<u32> {
        let p = *self.part_of.get(d as usize)?;
        (p != u32::MAX).then_some(p)
    }

    /// The partition an element belongs to.
    pub fn partition_of_elem(&self, collection: &Collection, e: ElemId) -> Option<u32> {
        self.partition_of_doc(collection.doc_of(e)?)
    }

    /// Checks partitioning invariants: disjoint cover of live documents,
    /// `L_P` exactly the links crossing partitions.
    pub fn check_invariants(&self, collection: &Collection) {
        let mut seen = vec![false; collection.doc_id_bound()];
        for (pi, p) in self.partitions.iter().enumerate() {
            for &d in &p.docs {
                assert!(!seen[d as usize], "doc {d} in two partitions");
                seen[d as usize] = true;
                assert_eq!(self.part_of[d as usize], pi as u32, "part_of mismatch");
            }
        }
        for d in collection.doc_ids() {
            assert!(seen[d as usize], "doc {d} not covered");
        }
        let crossing: Vec<Link> = collection
            .links()
            .iter()
            .copied()
            .filter(|l| {
                let fd = collection.doc_of(l.from).unwrap();
                let td = collection.doc_of(l.to).unwrap();
                self.part_of[fd as usize] != self.part_of[td as usize]
            })
            .collect();
        assert_eq!(crossing.len(), self.cross_links.len(), "L_P size mismatch");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hopi_graph::{DiGraph, TransitiveClosure};
    use hopi_xml::generator::{random_collection, RandomConfig};
    use hopi_xml::{DocSet, LinkIndex, XmlDocument};

    /// The reference a partition's walk is checked against, independent of
    /// it: the element graph of a clone of `c` that keeps only `docs`, in
    /// global ids.
    pub(crate) fn reference_graph(c: &Collection, docs: &[DocId]) -> DiGraph {
        let mut only = c.clone();
        for d in c.doc_ids().filter(|d| !docs.contains(d)) {
            only.remove_document(d);
        }
        only.element_graph()
    }

    /// Asserts that `tc`, a closure over local ids `l` standing for the
    /// elements `globals[l]`, is the closure of `reference`.
    fn assert_same_closure(tc: &TransitiveClosure, globals: &[ElemId], reference: &DiGraph) {
        let want = TransitiveClosure::from_graph(reference);
        assert_eq!(tc.connection_count(), want.connection_count());
        for (u, &gu) in (0..).zip(globals) {
            for (v, &gv) in (0..).zip(globals) {
                assert_eq!(tc.contains(u, v), want.contains(gu, gv), "{gu} -> {gv}");
            }
        }
    }

    fn three_doc_collection() -> Collection {
        let mut c = Collection::new();
        for name in ["a", "b", "c"] {
            let mut d = XmlDocument::new(name, "r");
            d.add_element(0, "x");
            c.add_document(d);
        }
        // a -> b, b -> c
        c.add_link(c.global_id(0, 1), c.global_id(1, 0));
        c.add_link(c.global_id(1, 1), c.global_id(2, 0));
        c
    }

    #[test]
    fn from_assignment_collects_cross_links() {
        let c = three_doc_collection();
        // {a,b} | {c}
        let p = Partitioning::from_assignment(&c, 2, vec![0, 0, 1]);
        p.check_invariants(&c);
        assert_eq!(p.len(), 2);
        assert_eq!(p.partitions[0].docs, vec![0, 1]);
        assert_eq!(p.cross_links.len(), 1);
        assert_eq!(p.partition_of_doc(2), Some(1));
    }

    #[test]
    fn single_partition_has_no_cross_links() {
        let c = three_doc_collection();
        let p = Partitioning::single_partition(&c);
        p.check_invariants(&c);
        assert_eq!(p.len(), 1);
        assert!(p.cross_links.is_empty());
        assert_eq!(p.partitions[0].node_weight, 6);
    }

    #[test]
    fn per_document_crosses_all_links() {
        let c = three_doc_collection();
        let p = Partitioning::per_document(&c);
        p.check_invariants(&c);
        assert_eq!(p.len(), 3);
        assert_eq!(p.cross_links.len(), 2);
    }

    #[test]
    fn partition_walk_numbers_elements_in_ascending_order() {
        let c = three_doc_collection();
        let p = Partitioning::from_assignment(&c, 2, vec![0, 0, 1]);
        let links = LinkIndex::new(&c);
        let docs = DocSet::new(&c, p.partitions[0].docs.iter().copied());
        let g = reference_graph(&c, &p.partitions[0].docs);
        assert_eq!(g.node_count(), 4); // docs a,b with 2 elements each
        assert_eq!(docs.globals().len(), 4);
        // Tree edges: a: 0->1, b: 2->3; plus intra-partition link
        // a/x(1) -> b/root(2).
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(g.has_edge(1, 2));
        assert_eq!(g.edge_count(), 3);
        for (local, global) in (0..).zip(docs.globals()) {
            assert_eq!(docs.local(global), Some(local));
        }
        assert_same_closure(&docs.closure(&links), &docs.globals(), &g);
        // Partition 1 sees only doc c's tree.
        let docs1 = DocSet::new(&c, p.partitions[1].docs.iter().copied());
        let g1 = reference_graph(&c, &p.partitions[1].docs);
        assert_eq!(g1.node_count(), 2);
        assert_eq!(g1.edge_count(), 1);
        assert_eq!(docs1.globals(), vec![c.global_id(2, 0), c.global_id(2, 1)]);
        assert_same_closure(&docs1.closure(&links), &docs1.globals(), &g1);
    }

    #[test]
    fn partition_of_elem_follows_doc() {
        let c = three_doc_collection();
        let p = Partitioning::from_assignment(&c, 2, vec![0, 0, 1]);
        assert_eq!(p.partition_of_elem(&c, c.global_id(0, 1)), Some(0));
        assert_eq!(p.partition_of_elem(&c, c.global_id(2, 0)), Some(1));
    }

    #[test]
    fn random_collection_roundtrip() {
        let c = random_collection(&RandomConfig::default());
        let p = Partitioning::per_document(&c);
        p.check_invariants(&c);
        // Element graphs of all partitions together hold all tree edges.
        let total_edges: usize = p
            .partitions
            .iter()
            .map(|part| reference_graph(&c, &part.docs).edge_count())
            .sum();
        let cross = p.cross_links.len();
        assert_eq!(total_edges + cross, c.element_graph().edge_count());
    }
}
