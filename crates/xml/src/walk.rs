//! Walks of the element graph `G_E(X)` read straight off the collection:
//! no element graph and no document graph is built.
//!
//! * [`LinkIndex`] holds every link of a set of documents by source
//!   element: the inter-document links `L` among them and their
//!   intra-document links `L_I(d)`, in global ids.
//! * [`DocSet`] is a set of documents a walk may enter. It numbers their
//!   elements by document offsets, in ascending global-id order, and its
//!   membership test ([`DocSet::local`]) keeps a walk inside the set. Its
//!   walks are the condensing walk of [`hopi_graph::reach_rows`] over tree
//!   children and the index's links.
//!   Every region the index covers runs through it: a partition's closure
//!   (§4), a new document's (§6.1), Theorem 3's partial closure `Ĉ`
//!   (§6.2) and the flat closure `hopi-bench` counts.
//! * [`DocLinks`] holds the document-level links in both directions, for
//!   the three passes of Theorem 2's separator test.
//!
//! A walk costs its region: [`DocSet::new`] and the walk's own state are
//! as large as the set's elements, and a link target is placed by a binary
//! search over the set's documents. [`LinkIndex::new`] is collection-wide;
//! a build makes one and shares it across its partitions' walks.
//! [`LinkIndex::of_document`] holds one document's intra-document links
//! only.

use crate::{Collection, DocId, ElemId, XmlDocument};
use hopi_graph::{reach_rows, FixedBitSet, TransitiveClosure};

/// Edges grouped by source: the targets of `v` are
/// `to[start[v]..start[v + 1]]`, in the order the pairs came in.
struct Csr {
    start: Vec<u32>,
    to: Vec<u32>,
}

impl Csr {
    /// Groups `pairs` with sources in `0..n` by a counting sort.
    fn from_pairs(n: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
        let mut start = vec![0u32; n + 1];
        for (s, _) in pairs.clone() {
            start[s as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start[..n].to_vec();
        let mut to = vec![0; start[n] as usize];
        for (s, t) in pairs {
            to[next[s as usize] as usize] = t;
            next[s as usize] += 1;
        }
        Csr { start, to }
    }

    /// The targets of `v`.
    fn row(&self, v: u32) -> &[u32] {
        &self.to[self.start[v as usize] as usize..self.start[v as usize + 1] as usize]
    }
}

/// The links of a set of documents by source element, in global ids: rows
/// for the ids `first..first + n`, empty outside them.
pub struct LinkIndex {
    first: ElemId,
    links: Csr,
}

impl LinkIndex {
    /// Every link of the collection: `L` and the live documents'
    /// intra-document links.
    pub fn new(collection: &Collection) -> LinkIndex {
        let intra = (0..collection.doc_id_bound() as DocId)
            .filter_map(|d| Some((collection.document(d)?, collection.global_id(d, 0))))
            .flat_map(|(doc, base)| {
                doc.intra_links()
                    .iter()
                    .map(move |&(f, t)| (base + f, base + t))
            });
        let inter = collection.links().iter().map(|l| (l.from, l.to));
        LinkIndex {
            first: 0,
            links: Csr::from_pairs(collection.elem_id_bound(), inter.chain(intra)),
        }
    }

    /// The intra-document links of the live document `d` alone: all a walk
    /// that stays inside `d` reads.
    pub fn of_document(collection: &Collection, d: DocId) -> LinkIndex {
        let doc = collection.document(d).expect("live document");
        let base = collection.global_id(d, 0);
        let pairs = doc.intra_links().iter().map(|&(f, t)| (f, base + t));
        LinkIndex {
            first: base,
            links: Csr::from_pairs(doc.len(), pairs),
        }
    }

    /// The targets of the links leaving `e`.
    pub fn links(&self, e: ElemId) -> &[ElemId] {
        match e.checked_sub(self.first) {
            Some(v) if (v as usize) + 1 < self.links.start.len() => self.links.row(v),
            _ => &[],
        }
    }
}

/// A set of live documents a walk may enter. Their elements get local ids
/// by document offsets: the documents in ascending id order, so the local
/// ids ascend with the global ones.
pub struct DocSet<'c> {
    /// Per document: it, its first global id and its first local id.
    docs: Vec<(&'c XmlDocument, ElemId, u32)>,
    /// Per local id: its document's index in `docs`.
    home: Vec<u32>,
}

impl<'c> DocSet<'c> {
    /// The live documents `docs` of `collection`, distinct, in any order.
    pub fn new(collection: &'c Collection, docs: impl IntoIterator<Item = DocId>) -> DocSet<'c> {
        let mut ids: Vec<DocId> = docs.into_iter().collect();
        ids.sort_unstable();
        let mut home = Vec::new();
        let docs = ids.iter().zip(0..).map(|(&d, k)| {
            let doc = collection.document(d).expect("live document");
            let first = home.len() as u32;
            home.resize(home.len() + doc.len(), k);
            (doc, collection.global_id(d, 0), first)
        });
        let docs = docs.collect();
        DocSet { docs, home }
    }

    /// The membership test: the local id of the global element `e`, or
    /// `None` when `e` lies outside the set.
    pub fn local(&self, e: ElemId) -> Option<u32> {
        let k = self.docs.partition_point(|&(_, base, _)| base <= e);
        let (doc, base, first) = self.docs[k.checked_sub(1)?];
        ((e - base) < doc.len() as u32).then_some(first + e - base)
    }

    /// The global id of every local id, in order.
    pub fn globals(&self) -> Vec<ElemId> {
        let ranges = self.docs.iter().map(|&(d, b, _)| b..b + d.len() as u32);
        ranges.flatten().collect()
    }

    /// Reachability inside the set: [`hopi_graph::reach_rows`] over local
    /// ids, from `starts` into the target slots `slot` gives, `width` slots
    /// a row. An element's successors are its tree children, then the
    /// targets of its links in `links` that lie inside the set.
    fn reach_rows(
        &self,
        links: &LinkIndex,
        starts: &[u32],
        width: usize,
        slot: impl Fn(u32) -> Option<u32>,
    ) -> Vec<FixedBitSet> {
        let successors = |v: u32, out: &mut Vec<u32>| {
            let (doc, base, first) = self.docs[self.home[v as usize] as usize];
            let l = v - first;
            out.extend(doc.element(l).children.iter().map(|&c| first + c));
            for &t in links.links(base + l) {
                match t.wrapping_sub(base) {
                    lt if (lt as usize) < doc.len() => out.push(first + lt),
                    _ => out.extend(self.local(t)),
                }
            }
        };
        reach_rows(self.home.len(), starts, width, slot, successors)
    }

    /// Reachability from the elements `region` into `targets`, in the
    /// region's own id space: Theorem 3's partial closure `Ĉ` (paper
    /// §6.2). `region` lists elements of the set in ascending order, and
    /// `region[i]` gets id `i`. Row `i` holds the `j` with
    /// `region[j] ∈ targets` and `region[i] →* region[j]` (reflexively);
    /// targets outside the region are left out. "As the set of seed nodes
    /// is typically much smaller than the set of all nodes, the partial
    /// recomputation is typically much faster": the walk reads nothing the
    /// region does not reach.
    pub fn region_rows(
        &self,
        links: &LinkIndex,
        region: &[ElemId],
        targets: &FixedBitSet,
    ) -> Vec<FixedBitSet> {
        debug_assert!(region.windows(2).all(|w| w[0] < w[1]), "region must ascend");
        let starts: Vec<u32> = region
            .iter()
            .map(|&e| self.local(e).expect("region inside the set"))
            .collect();
        let slot = |v| {
            let j = starts.binary_search(&v).ok()?;
            targets.contains(region[j]).then_some(j as u32)
        };
        self.reach_rows(links, &starts, region.len(), slot)
    }

    /// The descendant row of every element, reflexive, in local ids.
    pub fn descendant_rows(&self, links: &LinkIndex) -> Vec<FixedBitSet> {
        let all: Vec<u32> = (0..self.home.len() as u32).collect();
        self.reach_rows(links, &all, all.len(), Some)
    }

    /// The transitive closure of the set's element graph: its tree edges,
    /// intra-document links and the links in `links` between its
    /// documents, in local ids.
    pub fn closure(&self, links: &LinkIndex) -> TransitiveClosure {
        let rows = self.descendant_rows(links);
        TransitiveClosure::from_desc_rows(rows, vec![true; self.home.len()], None)
    }
}

/// The links of the document-level graph `G_D(X)` (paper §2), forwards
/// and backwards: document `d_i` has an edge to `d_j` once for every link
/// from an element of `d_i` to one of `d_j`.
pub struct DocLinks {
    forward: Csr,
    backward: Csr,
    docs: usize,
}

impl DocLinks {
    /// The document-level links of `collection`.
    pub fn new(collection: &Collection) -> DocLinks {
        let pairs: Vec<(DocId, DocId)> = collection
            .links()
            .iter()
            .filter_map(|l| Some((collection.doc_of(l.from)?, collection.doc_of(l.to)?)))
            .collect();
        let docs = collection.doc_id_bound();
        DocLinks {
            forward: Csr::from_pairs(docs, pairs.iter().copied()),
            backward: Csr::from_pairs(docs, pairs.iter().map(|&(f, t)| (t, f))),
            docs,
        }
    }

    /// The documents that `seeds` reach (seeds included), on paths that do
    /// not pass through `blocked`.
    pub fn descendants(
        &self,
        seeds: impl IntoIterator<Item = DocId>,
        blocked: Option<DocId>,
    ) -> FixedBitSet {
        self.reach(&self.forward, seeds, blocked)
    }

    /// The documents that reach `d` (`d` included).
    pub fn ancestors(&self, d: DocId) -> FixedBitSet {
        self.reach(&self.backward, [d], None)
    }

    fn reach(
        &self,
        edges: &Csr,
        seeds: impl IntoIterator<Item = DocId>,
        blocked: Option<DocId>,
    ) -> FixedBitSet {
        let mut seen = FixedBitSet::new(self.docs);
        if let Some(b) = blocked {
            seen.insert(b);
        }
        let mut queue: Vec<DocId> = seeds.into_iter().filter(|&s| seen.insert(s)).collect();
        while let Some(d) = queue.pop() {
            queue.extend(edges.row(d).iter().filter(|&&e| seen.insert(e)));
        }
        if let Some(b) = blocked {
            seen.remove(b);
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{random_collection, RandomConfig};

    /// Row `i` of the full closure of the element graph, cut to the
    /// region's targets, in the region's ids.
    fn reference(
        tc: &TransitiveClosure,
        region: &[ElemId],
        targets: &FixedBitSet,
    ) -> Vec<Vec<u32>> {
        region
            .iter()
            .map(|&x| {
                (0..region.len() as u32)
                    .filter(|&j| {
                        let y = region[j as usize];
                        targets.contains(y) && tc.contains(x, y)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn local_ids_follow_document_offsets() {
        let mut c = Collection::new();
        for (name, n) in [("a", 3), ("b", 2), ("c", 2)] {
            let mut d = XmlDocument::new(name, "r");
            for _ in 1..n {
                d.add_element(0, "x");
            }
            c.add_document(d);
        }
        // Documents a = {0,1,2}, b = {3,4}, c = {5,6}; the set {c, a}.
        let set = DocSet::new(&c, [2, 0]);
        assert_eq!(set.home.len(), 5);
        assert_eq!(set.globals(), vec![0, 1, 2, 5, 6]);
        for (v, e) in (0..).zip(set.globals()) {
            assert_eq!(set.local(e), Some(v));
        }
        assert_eq!(set.local(3), None, "b is outside the set");
        assert_eq!(set.local(7), None, "past the last document");
    }

    #[test]
    fn a_walk_stays_inside_its_documents() {
        // a/x → b → c/x: the set {a, c} does not see c through b.
        let mut c = Collection::new();
        for name in ["a", "b", "c"] {
            let mut d = XmlDocument::new(name, "r");
            d.add_element(0, "x");
            c.add_document(d);
        }
        c.add_link(1, 2);
        c.add_link(3, 5);
        let links = LinkIndex::new(&c);
        let set = DocSet::new(&c, [0, 2]);
        let rows: Vec<Vec<u32>> = set
            .descendant_rows(&links)
            .iter()
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(rows, vec![vec![0, 1], vec![1], vec![2, 3], vec![3]]);
        let all = DocSet::new(&c, c.doc_ids());
        assert_eq!(
            all.closure(&links).descendants(0).to_vec(),
            vec![0, 1, 2, 3, 5]
        );
    }

    #[test]
    fn one_document_index_holds_its_intra_links_only() {
        let mut c = Collection::new();
        c.add_document(XmlDocument::new("a", "r"));
        let mut d = XmlDocument::new("b", "r");
        let x = d.add_element(0, "x");
        let y = d.add_element(0, "y");
        d.add_intra_link(y, x);
        c.add_document(d);
        c.add_link(2, 0);
        let links = LinkIndex::of_document(&c, 1);
        assert_eq!(links.links(3), &[2]);
        assert!(links.links(2).is_empty() && links.links(0).is_empty());
        assert!(links.links(4).is_empty(), "past the document");
        let tc = DocSet::new(&c, [1]).closure(&links);
        assert_eq!(tc.connection_count(), 6);
        assert!(tc.contains(2, 1) && !tc.contains(1, 2));
    }

    #[test]
    fn doc_links_reach_both_ways() {
        let mut c = Collection::new();
        for name in ["a", "b", "c"] {
            c.add_document(XmlDocument::new(name, "r"));
        }
        c.add_link(0, 1);
        c.add_link(1, 2);
        let links = DocLinks::new(&c);
        assert_eq!(links.descendants([0], None).to_vec(), vec![0, 1, 2]);
        assert_eq!(links.descendants([0], Some(1)).to_vec(), vec![0]);
        assert_eq!(links.ancestors(2).to_vec(), vec![0, 1, 2]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any ascending live region and any target set, which may lie
        /// partly outside the region, on cyclic collections with
        /// intra-document links and removed documents: Theorem 3's walk
        /// over every live document.
        #[test]
        fn rows_match_the_full_closure(
            seed in 0u64..u64::MAX,
            picks in proptest::collection::vec(0u8..4, 256),
        ) {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = random_collection(&RandomConfig {
                num_docs: rng.gen_range(2..24),
                elements_range: (1, 10),
                num_links: rng.gen_range(0..50),
                num_intra_links: rng.gen_range(0..12),
                allow_cycles: true,
                seed,
                text: Default::default(),
            });
            for _ in 0..rng.gen_range(0..3) {
                let live: Vec<DocId> = c.doc_ids().collect();
                c.remove_document(live[rng.gen_range(0..live.len())]);
            }
            let n = c.elem_id_bound() as u32;
            let pick = |e: ElemId| picks[e as usize % picks.len()];
            let region: Vec<ElemId> = (0..n)
                .filter(|&e| c.doc_of(e).is_some() && pick(e) & 1 != 0)
                .collect();
            let targets: FixedBitSet = (0..n).filter(|&e| pick(e) & 2 != 0).collect();
            let tc = TransitiveClosure::from_graph(&c.element_graph());
            let docs = DocSet::new(&c, c.doc_ids());
            let rows = docs.region_rows(&LinkIndex::new(&c), &region, &targets);
            let want = reference(&tc, &region, &targets);
            proptest::prop_assert_eq!(rows.len(), region.len());
            for (i, row) in rows.iter().enumerate() {
                proptest::prop_assert_eq!(row.len(), region.len());
                proptest::prop_assert_eq!(&row.to_vec(), &want[i], "row of {}", region[i]);
            }
        }
    }
}
