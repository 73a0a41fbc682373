//! What the deletions of paper §6.2 read of a collection, read straight
//! off it: no element graph and no document graph is built.
//!
//! * [`region_rows`] is Theorem 3's partial closure `Ĉ`: the condensing
//!   walk of [`hopi_graph::reach_rows`] from the region's elements, over
//!   successors read off the collection — tree children from the
//!   documents, links from a by-source adjacency of the collection's
//!   links.
//! * `DocLinks` holds the document-level links in both directions, for
//!   the three passes of Theorem 2's separator test.

use hopi_graph::{reach_rows, FixedBitSet};
use hopi_xml::{Collection, DocId, ElemId, XmlDocument};

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

/// The links of the document-level graph `G_D(X)` (paper §2), forwards
/// and backwards: document `d_i` has an edge to `d_j` once for every link
/// from an element of `d_i` to one of `d_j`.
pub(crate) struct DocLinks {
    forward: Csr,
    backward: Csr,
    docs: usize,
}

impl DocLinks {
    pub(crate) fn new(collection: &Collection) -> DocLinks {
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
    pub(crate) fn descendants(
        &self,
        seeds: impl IntoIterator<Item = DocId>,
        blocked: Option<DocId>,
    ) -> FixedBitSet {
        self.reach(&self.forward, seeds, blocked)
    }

    /// The documents that reach `d` (`d` included).
    pub(crate) fn ancestors(&self, d: DocId) -> FixedBitSet {
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

/// Every link of the collection by source element: `L` and the live
/// documents' intra-document links, in global ids.
fn out_links(collection: &Collection) -> Csr {
    let docs = 0..collection.doc_id_bound() as DocId;
    let intra = docs
        .filter_map(|d| Some((d, collection.document(d)?)))
        .flat_map(|(d, doc)| {
            let base = collection.global_id(d, 0);
            doc.intra_links()
                .iter()
                .map(move |&(f, t)| (base + f, base + t))
        });
    let inter = collection.links().iter().map(|l| (l.from, l.to));
    Csr::from_pairs(collection.elem_id_bound(), inter.chain(intra))
}

const NONE: u32 = u32::MAX;

/// Reachability from a region into a target set over the collection's
/// element graph `G_E(X)`, in the region's own id space: Theorem 3's
/// partial closure `Ĉ` (paper §6.2).
///
/// `region` lists live elements in ascending order; `region[i]` gets local
/// id `i`. Row `i` holds the local ids `j` with `region[j] ∈ targets` and
/// `region[i] →* region[j]` (reflexively); targets outside the region have
/// no local id and are left out. Rows are `region.len()` bits wide.
///
/// An element's successors are its tree children, then its intra- and
/// inter-document links. "As the set of seed nodes is typically much
/// smaller than the set of all nodes, the partial recomputation is
/// typically much faster": the walk reads nothing the region does not
/// reach.
pub fn region_rows(
    collection: &Collection,
    region: &[ElemId],
    targets: &FixedBitSet,
) -> Vec<FixedBitSet> {
    debug_assert!(region.windows(2).all(|w| w[0] < w[1]), "region must ascend");
    let links = out_links(collection);
    // Every live document with its first global id, and the document of
    // each element its parent listed: only elements first reached over a
    // link pay a `doc_of` search.
    let docs: Vec<Option<(&XmlDocument, ElemId)>> = (0..collection.doc_id_bound() as DocId)
        .map(|d| Some((collection.document(d)?, collection.global_id(d, 0))))
        .collect();
    let mut home = vec![NONE; collection.elem_id_bound()];
    let successors = |e: ElemId, out: &mut Vec<ElemId>| {
        let d = match home[e as usize] {
            NONE => collection.doc_of(e).expect("walk reached a dead element"),
            d => d,
        };
        let (doc, base) = docs[d as usize].expect("live document");
        out.extend(doc.element(e - base).children.iter().map(|&c| {
            home[(base + c) as usize] = d;
            base + c
        }));
        out.extend_from_slice(links.row(e));
    };
    let slot = |e: ElemId| match targets.contains(e) {
        true => region.binary_search(&e).ok().map(|j| j as u32),
        false => None,
    };
    reach_rows(
        collection.elem_id_bound(),
        region,
        region.len(),
        slot,
        successors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_graph::TransitiveClosure;
    use hopi_xml::generator::{random_collection, RandomConfig};

    /// Row `i` of the full closure of the element graph, cut to the
    /// region's targets, in local ids.
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any ascending live region and any target set, which may lie
        /// partly outside the region, on cyclic collections with
        /// intra-document links and removed documents.
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
            let rows = region_rows(&c, &region, &targets);
            let want = reference(&tc, &region, &targets);
            proptest::prop_assert_eq!(rows.len(), region.len());
            for (i, row) in rows.iter().enumerate() {
                proptest::prop_assert_eq!(row.len(), region.len());
                proptest::prop_assert_eq!(&row.to_vec(), &want[i], "row of {}", region[i]);
            }
        }
    }
}
