//! What the deletions of paper §6.2 read of a collection, read straight
//! off it: no element graph and no document graph is built.
//!
//! * [`region_rows`] is Theorem 3's partial closure `Ĉ`. It walks the
//!   element graph from the region's elements, taking tree children from
//!   the documents and links from a by-source adjacency of the collection's
//!   links, and condenses strongly connected components only among the
//!   elements it reaches.
//! * `DocLinks` holds the document-level links in both directions, for
//!   the three passes of Theorem 2's separator test.

use hopi_graph::FixedBitSet;
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

/// The document holding a live element, with its first global id.
fn home_of(collection: &Collection, e: ElemId) -> (&XmlDocument, ElemId) {
    let (d, local) = collection.to_local(e).expect("walk reached a dead element");
    (collection.document(d).expect("live document"), e - local)
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
/// One depth-first walk from the region's elements reads each element's
/// successors off the collection as it first reaches it: its tree
/// children, then its intra- and inter-document links. An iterative
/// Tarjan over the walk emits the strongly connected components of the
/// elements reached, successors first. A component's row is its own
/// targets plus the rows of the components its members have edges into,
/// which are final by then; a component that reaches no target gets no
/// row, and the rows that exist share one arena. "As the set of seed nodes
/// is typically much smaller than the set of all nodes, the partial
/// recomputation is typically much faster": nothing the region does not
/// reach is read.
pub fn region_rows(
    collection: &Collection,
    region: &[ElemId],
    targets: &FixedBitSet,
) -> Vec<FixedBitSet> {
    debug_assert!(region.windows(2).all(|w| w[0] < w[1]), "region must ascend");
    let m = region.len();
    let mut walk = Walk {
        collection,
        links: out_links(collection),
        region,
        targets,
        width: m.div_ceil(64),
        walk_id: vec![NONE; collection.elem_id_bound()],
        element: Vec::new(),
        home: Vec::new(),
        successors: Vec::new(),
        succ_range: Vec::new(),
        lowlink: Vec::new(),
        component: Vec::new(),
        stack: Vec::new(),
        calls: Vec::new(),
        row_of: Vec::new(),
        merged_into: Vec::new(),
        arena: Vec::new(),
    };
    for &s in region {
        if walk.walk_id[s as usize] == NONE {
            walk.visit(s, home_of(collection, s));
            walk.run();
        }
    }
    region
        .iter()
        .map(|&e| {
            let c = walk.component[walk.walk_id[e as usize] as usize];
            match walk.row_of[c as usize] {
                NONE => FixedBitSet::new(m),
                row => FixedBitSet::from_words(m, walk.row(row)),
            }
        })
        .collect()
}

/// The state of [`region_rows`]'s walk. Walk ids number the elements in
/// the order the walk reaches them, so they double as Tarjan's indices.
struct Walk<'c> {
    collection: &'c Collection,
    links: Csr,
    region: &'c [ElemId],
    targets: &'c FixedBitSet,
    /// Words per row.
    width: usize,
    /// Global id → walk id, [`NONE`] until reached.
    walk_id: Vec<u32>,
    /// Per walk id: the element, its document with first global id, and
    /// the range of `successors` holding its successors.
    element: Vec<ElemId>,
    home: Vec<(&'c XmlDocument, ElemId)>,
    successors: Vec<ElemId>,
    succ_range: Vec<(u32, u32)>,
    lowlink: Vec<u32>,
    /// Per walk id: its component, [`NONE`] while on Tarjan's stack.
    component: Vec<u32>,
    stack: Vec<u32>,
    /// The depth-first call stack: a walk id and its next successor.
    calls: Vec<(u32, u32)>,
    /// Per component: its row in `arena`, or [`NONE`] when it reaches no
    /// target; and the last component that merged its row.
    row_of: Vec<u32>,
    merged_into: Vec<u32>,
    arena: Vec<u64>,
}

impl<'c> Walk<'c> {
    fn row(&self, row: u32) -> &[u64] {
        &self.arena[row as usize * self.width..][..self.width]
    }

    /// Reaches `e`: numbers it, pushes it on both stacks and records its
    /// successors.
    fn visit(&mut self, e: ElemId, home: (&'c XmlDocument, ElemId)) {
        let v = self.element.len() as u32;
        self.walk_id[e as usize] = v;
        self.element.push(e);
        self.home.push(home);
        self.lowlink.push(v);
        self.component.push(NONE);
        self.stack.push(v);
        let (doc, base) = home;
        let lo = self.successors.len() as u32;
        let children = &doc.element(e - base).children;
        self.successors.extend(children.iter().map(|&c| base + c));
        self.successors.extend_from_slice(self.links.row(e));
        self.succ_range.push((lo, self.successors.len() as u32));
        self.calls.push((v, lo));
    }

    /// Whether `e` is a leaf without links that is no target: its row
    /// would be empty, and no path runs through it, so the walk skips it
    /// (most elements of a document tree are such leaves).
    fn dead_end(&self, e: ElemId, (doc, base): (&XmlDocument, ElemId)) -> bool {
        doc.element(e - base).children.is_empty()
            && self.links.row(e).is_empty()
            && !self.targets.contains(e)
    }

    /// Runs the depth-first walk until the call stack empties.
    fn run(&mut self) {
        while let Some(&(v, pos)) = self.calls.last() {
            let vi = v as usize;
            if pos < self.succ_range[vi].1 {
                self.calls.last_mut().expect("a call").1 += 1;
                let w = self.successors[pos as usize];
                match self.walk_id[w as usize] {
                    NONE => {
                        let (doc, base) = self.home[vi];
                        let home = if (base..base + doc.len() as ElemId).contains(&w) {
                            (doc, base)
                        } else {
                            home_of(self.collection, w)
                        };
                        if !self.dead_end(w, home) {
                            self.visit(w, home);
                        }
                    }
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
    /// its row from its own targets and its successor components' rows.
    fn close_component(&mut self, root: u32) {
        let c = self.row_of.len() as u32;
        // Walk ids enter the stack in ascending order.
        let at = self.stack.partition_point(|&x| x < root);
        for &x in &self.stack[at..] {
            self.component[x as usize] = c;
        }
        let mut row = NONE;
        for &x in &self.stack[at..] {
            let e = self.element[x as usize];
            if self.targets.contains(e) {
                if let Ok(j) = self.region.binary_search(&e) {
                    row = alloc_row(&mut self.arena, self.width, row);
                    self.arena[row as usize * self.width + j / 64] |= 1 << (j % 64);
                }
            }
            let (lo, hi) = self.succ_range[x as usize];
            for &w in &self.successors[lo as usize..hi as usize] {
                let wv = self.walk_id[w as usize];
                if wv == NONE {
                    continue; // a dead end
                }
                let cw = self.component[wv as usize];
                if cw == c || self.merged_into[cw as usize] == c {
                    continue;
                }
                self.merged_into[cw as usize] = c;
                let from = self.row_of[cw as usize];
                if from == NONE {
                    continue;
                }
                row = alloc_row(&mut self.arena, self.width, row);
                // A successor component closed earlier, so its row lies
                // below this one.
                let (below, this) = self.arena.split_at_mut(row as usize * self.width);
                let from = &below[from as usize * self.width..][..self.width];
                for (a, &b) in this[..self.width].iter_mut().zip(from) {
                    *a |= b;
                }
            }
        }
        self.stack.truncate(at);
        self.row_of.push(row);
        self.merged_into.push(NONE);
    }
}

/// `row`, or a fresh zeroed row at the end of `arena` when it is [`NONE`].
fn alloc_row(arena: &mut Vec<u64>, width: usize, row: u32) -> u32 {
    if row != NONE {
        return row;
    }
    let fresh = (arena.len() / width) as u32;
    arena.resize(arena.len() + width, 0);
    fresh
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
