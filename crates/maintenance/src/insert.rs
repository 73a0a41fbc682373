//! Insertions (paper §6.1).
//!
//! * Isolated nodes need no cover entries.
//! * A new edge `(u, v)` is inserted "by the same method that was used to
//!   add a link between partitions": every connection it creates is
//!   `a →* u → v →* d` over *old* paths, so the old cover's labels of `u`
//!   and `v` say how to cover it. [`integrate_link`] picks the cheapest of
//!   three exact ways — make `v` the center (what the §3.3 join of [26]
//!   does for every link), copy `{v} ∪ Lout(v)` into the ancestors'
//!   `Lout`, or copy `{u} ∪ Lin(u)` into the descendants' `Lin` — and does
//!   nothing when `u` already reaches `v`. Rows the link gives no new
//!   connection are left alone.
//! * A new document is "considered as a new partition": it joins the
//!   collection, its 2-hop cover is computed from the walk every partition
//!   cover reads ([`hopi_xml::DocSet`], confined to the document and its
//!   intra-document links) and merged, then its incoming/outgoing links
//!   are integrated one by one.

use hopi_core::HopiIndex;
use hopi_core::{CoverBuilder, DistEntry, DistanceCoverBuilder, FrozenCover, TwoHopCover};
use hopi_graph::{DiGraph, DistanceClosure};
use hopi_xml::{Collection, DocId, DocSet, ElemId, LinkIndex, LocalElemId, XmlDocument};

/// How [`integrate_link`] covered the connections of one new link `u → v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Integration {
    /// `u` already reached `v`: the link creates no connection.
    Noop,
    /// `v` became the center: `v` joined `Lout(a)` for every ancestor `a`
    /// of `u` and `Lin(d)` for every descendant `d` of `v`.
    Center,
    /// Every ancestor `a` of `u` copied `{v} ∪ Lout(v)` into `Lout(a)`; no
    /// `Lin` row changed.
    LoutCopy,
    /// Every descendant `d` of `v` copied `{u} ∪ Lin(u)` into `Lin(d)`; no
    /// `Lout` row changed.
    LinCopy,
}

impl Integration {
    /// The `choice` label of `hopi_link_integrations_total`.
    pub fn label(self) -> &'static str {
        match self {
            Integration::Noop => "noop",
            Integration::Center => "center",
            Integration::LoutCopy => "lout_copy",
            Integration::LinCopy => "lin_copy",
        }
    }
}

/// What integrating one link did to the cover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Integrated {
    /// The choice that covered the new connections.
    pub choice: Integration,
    /// Label entries added.
    pub added: usize,
}

/// Link integrations tallied by [`Integration`] choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrationCounts {
    /// [`Integration::Center`] choices.
    pub center: u64,
    /// [`Integration::LoutCopy`] choices.
    pub lout_copy: u64,
    /// [`Integration::LinCopy`] choices.
    pub lin_copy: u64,
    /// [`Integration::Noop`] choices.
    pub noop: u64,
}

impl IntegrationCounts {
    /// Counts one integration.
    pub fn record(&mut self, choice: Integration) {
        let slot = match choice {
            Integration::Noop => &mut self.noop,
            Integration::Center => &mut self.center,
            Integration::LoutCopy => &mut self.lout_copy,
            Integration::LinCopy => &mut self.lin_copy,
        };
        *slot += 1;
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: &IntegrationCounts) {
        self.center += other.center;
        self.lout_copy += other.lout_copy;
        self.lin_copy += other.lin_copy;
        self.noop += other.noop;
    }

    /// `(choice label, count)` pairs, in exposition order.
    pub fn as_labeled(&self) -> [(&'static str, u64); 4] {
        [
            (Integration::Center.label(), self.center),
            (Integration::LoutCopy.label(), self.lout_copy),
            (Integration::LinCopy.label(), self.lin_copy),
            (Integration::Noop.label(), self.noop),
        ]
    }
}

/// Integrates the link `u → v` into a cover that is exact for the graph
/// without it; afterwards the cover is exact for the graph with it, and
/// every entry added is a true connection.
///
/// Every connection the link creates is `a →* u → v →* d` with `a` an
/// ancestor of `u` and `d` a descendant of `v` under the old cover, and
/// the old cover already holds a center `w ∈ ({v} ∪ Lout(v)) ∩ ({d} ∪
/// Lin(d))` for `v →* d` and one in `({a} ∪ Lout(a)) ∩ ({u} ∪ Lin(u))` for
/// `a →* u`. So three label updates each cover all of them:
///
/// | choice | update | entries at most |
/// |---|---|---|
/// | [`Integration::Center`] | `Lout(a) ∪= {v}`, `Lin(d) ∪= {v}` | `A + D` |
/// | [`Integration::LoutCopy`] | `Lout(a) ∪= {v} ∪ Lout(v)` | `A·(1 + \|Lout(v)\|)` |
/// | [`Integration::LinCopy`] | `Lin(d) ∪= {u} ∪ Lin(u)` | `D·(1 + \|Lin(u)\|)` |
///
/// with `A = |anc(u)|` and `D = |desc(v)|`. An ancestor that already
/// reaches `v` reaches every `d` already, and a descendant that `u`
/// already reaches is reached by every `a` already: neither row gains a
/// connection, so both are dropped before `A` and `D` are counted and no
/// choice touches them. The cheapest bound wins (the center on a tie, then
/// the `Lout` copy). Only `anc(u)` and `desc(v)` are enumerated, with one
/// probe per element: on the leaf links most writes add, those two are
/// tiny while `anc(v)` and `desc(u)` can span the collection.
pub fn integrate_link(cover: &mut TwoHopCover, u: u32, v: u32) -> Integrated {
    integrate(cover, u, v, None)
}

/// [`integrate_link`] with the choice forced — for tests that must cover
/// every choice on the same programs.
#[cfg(test)]
pub(crate) fn integrate_link_as(
    cover: &mut TwoHopCover,
    u: u32,
    v: u32,
    choice: Integration,
) -> Integrated {
    integrate(cover, u, v, Some(choice))
}

fn integrate(cover: &mut TwoHopCover, u: u32, v: u32, forced: Option<Integration>) -> Integrated {
    cover.ensure_node(u.max(v));
    if cover.connected(u, v) {
        return Integrated {
            choice: Integration::Noop,
            added: 0,
        };
    }
    // Both enumerations, both filters and both copied rows come from the
    // old cover. `u` and `v` survive the filters unprobed: `u` does not
    // reach `v`.
    let mut ancestors = cover.ancestors(u);
    ancestors.retain(|&a| a == u || !cover.connected(a, v));
    let mut descendants = cover.descendants(v);
    descendants.retain(|&d| d == v || !cover.connected(u, d));
    let choice = forced.unwrap_or_else(|| {
        let (a, d) = (ancestors.len(), descendants.len());
        let center = a + d;
        let lout_copy = a.saturating_mul(1 + cover.lout(v).len());
        let lin_copy = d.saturating_mul(1 + cover.lin(u).len());
        if center <= lout_copy && center <= lin_copy {
            Integration::Center
        } else if lout_copy <= lin_copy {
            Integration::LoutCopy
        } else {
            Integration::LinCopy
        }
    });
    let mut added = 0usize;
    match choice {
        Integration::Noop => {}
        Integration::Center => added += center_on(cover, &ancestors, &descendants, v),
        Integration::LoutCopy => {
            let mut centers = cover.lout(v).to_vec();
            centers.push(v);
            for &a in &ancestors {
                for &c in &centers {
                    added += usize::from(cover.add_out(a, c));
                }
            }
        }
        Integration::LinCopy => {
            let mut centers = cover.lin(u).to_vec();
            centers.push(u);
            for &d in &descendants {
                for &c in &centers {
                    added += usize::from(cover.add_in(d, c));
                }
            }
        }
    }
    Integrated { choice, added }
}

/// Makes `v` the center of every connection from `ancestors` (of the
/// link's source) to `descendants` (of its target `v`): `v` joins
/// `Lout(a)` for each ancestor and `Lin(d)` for each descendant. Returns
/// the number of label entries added. Both lists must be enumerated on the
/// cover *before* the link.
fn center_on(cover: &mut TwoHopCover, ancestors: &[u32], descendants: &[u32], v: u32) -> usize {
    let mut added = 0usize;
    for &a in ancestors {
        added += usize::from(cover.add_out(a, v));
    }
    for &d in descendants {
        added += usize::from(cover.add_in(d, v));
    }
    added
}

/// Links connecting a new document to the existing collection, expressed
/// with document-local ids on the new side.
#[derive(Clone, Debug, Default)]
pub struct DocumentLinks {
    /// Outgoing: (local source element in the new doc, existing global
    /// target).
    pub outgoing: Vec<(LocalElemId, ElemId)>,
    /// Incoming: (existing global source, local target element in the new
    /// doc).
    pub incoming: Vec<(ElemId, LocalElemId)>,
}

/// An invalid link insertion, reported instead of the panics
/// [`Collection::add_link`] raises on bad endpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// An endpoint that is not (or no longer) a live element.
    UnknownEndpoint(ElemId),
    /// Both endpoints lie in the same document (same-document references
    /// belong to the document's intra-links).
    SameDocument {
        /// Link source.
        from: ElemId,
        /// Link target.
        to: ElemId,
    },
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::UnknownEndpoint(e) => write!(f, "link endpoint {e} is not a live element"),
            LinkError::SameDocument { from, to } => write!(
                f,
                "link {from} → {to} stays inside one document; use intra-document links"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// Inserts an inter-document link and updates the index incrementally.
///
/// Endpoints are validated up front — dead/unknown elements and
/// same-document pairs come back as [`LinkError`] instead of the panics of
/// [`Collection::add_link`]. Re-inserting an existing link is a no-op
/// (`L` is a set, paper §2): it reports [`Integration::Noop`] with nothing
/// added, without touching the cover. Otherwise the link is integrated by
/// [`integrate_link`].
pub fn insert_link(
    collection: &mut Collection,
    index: &mut HopiIndex,
    from: ElemId,
    to: ElemId,
) -> Result<Integrated, LinkError> {
    let fd = collection
        .doc_of(from)
        .ok_or(LinkError::UnknownEndpoint(from))?;
    let td = collection
        .doc_of(to)
        .ok_or(LinkError::UnknownEndpoint(to))?;
    if fd == td {
        return Err(LinkError::SameDocument { from, to });
    }
    if !collection.add_link(from, to) {
        return Ok(Integrated {
            choice: Integration::Noop,
            added: 0,
        });
    }
    Ok(integrate_link(index.cover_mut(), from, to))
}

/// Inserts a whole document plus its links (paper §6.1: "considering the
/// document as a new partition, computing the 2–hop cover for this
/// partition and applying the (old) algorithm for merging partitions").
/// Returns the assigned document id and how each link was integrated.
pub fn insert_document(
    collection: &mut Collection,
    index: &mut HopiIndex,
    doc: XmlDocument,
    links: &DocumentLinks,
) -> (DocId, IntegrationCounts) {
    // The document joins the collection, and its cover is built as a
    // partition's is: from a walk that stays inside it, over its
    // intra-document links alone.
    let d = collection.add_document(doc);
    let docs = DocSet::new(collection, [d]);
    let tc = docs.closure(&LinkIndex::of_document(collection, d));
    let doc_cover = CoverBuilder::new(&tc).build();
    let cover = index.cover_mut();
    cover.ensure_node(collection.elem_id_bound() as u32 - 1);
    cover.merge_remapped(&doc_cover, &docs.globals());

    // Integrate the links one by one, as standalone insertions are.
    let mut counts = IntegrationCounts::default();
    for &(local_src, target) in &links.outgoing {
        let from = collection.global_id(d, local_src);
        collection.add_link(from, target);
        counts.record(integrate_link(cover, from, target).choice);
    }
    for &(source, local_tgt) in &links.incoming {
        let to = collection.global_id(d, local_tgt);
        collection.add_link(source, to);
        counts.record(integrate_link(cover, source, to).choice);
    }
    (d, counts)
}

/// Distance-aware edge insertion (paper §6: "the algorithms presented...
/// can be applied also for distance-aware covers"): the successor of the
/// distance-annotated `cover` that covers the new edge `u → v`.
///
/// `v` becomes the center: every ancestor `a` of `u` receives
/// `(v, dist(a,u) + 1)` in `Lout`, every descendant `d` of `v` receives
/// `(v, dist(v,d))` in `Lin`. Any shortest path created or shortened by the
/// new edge decomposes as `a →* u → v →* d` over *old* shortest segments,
/// so these entries capture exactly the improved distances; stale longer
/// entries are harmless because the distance query takes the minimum. The
/// successor shares every block these entries leave alone.
pub fn insert_edge_distance(cover: &FrozenCover, u: u32, v: u32) -> FrozenCover {
    // Both enumerations include the node itself at distance 0.
    let lout = cover
        .ancestors_with_distance(u)
        .into_iter()
        .map(|(a, dau)| (a, v, dau + 1))
        .collect();
    let lin = cover
        .descendants_with_distance(v)
        .into_iter()
        .map(|(d, dvd)| (d, v, dvd))
        .collect();
    cover.successor(u.max(v) as usize + 1, lin, lout)
}

/// Distance-aware document insertion: the distance analogue of
/// [`insert_document`], for a document (and its links) **already present**
/// in the collection — the plain index is maintained first and the
/// distance cover rides along. The document gets a private distance cover
/// over its local element graph, merged shifted into `cover`; its links
/// are then integrated with [`insert_edge_distance`]. Returns the
/// successor of `cover`.
pub fn integrate_document_distance(
    collection: &Collection,
    cover: &FrozenCover,
    d: DocId,
    links: &DocumentLinks,
) -> FrozenCover {
    let Some(doc) = collection.document(d) else {
        return cover.clone();
    };
    let mut local = DiGraph::with_nodes(doc.len());
    for (p, c) in doc.tree_edges() {
        local.add_edge(p, c);
    }
    for &(f, t) in doc.intra_links() {
        local.add_edge(f, t);
    }
    let doc_cover = DistanceCoverBuilder::new(&DistanceClosure::from_graph(&local)).build();
    let base = collection.global_id(d, 0);
    let shifted = |row: Row, dists: Row| -> Vec<DistEntry> {
        (0..doc.len() as u32)
            .flat_map(|v| {
                let entries = row(&doc_cover, v).iter().zip(dists(&doc_cover, v));
                entries.map(move |(&c, &dist)| (base + v, base + c, dist))
            })
            .collect()
    };
    let mut cover = cover.successor(
        collection.elem_id_bound(),
        shifted(FrozenCover::lin, FrozenCover::lin_dists),
        shifted(FrozenCover::lout, FrozenCover::lout_dists),
    );
    for &(local_src, target) in &links.outgoing {
        cover = insert_edge_distance(&cover, collection.global_id(d, local_src), target);
    }
    for &(source, local_tgt) in &links.incoming {
        cover = insert_edge_distance(&cover, source, collection.global_id(d, local_tgt));
    }
    cover
}

/// A per-node row accessor of a frozen cover.
type Row = fn(&FrozenCover, u32) -> &[u32];

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_graph::TransitiveClosure;
    use hopi_partition::{build_index, BuildConfig};

    fn two_docs() -> (Collection, HopiIndex) {
        let mut c = Collection::new();
        for name in ["a", "b"] {
            let mut d = XmlDocument::new(name, "r");
            d.add_element(0, "s");
            c.add_document(d);
        }
        let (index, _) = build_index(&c, &BuildConfig::default());
        (c, index)
    }

    fn assert_exact(c: &Collection, index: &HopiIndex) {
        let g = c.element_graph();
        let tc = TransitiveClosure::from_graph(&g);
        // Dead id slots are skipped: reflexive queries on deleted elements
        // are vacuously true in the cover (`u == v`), and the index contract
        // only covers live elements.
        for u in (0..g.id_bound() as u32).filter(|&u| g.is_alive(u)) {
            for v in (0..g.id_bound() as u32).filter(|&v| g.is_alive(v)) {
                assert_eq!(index.connected(u, v), tc.contains(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn insert_link_updates_index() {
        let (mut c, mut index) = two_docs();
        assert!(!index.connected(0, 3));
        insert_link(&mut c, &mut index, 1, 2).unwrap(); // a/s -> b/root
        assert!(index.connected(0, 3));
        assert_exact(&c, &index);
    }

    #[test]
    fn insert_link_rejects_dead_and_unknown_endpoints() {
        // Regression: this used to panic inside Collection::add_link.
        let (mut c, mut index) = two_docs();
        assert_eq!(
            insert_link(&mut c, &mut index, 0, 9_999),
            Err(LinkError::UnknownEndpoint(9_999))
        );
        assert_eq!(
            insert_link(&mut c, &mut index, 9_999, 0),
            Err(LinkError::UnknownEndpoint(9_999))
        );
        // Endpoints of a removed document are dead, not just unknown.
        c.remove_document(1);
        assert_eq!(
            insert_link(&mut c, &mut index, 0, 2),
            Err(LinkError::UnknownEndpoint(2))
        );
        // The failed attempts left collection and index untouched.
        assert!(c.links().is_empty());
        assert_exact(&c, &index);
    }

    #[test]
    fn insert_link_rejects_same_document_pairs() {
        // Regression: this used to panic on the §2 "L is inter-document"
        // assertion.
        let (mut c, mut index) = two_docs();
        assert_eq!(
            insert_link(&mut c, &mut index, 0, 1),
            Err(LinkError::SameDocument { from: 0, to: 1 })
        );
        assert!(c.links().is_empty());
        assert_exact(&c, &index);
    }

    #[test]
    fn duplicate_insert_link_is_noop() {
        let (mut c, mut index) = two_docs();
        let first = insert_link(&mut c, &mut index, 1, 2).unwrap();
        assert!(first.added > 0);
        let size = index.size();
        assert_eq!(
            insert_link(&mut c, &mut index, 1, 2),
            Ok(Integrated {
                choice: Integration::Noop,
                added: 0
            })
        );
        assert_eq!(index.size(), size, "duplicate must not grow the cover");
        assert_eq!(c.links().len(), 1);
        assert_exact(&c, &index);
        index.cover().check_invariants();
    }

    #[test]
    fn ancestors_that_already_reach_the_target_keep_their_rows() {
        // 0 → 1 and 0 → 2 → 3, covered through 1, 2 ∈ Lout(0) and
        // 2 ∈ Lin(3). The link 1 → 3 gives 0 nothing new: 0 reaches 3
        // already, so no choice may add a label to `Lout(0)`.
        let exact = || {
            let mut cover = TwoHopCover::with_nodes(4);
            cover.add_out(0, 1);
            cover.add_out(0, 2);
            cover.add_in(3, 2);
            cover
        };
        let mut g = DiGraph::with_nodes(4);
        for (u, v) in [(0, 1), (0, 2), (2, 3), (1, 3)] {
            g.add_edge(u, v);
        }
        let tc = TransitiveClosure::from_graph(&g);
        for choice in [
            Integration::Center,
            Integration::LoutCopy,
            Integration::LinCopy,
        ] {
            let mut cover = exact();
            let done = integrate_link_as(&mut cover, 1, 3, choice);
            assert_eq!((done.choice, done.added), (choice, 1), "{choice:?}");
            assert_eq!(cover.lout(0), &[1, 2], "{choice:?}");
            for (u, v) in (0..4).flat_map(|u| (0..4).map(move |v| (u, v))) {
                assert_eq!(
                    cover.connected(u, v),
                    tc.contains(u, v),
                    "{choice:?} ({u},{v})"
                );
            }
        }
        // Priced on the filtered rows, one ancestor: the `Lout` copy of
        // `{3}` into `Lout(1)` is the single entry the link needs.
        let mut cover = exact();
        let done = integrate_link(&mut cover, 1, 3);
        assert_eq!((done.choice, done.added), (Integration::LoutCopy, 1));
    }

    #[test]
    fn insert_document_with_links() {
        let (mut c, mut index) = two_docs();
        let mut doc = XmlDocument::new("new", "r");
        let child = doc.add_element(0, "c");
        let grand = doc.add_element(child, "g");
        let links = DocumentLinks {
            outgoing: vec![(grand, 2)], // new/g -> b/root
            incoming: vec![(1, 0)],     // a/s -> new/root
        };
        let (d, counts) = insert_document(&mut c, &mut index, doc, &links);
        assert_eq!(d, 2);
        let integrated = counts.as_labeled().iter().map(|&(_, n)| n).sum::<u64>();
        assert_eq!(integrated, 2, "one integration per link");
        // a/root(0) -> a/s(1) -> new/root(4) -> ... -> new/g(6) -> b(2,3).
        assert!(index.connected(0, 3));
        assert!(index.connected(4, 2));
        assert_exact(&c, &index);
        index.cover().check_invariants();
    }

    #[test]
    fn insert_isolated_document() {
        let (mut c, mut index) = two_docs();
        let doc = XmlDocument::new("island", "r");
        let (d, _) = insert_document(&mut c, &mut index, doc, &DocumentLinks::default());
        let root = c.global_id(d, 0);
        assert!(index.connected(root, root));
        assert!(!index.connected(0, root));
        assert_exact(&c, &index);
    }

    #[test]
    fn insert_link_cycle() {
        let (mut c, mut index) = two_docs();
        insert_link(&mut c, &mut index, 1, 2).unwrap();
        insert_link(&mut c, &mut index, 3, 0).unwrap();
        assert!(index.connected(2, 1), "cycle closes");
        assert_exact(&c, &index);
    }

    #[test]
    fn repeated_inserts_stay_exact() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let mut c = Collection::new();
        for i in 0..6 {
            let mut d = XmlDocument::new(format!("d{i}"), "r");
            d.add_element(0, "x");
            d.add_element(0, "y");
            c.add_document(d);
        }
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        for _ in 0..20 {
            let di = rng.gen_range(0..6u32);
            let dj = rng.gen_range(0..6u32);
            if di == dj {
                continue;
            }
            let from = c.global_id(di, rng.gen_range(0..3));
            let to = c.global_id(dj, rng.gen_range(0..3));
            insert_link(&mut c, &mut index, from, to).unwrap();
            assert_exact(&c, &index);
        }
        index.cover().check_invariants();
    }

    #[test]
    fn distance_document_insert_matches_closure() {
        // Bootstrap two docs with a distance cover, then insert a third
        // with links and compare all distances against a fresh closure.
        let mut c = Collection::new();
        for name in ["a", "b"] {
            let mut d = XmlDocument::new(name, "r");
            d.add_element(0, "s");
            c.add_document(d);
        }
        let dc = DistanceClosure::from_graph(&c.element_graph());
        let cover = DistanceCoverBuilder::new(&dc).build();

        let mut doc = XmlDocument::new("new", "r");
        let child = doc.add_element(0, "c");
        let links = DocumentLinks {
            outgoing: vec![(child, 2)], // new/c -> b/root
            incoming: vec![(1, 0)],     // a/s -> new/root
        };
        let d = c.add_document(doc);
        for &(local_src, target) in &links.outgoing {
            c.add_link(c.global_id(d, local_src), target);
        }
        for &(source, local_tgt) in &links.incoming {
            c.add_link(source, c.global_id(d, local_tgt));
        }
        let cover = integrate_document_distance(&c, &cover, d, &links);

        let fresh = DistanceClosure::from_graph(&c.element_graph());
        let n = c.elem_id_bound() as u32;
        for u in 0..n {
            for v in 0..n {
                assert_eq!(cover.distance(u, v), fresh.dist(u, v), "dist({u},{v})");
            }
        }
        // a/root -> ... -> b/s is a 5-edge chain: 0->1->4->5->2->3.
        assert_eq!(cover.distance(0, 3), Some(5));
    }

    #[test]
    fn distance_insert_matches_closure() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let n = 15u32;
            let mut g = DiGraph::new();
            g.ensure_node(n - 1);
            // Start from a random base graph, build an exact cover…
            let base: Vec<(u32, u32)> = (0..20)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            for &(u, v) in &base {
                g.add_edge(u, v);
            }
            let dc = DistanceClosure::from_graph(&g);
            let mut cover = DistanceCoverBuilder::new(&dc).build();
            // …then insert edges incrementally and compare against a fresh
            // closure.
            for _ in 0..8 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u == v {
                    continue;
                }
                g.add_edge(u, v);
                cover = insert_edge_distance(&cover, u, v);
                let fresh = DistanceClosure::from_graph(&g);
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(
                            cover.distance(a, b),
                            fresh.dist(a, b),
                            "dist({a},{b}) after inserting ({u},{v})"
                        );
                    }
                }
            }
        }
    }
}
