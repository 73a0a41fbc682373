//! Deletions (paper §6.2).
//!
//! Deleting a document `d_i` must remove exactly the connections that have
//! *no* remaining path — "even if the center for a connection is in
//! `V_E(d_i)`, there may be another path between these nodes", and
//! conversely connections may die whose center survives. Two algorithms:
//!
//! * **Theorem 2 (fast)** — applicable when `d_i` *separates* the
//!   document-level graph: every ancestor document reaches every descendant
//!   document only through `d_i`. Then every `VA → VD` connection dies with
//!   `d_i`, and it suffices to strip `V_di ∪ VD` from the `Lout` labels of
//!   `VA` and `V_di ∪ VA` from the `Lin` labels of `VD`.
//! * **Theorem 3 (general)** — every connection that can die starts in
//!   `A_di`, the element-level ancestors of the deleted elements, and ends
//!   in `D_di`, their descendants. Recompute the *partial* closure `Ĉ` of
//!   the surviving graph from `A_di ∪ D_di` into `D_di`, cover only its
//!   connections leaving `A_di` ([`CoverBuilder::only_from`]; the rows of
//!   `D_di` make its elements candidate hubs), and splice the
//!   `A_di × D_di` block alone: `L'out(a) := (Lout(a) \ D_di) ∪ L̂out(a)` for
//!   `a ∈ A_di`, `L'in(d) := (Lin(d) \ A_di) ∪ L̂in(d)` for `d ∈ D_di`.
//!   `Ĉ` and `L̂` live in the region's own id space, the live
//!   `A_di ∪ D_di` numbered in ascending order, so every table is as wide
//!   as the region rather than the collection. DESIGN.md ("Theorem 3
//!   (§6.2) as implemented") has the exactness proof.
//!
//! Single-link deletion reuses the Theorem 3 scheme with `A = anc(from)`
//! and `D = desc(to)`: every connection that can die runs through the
//! link.

use hopi_core::HopiIndex;
use hopi_core::{CoverBuilder, TwoHopCover};
use hopi_graph::closure::region_closure;
use hopi_graph::{traversal, FixedBitSet, TransitiveClosure};
use hopi_xml::{Collection, DocId, ElemId};

/// Which deletion algorithm ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeletionAlgorithm {
    /// Theorem 2: the document separated the document-level graph.
    FastSeparator,
    /// Theorem 3: partial closure recomputation.
    General,
}

impl DeletionAlgorithm {
    /// The `algorithm` label of `hopi_deletions_total`.
    pub fn label(self) -> &'static str {
        match self {
            DeletionAlgorithm::FastSeparator => "separator",
            DeletionAlgorithm::General => "general",
        }
    }
}

/// Result of a document deletion.
#[derive(Clone, Debug)]
pub struct DeletionOutcome {
    /// Algorithm used.
    pub algorithm: DeletionAlgorithm,
    /// Label entries removed (net change can differ: General also adds).
    pub entries_removed: usize,
    /// Seed count of the partial recomputation (General only).
    pub recompute_seeds: usize,
    /// Connections uncovered when the greedy over the partial closure
    /// started: the `A_di × D_di` pairs it re-covered (General only).
    pub recomputed_connections: usize,
}

/// Deletions per algorithm, and the connections Theorem 3 re-covered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeletionCounts {
    /// [`DeletionAlgorithm::FastSeparator`] deletions.
    pub separator: u64,
    /// [`DeletionAlgorithm::General`] deletions.
    pub general: u64,
    /// Sum of [`DeletionOutcome::recomputed_connections`].
    pub recomputed_connections: u64,
}

impl DeletionCounts {
    /// Counts one deletion.
    pub fn record(&mut self, outcome: &DeletionOutcome) {
        match outcome.algorithm {
            DeletionAlgorithm::FastSeparator => self.separator += 1,
            DeletionAlgorithm::General => self.general += 1,
        }
        self.recomputed_connections += outcome.recomputed_connections as u64;
    }

    /// `(algorithm label, count)` pairs, in exposition order.
    pub fn as_labeled(&self) -> [(&'static str, u64); 2] {
        [
            (DeletionAlgorithm::FastSeparator.label(), self.separator),
            (DeletionAlgorithm::General.label(), self.general),
        ]
    }
}

/// The proper ancestor and descendant documents of `d_i` in the
/// document-level graph, for a `d_i` that separates it: the documents
/// whose elements Theorem 2 strips.
struct Separation {
    anc_docs: FixedBitSet,
    desc_docs: FixedBitSet,
}

/// Runs the separator test once and hands its document sets on to the
/// fast path: `None` when `d_i` does not separate.
fn separation(collection: &Collection, di: DocId) -> Option<Separation> {
    let (mut gd, _) = collection.document_graph();
    if !gd.is_alive(di) {
        return Some(Separation {
            anc_docs: FixedBitSet::default(),
            desc_docs: FixedBitSet::default(),
        });
    }
    let mut anc_docs = traversal::reaching_to(&gd, di);
    anc_docs.remove(di);
    let mut desc_docs = traversal::reachable_from(&gd, di);
    desc_docs.remove(di);
    let separated = if anc_docs.is_empty() || desc_docs.is_empty() {
        true
    } else if anc_docs.intersects(&desc_docs) {
        // A document that is both ancestor and descendant (cycle through
        // d_i) trivially keeps an ancestor→descendant connection (itself).
        false
    } else {
        gd.remove_node(di);
        let reached = traversal::reachable_from_many(&gd, anc_docs.iter());
        !reached.intersects(&desc_docs)
    };
    separated.then_some(Separation {
        anc_docs,
        desc_docs,
    })
}

/// Does `d_i` separate the document-level graph? (paper §6.2)
///
/// True iff after removing `d_i` no (proper) ancestor document can reach any
/// (proper) descendant document. "The separation criterion serves as an
/// efficient test for whether we can simply drop the deleted document or
/// need to take additional measures" — cost is two BFS passes over `G_D`,
/// plus a third from the ancestors once `d_i` is gone.
pub fn separates(collection: &Collection, di: DocId) -> bool {
    separation(collection, di).is_some()
}

/// Deletes a document, dispatching to the Theorem 2 fast path when the
/// separator test passes and to the Theorem 3 general algorithm otherwise.
pub fn delete_document(
    collection: &mut Collection,
    index: &mut HopiIndex,
    di: DocId,
) -> DeletionOutcome {
    match separation(collection, di) {
        Some(separation) => delete_document_fast(collection, index, di, &separation),
        None => delete_document_general(collection, index, di),
    }
}

/// Theorem 2 fast deletion of a `d_i` that separates, given the test's
/// document sets.
fn delete_document_fast(
    collection: &mut Collection,
    index: &mut HopiIndex,
    di: DocId,
    separation: &Separation,
) -> DeletionOutcome {
    let before = index.size();
    let vdi = elements_of_docs(collection, [di]);
    let va = elements_of_docs(collection, separation.anc_docs.iter());
    let vd = elements_of_docs(collection, separation.desc_docs.iter());

    let cover = index.cover_mut();
    // Strip V_di ∪ VD centers from Lout of every a ∈ VA.
    for a in va.iter() {
        cover.retain_out(a, |c| !vdi.contains(c) && !vd.contains(c));
    }
    // Strip V_di ∪ VA centers from Lin of every d ∈ VD.
    for d in vd.iter() {
        cover.retain_in(d, |c| !vdi.contains(c) && !va.contains(c));
    }
    // Drop the deleted elements' own labels and all their occurrences as
    // centers anywhere else.
    for e in vdi.iter() {
        cover.purge_node(e);
    }
    collection.remove_document(di);
    DeletionOutcome {
        algorithm: DeletionAlgorithm::FastSeparator,
        entries_removed: before - index.size(),
        recompute_seeds: 0,
        recomputed_connections: 0,
    }
}

/// Theorem 3 general deletion: partial closure recomputation from the
/// element-level ancestors of the deleted elements.
pub fn delete_document_general(
    collection: &mut Collection,
    index: &mut HopiIndex,
    di: DocId,
) -> DeletionOutcome {
    let vdi = elements_of_doc(collection, di);
    delete_general_impl(collection, index, &vdi, &vdi, |collection| {
        collection.remove_document(di);
    })
}

/// Deletes a single inter-document link, updating the index with the same
/// partial-recomputation scheme ("a similar algorithm can be applied for
/// deleting a single edge from the index").
pub fn delete_link(
    collection: &mut Collection,
    index: &mut HopiIndex,
    from: ElemId,
    to: ElemId,
) -> DeletionOutcome {
    // Every connection that can die runs through `from → to`: it starts at
    // an ancestor of `from` and ends at a descendant of `to`.
    delete_general_impl(collection, index, &[from], &[to], |collection| {
        collection.remove_link(from, to);
    })
}

/// Shared Theorem 3 machinery.
///
/// Every connection that can die starts in `A_di`, the ancestors of
/// `from_region`, and ends in `D_di`, the descendants of `into_region`
/// (both under the old cover; for a document both regions are its
/// elements). `apply_removal` performs the structural change on the
/// collection; elements it kills are purged from the cover.
fn delete_general_impl(
    collection: &mut Collection,
    index: &mut HopiIndex,
    from_region: &[ElemId],
    into_region: &[ElemId],
    apply_removal: impl FnOnce(&mut Collection),
) -> DeletionOutcome {
    let before = index.size();
    let cover = index.cover_mut();
    let mut a_di = FixedBitSet::new(cover.num_nodes());
    let mut d_di = FixedBitSet::new(cover.num_nodes());
    for a in from_region.iter().flat_map(|&e| cover.ancestors(e)) {
        a_di.insert(a);
    }
    for d in into_region.iter().flat_map(|&e| cover.descendants(e)) {
        d_di.insert(d);
    }

    // Structural removal, then the surviving graph G'.
    apply_removal(collection);
    let g = collection.element_graph();
    let n = g.id_bound();
    a_di.grow(n);
    d_di.grow(n);
    let mut region = a_di.clone();
    region.union_with(&d_di);
    let (live, dead): (Vec<ElemId>, Vec<ElemId>) = region.iter().partition(|&e| g.is_alive(e));
    for &e in &dead {
        cover.purge_node(e);
    }

    // Ĉ lives in the region's own id space: `live[i]` is local id `i`. The
    // relabel keeps order, so every tie the greedy breaks on ids breaks the
    // same way as over global ids, and L̂ is that cover renamed.
    let mut seeds = FixedBitSet::new(live.len());
    for (i, &e) in live.iter().enumerate() {
        if a_di.contains(e) {
            seeds.insert(i as u32);
        }
    }
    // Partial closure Ĉ of G' into D_di: a row for every live seed of
    // A_di, and one for every live element of D_di so that descendants can
    // serve as hubs; ancestor rows only hold seeds, all `only_from` reads.
    let rows = region_closure(&g, &live, &d_di);
    let partial = TransitiveClosure::from_desc_rows(rows, vec![true; live.len()], Some(&seeds));
    let builder = CoverBuilder::only_from(&partial, &seeds);
    let recomputed_connections = builder.remaining();
    let hat: TwoHopCover = builder.build();

    // Splice: L'out(a) := (Lout(a) \ D_di) ∪ L̂out(a) for a ∈ A_di, and
    // L'in(d) := (Lin(d) \ A_di) ∪ L̂in(d) for d ∈ D_di, centers mapped
    // back to global ids.
    for i in seeds.iter() {
        let a = live[i as usize];
        cover.retain_out(a, |c| !d_di.contains(c));
        for &c in hat.lout(i) {
            cover.add_out(a, live[c as usize]);
        }
    }
    for (i, &d) in live.iter().enumerate() {
        if !d_di.contains(d) {
            continue;
        }
        cover.retain_in(d, |c| !a_di.contains(c));
        for &c in hat.lin(i as u32) {
            cover.add_in(d, live[c as usize]);
        }
    }
    DeletionOutcome {
        algorithm: DeletionAlgorithm::General,
        entries_removed: before.saturating_sub(index.size()),
        recompute_seeds: seeds.count(),
        recomputed_connections,
    }
}

fn elements_of_doc(collection: &Collection, d: DocId) -> Vec<ElemId> {
    let doc = collection.document(d).expect("live document");
    let base = collection.global_id(d, 0);
    (0..doc.len() as u32).map(|l| base + l).collect()
}

/// The elements of the live documents among `docs`.
fn elements_of_docs(collection: &Collection, docs: impl IntoIterator<Item = DocId>) -> FixedBitSet {
    let mut out = FixedBitSet::new(collection.elem_id_bound());
    for d in docs {
        if let Some(doc) = collection.document(d) {
            let base = collection.global_id(d, 0);
            for e in base..base + doc.len() as u32 {
                out.insert(e);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert::insert_link;
    use hopi_graph::DiGraph;
    use hopi_partition::{build_index, BuildConfig};
    use hopi_xml::generator::{random_collection, RandomConfig};
    use hopi_xml::XmlDocument;

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

    /// Figure 6 shape: 1 -> 2 -> 3 chain of documents; 2 separates.
    /// Extra pair 4 -> 5 -> 6 with a bypass 4 -> 6: 5 does not separate.
    fn figure6() -> Collection {
        let mut c = Collection::new();
        for i in 0..7 {
            let mut d = XmlDocument::new(format!("d{i}"), "r");
            d.add_element(0, "s");
            c.add_document(d);
        }
        let link = |c: &mut Collection, a: u32, b: u32| {
            let from = c.global_id(a, 1);
            let to = c.global_id(b, 0);
            c.add_link(from, to);
        };
        link(&mut c, 1, 2);
        link(&mut c, 2, 3);
        link(&mut c, 4, 5);
        link(&mut c, 5, 6);
        link(&mut c, 4, 6); // bypass
        c
    }

    #[test]
    fn separator_test_matches_figure_6() {
        let c = figure6();
        assert!(separates(&c, 2), "doc 2 separates the chain");
        assert!(!separates(&c, 5), "doc 5 is bypassed");
        assert!(separates(&c, 0), "isolated doc trivially separates");
        assert!(separates(&c, 1), "no ancestors → separates");
        assert!(separates(&c, 3), "no descendants → separates");
    }

    #[test]
    fn separator_false_on_cycles() {
        let mut c = figure6();
        // close a cycle 3 -> 1 through new link; now 2 sits on a cycle.
        let from = c.global_id(3, 1);
        let to = c.global_id(1, 0);
        c.add_link(from, to);
        assert!(!separates(&c, 2));
    }

    #[test]
    fn fast_delete_separator_document() {
        let mut c = figure6();
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        let outcome = delete_document(&mut c, &mut index, 2);
        assert_eq!(outcome.algorithm, DeletionAlgorithm::FastSeparator);
        assert_exact(&c, &index);
        index.cover().check_invariants();
        assert!(outcome.entries_removed > 0);
    }

    #[test]
    fn general_delete_bypassed_document() {
        let mut c = figure6();
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        let outcome = delete_document(&mut c, &mut index, 5);
        assert_eq!(outcome.algorithm, DeletionAlgorithm::General);
        assert!(outcome.recompute_seeds > 0);
        // 4 must still reach 6 via the bypass.
        assert!(index.connected(c.global_id(4, 0), c.global_id(6, 0)));
        assert_exact(&c, &index);
        index.cover().check_invariants();
    }

    #[test]
    fn general_delete_on_cycle_member() {
        let mut c = figure6();
        let from = c.global_id(3, 1);
        let to = c.global_id(1, 0);
        c.add_link(from, to);
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        let outcome = delete_document(&mut c, &mut index, 2);
        assert_eq!(outcome.algorithm, DeletionAlgorithm::General);
        assert_exact(&c, &index);
    }

    #[test]
    fn delete_isolated_document() {
        let mut c = figure6();
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        let outcome = delete_document(&mut c, &mut index, 0);
        assert_eq!(outcome.algorithm, DeletionAlgorithm::FastSeparator);
        assert_exact(&c, &index);
    }

    #[test]
    fn delete_link_with_bypass() {
        let mut c = figure6();
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        // Delete 4 -> 6 bypass: 4 still reaches 6 via 5.
        let from = c.global_id(4, 1);
        let to = c.global_id(6, 0);
        // figure6 adds 4->6 with source (4,1)? No: bypass used (4,1)->(6,0)
        // same as 4->5 source. Both links share the source element.
        delete_link(&mut c, &mut index, from, to);
        assert!(index.connected(c.global_id(4, 0), c.global_id(6, 0)));
        assert_exact(&c, &index);
    }

    #[test]
    fn delete_link_severs_unique_path() {
        let mut c = figure6();
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        let from = c.global_id(1, 1);
        let to = c.global_id(2, 0);
        delete_link(&mut c, &mut index, from, to);
        assert!(!index.connected(c.global_id(1, 0), c.global_id(3, 0)));
        assert_exact(&c, &index);
        index.cover().check_invariants();
    }

    #[test]
    fn delete_link_inside_a_cycle() {
        // 1 → 2 → 3 → 1 through links, plus the bypass 1 → 3: deleting
        // 2 → 3 keeps the cycle 1 → 3 → 1 and 3 → 1 → 2, but leaves 2
        // without a way out.
        let mut c = figure6();
        let (from, to) = (c.global_id(3, 1), c.global_id(1, 0));
        c.add_link(from, to);
        let (from, to) = (c.global_id(1, 1), c.global_id(3, 0));
        c.add_link(from, to);
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        let (from, to) = (c.global_id(2, 1), c.global_id(3, 0));
        let outcome = delete_link(&mut c, &mut index, from, to);
        assert_eq!(outcome.algorithm, DeletionAlgorithm::General);
        assert!(outcome.recomputed_connections > 0);
        assert!(!index.connected(c.global_id(2, 0), c.global_id(3, 0)));
        assert!(!index.connected(c.global_id(2, 0), c.global_id(1, 0)));
        assert!(index.connected(c.global_id(1, 0), c.global_id(3, 0)));
        assert!(index.connected(c.global_id(3, 0), c.global_id(2, 0)));
        assert_exact(&c, &index);
        index.cover().check_invariants();
    }

    /// Theorem 3 over global ids, the body [`delete_general_impl`] had
    /// before it moved to the region's own id space: every table `n` wide,
    /// one BFS per region element. The reference the compacted deletion
    /// must reproduce entry for entry.
    fn delete_general_global(
        collection: &mut Collection,
        index: &mut HopiIndex,
        from_region: &[ElemId],
        into_region: &[ElemId],
        apply_removal: impl FnOnce(&mut Collection),
    ) -> DeletionOutcome {
        let before = index.size();
        let cover = index.cover_mut();
        let mut a_di = FixedBitSet::new(cover.num_nodes());
        let mut d_di = FixedBitSet::new(cover.num_nodes());
        for a in from_region.iter().flat_map(|&e| cover.ancestors(e)) {
            a_di.insert(a);
        }
        for d in into_region.iter().flat_map(|&e| cover.descendants(e)) {
            d_di.insert(d);
        }

        // Structural removal, then the surviving graph G'.
        apply_removal(collection);
        let g = collection.element_graph();
        let n = g.id_bound();
        a_di.grow(n);
        d_di.grow(n);
        let mut region = a_di.clone();
        region.union_with(&d_di);
        let (live, dead): (Vec<ElemId>, Vec<ElemId>) = region.iter().partition(|&e| g.is_alive(e));
        let mut seeds = a_di.clone();
        for &e in &dead {
            cover.purge_node(e);
            seeds.remove(e);
        }

        // Partial closure Ĉ of G' into D_di: a row for every live seed of
        // A_di, and one for every live element of D_di so that descendants can
        // serve as hubs; every row intersected with D_di.
        let mut desc_rows: Vec<FixedBitSet> = vec![FixedBitSet::new(n); n];
        for (x, mut row) in partial_closure(&g, &live) {
            row.intersect_with(&d_di);
            desc_rows[x as usize] = row;
        }
        let alive: Vec<bool> = (0..n as u32).map(|e| g.is_alive(e)).collect();
        let partial = TransitiveClosure::from_desc_rows(desc_rows, alive, None);
        let builder = CoverBuilder::only_from(&partial, &seeds);
        let recomputed_connections = builder.remaining();
        let hat: TwoHopCover = builder.build();

        // Splice: L'out(a) := (Lout(a) \ D_di) ∪ L̂out(a) for a ∈ A_di, and
        // L'in(d) := (Lin(d) \ A_di) ∪ L̂in(d) for d ∈ D_di.
        for a in seeds.iter() {
            cover.retain_out(a, |c| !d_di.contains(c));
            for &c in hat.lout(a) {
                cover.add_out(a, c);
            }
        }
        for d in d_di.iter().filter(|&d| g.is_alive(d)) {
            cover.retain_in(d, |c| !a_di.contains(c));
            for &c in hat.lin(d) {
                cover.add_in(d, c);
            }
        }
        DeletionOutcome {
            algorithm: DeletionAlgorithm::General,
            entries_removed: before.saturating_sub(index.size()),
            recompute_seeds: seeds.count(),
            recomputed_connections,
        }
    }

    /// The per-source BFS rows the global-space deletion computed Ĉ from.
    fn partial_closure(g: &DiGraph, sources: &[ElemId]) -> Vec<(ElemId, FixedBitSet)> {
        sources
            .iter()
            .filter(|&&s| g.is_alive(s))
            .map(|&s| (s, traversal::reachable_from(g, s)))
            .collect()
    }

    /// Same labels and, because the splice issues the same edits in the
    /// same order, the same holder lists.
    fn assert_same_cover(got: &HopiIndex, want: &HopiIndex) {
        let (got, want) = (got.cover(), want.cover());
        assert_eq!(got.size(), want.size());
        assert_eq!(got.num_nodes(), want.num_nodes());
        for u in 0..want.num_nodes() as u32 {
            assert_eq!(got.lin(u), want.lin(u), "lin({u})");
            assert_eq!(got.lout(u), want.lout(u), "lout({u})");
            assert_eq!(got.holders_in(u), want.holders_in(u), "holders_in({u})");
            assert_eq!(got.holders_out(u), want.holders_out(u), "holders_out({u})");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The compacted Theorem 3 leaves the cover the global-space one
        /// leaves, on cyclic collections with intra-document links, for
        /// link and document deletions, on built covers and on covers
        /// grown by §6.1 label copies.
        #[test]
        fn compacted_deletion_matches_global_space(seed in 0u64..u64::MAX) {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            // Up to ~250 elements: regions wider than one 64-bit word.
            let mut c = random_collection(&RandomConfig {
                num_docs: rng.gen_range(4..28),
                elements_range: (1, 10),
                num_links: rng.gen_range(4..60),
                num_intra_links: rng.gen_range(0..16),
                allow_cycles: true,
                seed,
                text: Default::default(),
            });
            let (mut index, _) = build_index(&c, &BuildConfig::default());
            let n = c.elem_id_bound() as u32;
            for _ in 0..rng.gen_range(0..12) {
                let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let _ = insert_link(&mut c, &mut index, from, to);
            }
            for _ in 0..6 {
                let (mut c_ref, mut index_ref) = (c.clone(), index.clone());
                let links = c.links().to_vec();
                let (got, want) = if !links.is_empty() && rng.gen_range(0..2) == 0 {
                    let link = links[rng.gen_range(0..links.len())];
                    let (from, to) = (link.from, link.to);
                    let got = delete_link(&mut c, &mut index, from, to);
                    let want = delete_general_global(&mut c_ref, &mut index_ref, &[from], &[to], |c| {
                        c.remove_link(from, to);
                    });
                    (got, want)
                } else {
                    let live: Vec<DocId> = c.doc_ids().collect();
                    if live.len() <= 1 {
                        break;
                    }
                    let d = live[rng.gen_range(0..live.len())];
                    let vdi = elements_of_doc(&c, d);
                    let got = delete_document_general(&mut c, &mut index, d);
                    let want = delete_general_global(&mut c_ref, &mut index_ref, &vdi, &vdi, |c| {
                        c.remove_document(d);
                    });
                    (got, want)
                };
                proptest::prop_assert_eq!(got.entries_removed, want.entries_removed);
                proptest::prop_assert_eq!(got.recompute_seeds, want.recompute_seeds);
                proptest::prop_assert_eq!(got.recomputed_connections, want.recomputed_connections);
                assert_same_cover(&index, &index_ref);
            }
            assert_exact(&c, &index);
        }
    }

    #[test]
    fn random_deletion_storm_stays_exact() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(31);
        let mut c = random_collection(&RandomConfig {
            num_docs: 14,
            elements_range: (2, 6),
            num_links: 22,
            num_intra_links: 5,
            allow_cycles: true,
            seed: 77,
            text: Default::default(),
        });
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        let mut live: Vec<DocId> = c.doc_ids().collect();
        for _ in 0..8 {
            let pick = live.remove(rng.gen_range(0..live.len()));
            delete_document(&mut c, &mut index, pick);
            assert_exact(&c, &index);
            index.cover().check_invariants();
            if live.len() <= 2 {
                break;
            }
        }
    }
}
