//! Greedy 2-hop cover construction (Cohen et al.) with HOPI's optimizations.
//!
//! The builder consumes a [`TransitiveClosure`] and maintains the set `T'`
//! of not-yet-covered connections. Each round picks the center `w` whose
//! center graph has the densest subgraph among all candidates, adds `w` to
//! the labels of the chosen ancestors/descendants, and removes the covered
//! connections from `T'` (paper §3.2).
//!
//! HOPI's optimizations implemented here:
//!
//! 1. **Lazy priority queue**: densities only decrease as `T'` shrinks, so
//!    each node is held in a max-heap under a stale upper bound. On pop the
//!    exact densest subgraph is recomputed; if it still beats the next heap
//!    entry the center is committed, otherwise reinserted with the fresh
//!    value. This recomputes densest subgraphs "for only few instead of all
//!    nodes".
//! 2. **Initial center graphs are complete bipartite**, hence their own
//!    densest subgraphs — the initial priorities `a·d/(a+d)` cost nothing to
//!    compute.
//! 3. **Link-target center preselection** (paper §4.2): designated centers
//!    (targets of cross-partition links) are committed *first*, covering all
//!    connections through them, before the greedy loop starts — reducing
//!    redundant entries that the later cover join would otherwise duplicate.
//!
//! Beyond the paper, an evaluation never materializes its center graph: the
//! peel reads the edges off the uncovered-connection rows, each only inside
//! its span of non-zero words, and stops as soon as no remaining subgraph
//! can beat the best one seen (see [`crate::densest`]). The covers are
//! those of peeling a materialized copy to the last vertex, bit for bit.

use crate::cover::TwoHopCover;
use crate::densest::{complete_bipartite_density, spans_of, Peeled, Peeler, Rows, Side, Uncovered};
use hopi_graph::{FixedBitSet, TransitiveClosure, WordSpan};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry ordered by density.
struct HeapEntry {
    density: f64,
    node: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.density == other.density && self.node == other.node
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.density
            .total_cmp(&other.density)
            .then_with(|| self.node.cmp(&other.node))
    }
}

/// Statistics of one cover construction, reported by the benchmarks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Number of centers committed.
    pub centers: usize,
    /// Number of densest-subgraph recomputations performed.
    pub densest_evals: usize,
    /// Number of heap reinsertion (stale priority) events.
    pub reinsertions: usize,
    /// Connections covered by preselected centers (paper §4.2).
    pub preselected_covered: usize,
    /// Vertices of all evaluated center graphs.
    pub peel_offered: usize,
    /// Vertices the peels removed before their density bound ended them;
    /// `peel_removed / peel_offered` is the share of the classic
    /// peel-to-the-last-vertex work that was actually needed.
    pub peel_removed: usize,
    /// Row words the degree passes read, on either side of the center
    /// graphs (edgeless ones included): the kernel's main cost.
    pub degree_words: usize,
}

impl std::ops::AddAssign<&BuildStats> for BuildStats {
    fn add_assign(&mut self, other: &BuildStats) {
        self.centers += other.centers;
        self.densest_evals += other.densest_evals;
        self.reinsertions += other.reinsertions;
        self.preselected_covered += other.preselected_covered;
        self.peel_offered += other.peel_offered;
        self.peel_removed += other.peel_removed;
        self.degree_words += other.degree_words;
    }
}

/// Greedy 2-hop cover builder over a reflexive-transitive closure.
///
/// ```
/// use hopi_core::CoverBuilder;
/// use hopi_graph::{DiGraph, TransitiveClosure};
///
/// let mut g = DiGraph::new();
/// for (u, v) in [(0, 1), (1, 2), (1, 3)] {
///     g.add_edge(u, v);
/// }
/// let tc = TransitiveClosure::from_graph(&g);
/// let cover = CoverBuilder::new(&tc).build();
///
/// // The cover answers exactly the closure…
/// assert!(cover.connected(0, 3));
/// assert!(!cover.connected(2, 3));
/// // …while storing fewer entries than the closure has connections.
/// assert!(cover.size() <= tc.connection_count());
/// ```
pub struct CoverBuilder<'a> {
    tc: &'a TransitiveClosure,
    /// Uncovered connections, forward rows (reflexive pairs excluded — they
    /// are implicitly covered by the unstored self-labels).
    unc_out: Vec<FixedBitSet>,
    /// Transposed uncovered rows.
    unc_in: Vec<FixedBitSet>,
    /// The non-zero word span of every uncovered row:
    /// `out_span[u] == unc_out[u].word_span()`, `in_span[v]` likewise.
    out_span: Vec<WordSpan>,
    in_span: Vec<WordSpan>,
    /// The hull of every uncovered row: outside it `unc_out[u]` equals
    /// `descendants(u) − u` (`unc_in[v]` equals `ancestors(v) − v`). It
    /// starts over the words that sources leave out (empty without
    /// sources) and widens by the words each commit clears bits in.
    out_hull: Vec<WordSpan>,
    in_hull: Vec<WordSpan>,
    /// Every closure row with its size and word span, `descendants` and
    /// `ancestors`: the sides of the center graphs, fixed for the build.
    desc_side: Vec<Side<'a>>,
    anc_side: Vec<Side<'a>>,
    remaining: usize,
    /// The nodes whose connections start uncovered; `None` for all.
    sources: Option<FixedBitSet>,
    cover: TwoHopCover,
    stats: BuildStats,
}

impl<'a> CoverBuilder<'a> {
    /// Creates a builder; `T'` starts as all non-reflexive connections.
    pub fn new(tc: &'a TransitiveClosure) -> Self {
        Self::start(tc, None)
    }

    /// Creates a builder that covers only the connections leaving
    /// `sources`: `T'` starts as the non-reflexive connections `(s, v)`
    /// with `s ∈ sources`. The other rows of `tc` still shape the center
    /// graphs — a non-source `w` is a candidate hub for the sources that
    /// reach it — but no non-source gets an entry for its own
    /// connections. The Theorem-3 splice (`hopi_maintenance::delete`)
    /// re-covers the ancestors of a deleted region this way.
    pub fn only_from(tc: &'a TransitiveClosure, sources: &FixedBitSet) -> Self {
        let mut sources = sources.clone();
        sources.grow(tc.num_nodes());
        Self::start(tc, Some(sources))
    }

    fn start(tc: &'a TransitiveClosure, sources: Option<FixedBitSet>) -> Self {
        let n = tc.num_nodes();
        // The closure keeps both directions, so both uncovered-row tables
        // are word copies of its rows minus the reflexive pair (and, with
        // sources, minus every non-source). What sources leave out starts
        // each row's hull. A non-source's row is empty, so its span rules
        // out every read and it gets no words at all.
        let without_self = |row: &FixedBitSet, u: u32| {
            let mut row = row.clone();
            row.grow(n);
            row.remove(u);
            row
        };
        let (mut unc_out, mut out_hull) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for u in 0..n as u32 {
            if sources.as_ref().is_none_or(|s| s.contains(u)) {
                unc_out.push(without_self(tc.descendants(u), u));
                out_hull.push(WordSpan::EMPTY);
            } else {
                out_hull.push(span_without(tc.descendants(u), u));
                unc_out.push(FixedBitSet::new(0));
            }
        }
        let (mut unc_in, mut in_hull) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for v in 0..n as u32 {
            let mut row = without_self(tc.ancestors(v), v);
            let hull = match &sources {
                Some(s) => {
                    let hull = row.difference_span(s);
                    row.intersect_with(s);
                    hull
                }
                None => WordSpan::EMPTY,
            };
            unc_in.push(row);
            in_hull.push(hull);
        }
        let sides = |row: fn(&'a TransitiveClosure, u32) -> &'a FixedBitSet| {
            (0..n as u32).map(|u| Side::of(row(tc, u))).collect()
        };
        let remaining = unc_out.iter().map(FixedBitSet::count).sum();
        CoverBuilder {
            tc,
            out_span: spans_of(&unc_out),
            in_span: spans_of(&unc_in),
            unc_out,
            unc_in,
            out_hull,
            in_hull,
            desc_side: sides(TransitiveClosure::descendants),
            anc_side: sides(TransitiveClosure::ancestors),
            remaining,
            sources,
            cover: TwoHopCover::with_nodes(n),
            stats: BuildStats::default(),
        }
    }

    /// Number of connections still uncovered.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Runs the full construction and returns the cover.
    pub fn build(mut self) -> TwoHopCover {
        self.run();
        self.cover
    }

    /// Runs the construction and also returns build statistics.
    pub fn build_with_stats(mut self) -> (TwoHopCover, BuildStats) {
        self.run();
        (self.cover, self.stats)
    }

    /// Commits `preselected` (e.g. cross-partition link targets, paper §4.2)
    /// as centers covering *all* their connections, then runs the greedy
    /// loop for the remainder.
    pub fn build_with_preselected(mut self, preselected: &[u32]) -> (TwoHopCover, BuildStats) {
        for &t in preselected {
            if (t as usize) >= self.tc.num_nodes() || !self.tc.is_alive(t) {
                continue;
            }
            let tc = self.tc;
            let covered = self.commit_center(t, tc.ancestors(t), tc.descendants(t));
            self.stats.preselected_covered += covered;
        }
        self.run();
        (self.cover, self.stats)
    }

    fn run(&mut self) {
        let mut heap = self.seed_heap();
        let n = self.tc.num_nodes();
        let mut peeler = Peeler::new(n, n);
        while self.remaining > 0 {
            self.step(&mut heap, &mut peeler);
        }
    }

    /// Every live node under the density of its complete center graph.
    /// With sources, only they can be left vertices, so the bound counts
    /// the ancestors among them.
    fn seed_heap(&self) -> BinaryHeap<HeapEntry> {
        let n = self.tc.num_nodes();
        let mut heap = BinaryHeap::with_capacity(n);
        let sides = self.anc_side.iter().zip(&self.desc_side);
        for (w, (anc, desc)) in (0..n as u32).zip(sides) {
            if !self.tc.is_alive(w) {
                continue;
            }
            let a = match &self.sources {
                None => anc.count,
                Some(s) => anc.set.intersection_count(s),
            };
            let density = complete_bipartite_density(a, desc.count);
            if density > 0.0 {
                heap.push(HeapEntry { node: w, density });
            }
        }
        heap
    }

    /// One heap pop: evaluates the popped center `w` and commits or
    /// reinserts it. Returns the evaluation, `None` when no uncovered
    /// connection runs through `w` anymore. The center graph is never
    /// materialized — its edges are `unc_out[u] ∧ Cout(w)` for `u ∈ Cin(w)`.
    fn step(&mut self, heap: &mut BinaryHeap<HeapEntry>, peeler: &mut Peeler) -> Option<Peeled> {
        let w = heap
            .pop()
            .expect("connections uncovered but candidate heap exhausted")
            .node;
        let (Some(&cin), Some(&cout)) = (
            self.anc_side.get(w as usize),
            self.desc_side.get(w as usize),
        ) else {
            return None;
        };
        let peeled = peeler.peel_center(
            Uncovered::new(Rows::new(&self.unc_out, &self.out_span), &self.out_hull),
            Uncovered::new(Rows::new(&self.unc_in, &self.in_span), &self.in_hull),
            cin,
            cout,
        );
        self.stats.degree_words += std::mem::take(&mut peeler.degree_words);
        let peeled = peeled?;
        self.stats.densest_evals += 1;
        self.stats.peel_offered += peeled.offered;
        self.stats.peel_removed += peeled.removed;
        let density = peeled.density;
        let next_best = heap.peek().map_or(0.0, |e| e.density);
        if density + 1e-9 >= next_best {
            self.commit_center(w, peeler.left(), peeler.right());
            // w may still be useful for other connections later.
            let uncovered =
                |spans: &[WordSpan]| spans.get(w as usize).is_some_and(|s| !s.is_empty());
            if uncovered(&self.in_span) || uncovered(&self.out_span) {
                heap.push(HeapEntry { node: w, density });
            }
        } else {
            self.stats.reinsertions += 1;
            heap.push(HeapEntry { node: w, density });
        }
        Some(peeled)
    }

    /// Adds `w` to the labels of `cin`/`cout` and removes the covered
    /// connections from `T'`. Returns the number of newly covered
    /// connections.
    fn commit_center(&mut self, w: u32, cin: &FixedBitSet, cout: &FixedBitSet) -> usize {
        let (cin_span, cout_span) = (cin.word_span(), cout.word_span());
        let mut covered = 0usize;
        for u in cin.iter_in(cin_span) {
            let (rows, spans, hulls) = (&mut self.unc_out, &mut self.out_span, &mut self.out_hull);
            covered += uncover(rows, spans, hulls, u, cout, cout_span);
            self.cover.add_out(u, w);
        }
        for v in cout.iter_in(cout_span) {
            let (rows, spans, hulls) = (&mut self.unc_in, &mut self.in_span, &mut self.in_hull);
            uncover(rows, spans, hulls, v, cin, cin_span);
            self.cover.add_in(v, w);
        }
        self.remaining -= covered;
        self.stats.centers += 1;
        covered
    }
}

/// The word span of `row − u`, read off `row` without copying it.
fn span_without(row: &FixedBitSet, u: u32) -> WordSpan {
    let span = row.word_span();
    let w = u / 64;
    if !row.contains(u) || row.iter_in(WordSpan { lo: w, hi: w + 1 }).nth(1).is_some() {
        span // `u`'s word keeps a bit
    } else if span.lo == w {
        row.word_span_in(WordSpan { lo: w + 1, ..span })
    } else if span.hi == w + 1 {
        row.word_span_in(WordSpan { hi: w, ..span })
    } else {
        span
    }
}

/// `rows[u] &= !covered`, read and written only inside the overlap of the
/// row's span with `within`, the span of `covered`. The row's new span is
/// found by scanning inward from the ends of its old one, and its hull
/// widens by the words that lost bits. Returns the number of connections
/// the row lost.
fn uncover(
    rows: &mut [FixedBitSet],
    spans: &mut [WordSpan],
    hulls: &mut [WordSpan],
    u: u32,
    covered: &FixedBitSet,
    within: WordSpan,
) -> usize {
    let i = u as usize;
    let (Some(row), Some(span), Some(hull)) = (rows.get_mut(i), spans.get_mut(i), hulls.get_mut(i))
    else {
        return 0;
    };
    let inside = span.overlap(within);
    if inside.is_empty() {
        return 0;
    }
    let (lost, cleared) = row.difference_with_in(covered, inside);
    *span = row.word_span_in(*span);
    *hull = hull.hull(cleared);
    lost
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_graph::DiGraph;
    use rand::prelude::*;

    fn closure_of(edges: &[(u32, u32)], n: u32) -> (DiGraph, TransitiveClosure) {
        let mut g = DiGraph::new();
        g.ensure_node(n - 1);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        let tc = TransitiveClosure::from_graph(&g);
        (g, tc)
    }

    /// The cover must agree with the closure on every pair.
    fn assert_cover_exact(cover: &TwoHopCover, tc: &TransitiveClosure, n: u32) {
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    cover.connected(u, v),
                    tc.contains(u, v),
                    "pair ({u},{v}) mismatch"
                );
            }
        }
    }

    #[test]
    fn covers_a_path() {
        let (_, tc) = closure_of(&[(0, 1), (1, 2), (2, 3)], 4);
        let cover = CoverBuilder::new(&tc).build();
        assert_cover_exact(&cover, &tc, 4);
        cover.check_invariants();
        // 2-hop covers compress: the path closure has 6 non-reflexive
        // connections, the cover should need fewer entries than that.
        assert!(cover.size() <= 6, "cover size {} too large", cover.size());
    }

    #[test]
    fn covers_a_diamond() {
        let (_, tc) = closure_of(&[(0, 1), (0, 2), (1, 3), (2, 3)], 4);
        let cover = CoverBuilder::new(&tc).build();
        assert_cover_exact(&cover, &tc, 4);
    }

    #[test]
    fn covers_cycles() {
        let (_, tc) = closure_of(&[(0, 1), (1, 2), (2, 0), (2, 3)], 4);
        let cover = CoverBuilder::new(&tc).build();
        assert_cover_exact(&cover, &tc, 4);
    }

    #[test]
    fn empty_graph_empty_cover() {
        let (_, tc) = closure_of(&[], 3);
        let cover = CoverBuilder::new(&tc).build();
        assert_eq!(cover.size(), 0);
        assert!(cover.connected(1, 1));
        assert!(!cover.connected(0, 1));
    }

    #[test]
    fn bipartite_hub_prefers_center() {
        // Complete bipartite through a hub: 0,1,2 -> 3 -> 4,5,6. The greedy
        // algorithm should pick 3 as (nearly) the only center, giving a
        // cover of ~6 entries vs 15 closure connections.
        let (_, tc) = closure_of(&[(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6)], 7);
        let (cover, stats) = CoverBuilder::new(&tc).build_with_stats();
        assert_cover_exact(&cover, &tc, 7);
        assert!(cover.size() <= 8, "hub cover size {}", cover.size());
        assert!(stats.centers >= 1);
    }

    #[test]
    fn random_graphs_exact() {
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..25 {
            let n = rng.gen_range(5..40);
            let m = rng.gen_range(0..3 * n);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let (_, tc) = closure_of(&edges, n);
            let cover = CoverBuilder::new(&tc).build();
            assert_cover_exact(&cover, &tc, n);
            cover.check_invariants();
            let _ = round;
        }
    }

    #[test]
    fn preselected_centers_cover_their_connections() {
        let (_, tc) = closure_of(&[(0, 1), (1, 2), (2, 3)], 4);
        let (cover, stats) = CoverBuilder::new(&tc).build_with_preselected(&[2]);
        assert_cover_exact(&cover, &tc, 4);
        // Node 2 covers (0,2),(1,2),(0,3),(1,3),(2,3): 5 connections.
        assert_eq!(stats.preselected_covered, 5);
        // 2 sits in the Lout of its ancestors and Lin of its descendants.
        assert!(cover.lout(0).contains(&2));
        assert!(cover.lout(1).contains(&2));
        assert!(cover.lin(3).contains(&2));
    }

    #[test]
    fn preselected_unknown_nodes_ignored() {
        let (_, tc) = closure_of(&[(0, 1)], 2);
        let (cover, _) = CoverBuilder::new(&tc).build_with_preselected(&[77]);
        assert_cover_exact(&cover, &tc, 2);
    }

    #[test]
    fn only_from_covers_exactly_the_source_rows() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..40 {
            let n = rng.gen_range(2..90u32);
            let m = rng.gen_range(0..3 * n);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let (_, tc) = closure_of(&edges, n);
            let mut sources = FixedBitSet::new(n as usize);
            for u in (0..n).filter(|_| rng.gen_range(0..3) == 0) {
                sources.insert(u);
            }
            let builder = CoverBuilder::only_from(&tc, &sources);
            let want: usize = sources.iter().map(|s| tc.descendants(s).count() - 1).sum();
            assert_eq!(builder.remaining(), want);
            let cover = builder.build();
            cover.check_invariants();
            for u in 0..n {
                if sources.contains(u) {
                    for v in 0..n {
                        assert_eq!(cover.connected(u, v), tc.contains(u, v), "({u},{v})");
                    }
                } else {
                    assert!(cover.lout(u).is_empty(), "non-source {u} got Lout entries");
                }
                // Every entry is a true connection.
                assert!(cover.lout(u).iter().all(|&c| tc.contains(u, c)));
                assert!(cover.lin(u).iter().all(|&c| tc.contains(c, u)));
            }
        }
    }

    #[test]
    fn span_without_matches_a_copy() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let n = rng.gen_range(1..300u32);
            let mut row = FixedBitSet::new(n as usize);
            for _ in 0..rng.gen_range(0..4) {
                row.insert(rng.gen_range(0..n));
            }
            let u = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                row.insert(u);
            }
            let mut copy = row.clone();
            copy.remove(u);
            assert_eq!(span_without(&row, u), copy.word_span(), "{row:?} − {u}");
        }
    }

    #[test]
    fn stats_reflect_lazy_queue() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50u32;
        let edges: Vec<(u32, u32)> = (0..120)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();
        let (_, tc) = closure_of(&edges, n);
        let (_, stats) = CoverBuilder::new(&tc).build_with_stats();
        // Without preselection every evaluation either commits its center
        // or reinserts it: the lazy queue evaluates nothing else.
        assert_eq!(stats.densest_evals, stats.centers + stats.reinsertions);
    }

    #[test]
    fn compression_on_layered_dag() {
        // Layered DAG where a transitive closure is quadratic but a 2-hop
        // cover stays near-linear: k layers fully connected to the next.
        let k = 6u32;
        let w = 4u32;
        let mut edges = Vec::new();
        for layer in 0..k - 1 {
            for i in 0..w {
                for j in 0..w {
                    edges.push((layer * w + i, (layer + 1) * w + j));
                }
            }
        }
        let n = k * w;
        let (_, tc) = closure_of(&edges, n);
        let cover = CoverBuilder::new(&tc).build();
        assert_cover_exact(&cover, &tc, n);
        let closure_conns = tc.connection_count() - n as usize; // non-reflexive
        assert!(
            cover.size() < closure_conns,
            "cover {} !< closure {}",
            cover.size(),
            closure_conns
        );
    }

    /// The new kernel against the original one, step by step.
    mod golden {
        use super::*;
        use crate::densest::{reference, BipartiteCenterGraph, DensestResult};
        use hopi_graph::traversal::reachable_from;
        use proptest::prelude::*;

        /// The original evaluation path, verbatim: `center_graph`, the body
        /// of the old `run` loop and the slice-based `commit_center`.
        impl CoverBuilder<'_> {
            /// Materializes the center graph of `w` restricted to uncovered
            /// connections. Returns `None` when empty.
            fn center_graph(&self, w: u32) -> Option<BipartiteCenterGraph> {
                let cin = self.tc.ancestors(w);
                let cout = self.tc.descendants(w);
                let right: Vec<u32> = cout.to_vec();
                if right.is_empty() {
                    return None;
                }
                // Map right node ids to side indices.
                let mut right_pos = vec![u32::MAX; self.tc.num_nodes()];
                for (j, &v) in right.iter().enumerate() {
                    right_pos[v as usize] = j as u32;
                }
                let mut left = Vec::new();
                let mut adj = Vec::new();
                let mut edges = 0usize;
                for u in cin.iter() {
                    let mut row = self.unc_out[u as usize].clone();
                    row.intersect_with(cout);
                    let cnt = row.count();
                    if cnt == 0 {
                        continue;
                    }
                    edges += cnt;
                    let mut side_row = FixedBitSet::new(right.len());
                    for v in row.iter() {
                        side_row.insert(right_pos[v as usize]);
                    }
                    left.push(u);
                    adj.push(side_row);
                }
                if edges == 0 {
                    return None;
                }
                Some(BipartiteCenterGraph { left, right, adj })
            }

            fn step_reference(
                &mut self,
                heap: &mut BinaryHeap<HeapEntry>,
            ) -> Option<DensestResult> {
                let entry = heap
                    .pop()
                    .expect("connections uncovered but candidate heap exhausted");
                let w = entry.node;
                let cg = self.center_graph(w)?; // no uncovered connection runs through w anymore
                self.stats.densest_evals += 1;
                self.stats.peel_offered += cg.left.len() + cg.right.len();
                let result = reference::densest_subgraph(&cg)?;
                let next_best = heap.peek().map_or(0.0, |e| e.density);
                if result.density + 1e-9 >= next_best {
                    self.commit_center_reference(w, &result.left, &result.right);
                    // w may still be useful for other connections later.
                    if !self.unc_in[w as usize].is_empty() || !self.unc_out[w as usize].is_empty() {
                        heap.push(HeapEntry {
                            node: w,
                            density: result.density,
                        });
                    }
                } else {
                    self.stats.reinsertions += 1;
                    heap.push(HeapEntry {
                        node: w,
                        density: result.density,
                    });
                }
                Some(result)
            }

            fn commit_center_reference(&mut self, w: u32, cin: &[u32], cout: &[u32]) -> usize {
                let n = self.tc.num_nodes();
                let mut cout_set = FixedBitSet::new(n);
                for &v in cout {
                    cout_set.insert(v);
                }
                let mut cin_set = FixedBitSet::new(n);
                for &u in cin {
                    cin_set.insert(u);
                }
                let mut covered = 0usize;
                for &u in cin {
                    covered += self.unc_out[u as usize].intersection_count(&cout_set);
                    self.unc_out[u as usize].difference_with(&cout_set);
                }
                for &v in cout {
                    self.unc_in[v as usize].difference_with(&cin_set);
                }
                self.remaining -= covered;
                for &u in cin {
                    self.cover.add_out(u, w);
                }
                for &v in cout {
                    self.cover.add_in(v, w);
                }
                self.stats.centers += 1;
                covered
            }
        }

        /// Every stored span is the span of its row as it is now, and
        /// outside its hull every row equals its closure row minus the node.
        fn assert_spans_match(b: &CoverBuilder<'_>) {
            for (row, &span) in b.unc_out.iter().zip(&b.out_span) {
                assert_eq!(span, row.word_span(), "out span of {row:?}");
            }
            for (row, &span) in b.unc_in.iter().zip(&b.in_span) {
                assert_eq!(span, row.word_span(), "in span of {row:?}");
            }
            assert_eq!(b.out_span.len(), b.unc_out.len());
            assert_eq!(b.in_span.len(), b.unc_in.len());
            assert_eq!(b.out_hull.len(), b.unc_out.len());
            assert_eq!(b.in_hull.len(), b.unc_in.len());
            let tc = b.tc;
            for u in 0..tc.num_nodes() as u32 {
                let sides = [
                    (&b.unc_out, &b.out_hull, tc.descendants(u), "out"),
                    (&b.unc_in, &b.in_hull, tc.ancestors(u), "in"),
                ];
                for (rows, hulls, closure, side) in sides {
                    let hull = hulls[u as usize];
                    let mut row = rows[u as usize].clone();
                    let mut want = closure.clone();
                    want.remove(u);
                    row.clear_in(hull);
                    want.clear_in(hull);
                    assert!(
                        row.difference_span(&want).is_empty()
                            && want.difference_span(&row).is_empty(),
                        "{side} row of {u} outside its hull {hull:?}: {row:?} != {want:?}"
                    );
                }
            }
        }

        /// Steps the reference and the new kernel side by side over `tc` and
        /// asserts equality on every pop and of everything they produce.
        /// With `sources`, both are [`CoverBuilder::only_from`] builders.
        fn assert_golden(
            tc: &TransitiveClosure,
            sources: Option<&FixedBitSet>,
            preselected: &[u32],
        ) {
            let n = tc.num_nodes();
            let start = || match sources {
                Some(s) => CoverBuilder::only_from(tc, s),
                None => CoverBuilder::new(tc),
            };
            let mut old = start();
            let mut new = start();
            // `new` fills `unc_in` by word copy; the original transposed
            // `unc_out` one connection at a time.
            for (u, row) in new.unc_out.iter().enumerate() {
                for v in 0..n as u32 {
                    assert_eq!(row.contains(v), new.unc_in[v as usize].contains(u as u32));
                }
            }
            assert_spans_match(&new);
            for &t in preselected {
                if (t as usize) >= n || !tc.is_alive(t) {
                    continue;
                }
                let (cin, cout) = (tc.ancestors(t).to_vec(), tc.descendants(t).to_vec());
                old.stats.preselected_covered += old.commit_center_reference(t, &cin, &cout);
                new.stats.preselected_covered +=
                    new.commit_center(t, tc.ancestors(t), tc.descendants(t));
                assert_spans_match(&new);
            }
            let (mut old_heap, mut new_heap) = (old.seed_heap(), new.seed_heap());
            let mut peeler = Peeler::new(n, n);
            while old.remaining > 0 {
                let want = old.step_reference(&mut old_heap);
                let got = new.step(&mut new_heap, &mut peeler);
                assert_eq!(want.is_some(), got.is_some());
                if let (Some(want), Some(got)) = (want, got) {
                    assert_eq!(peeler.left().to_vec(), want.left);
                    assert_eq!(peeler.right().to_vec(), want.right);
                    assert_eq!(got.density.to_bits(), want.density.to_bits());
                    assert_eq!(got.edges, want.edges);
                    // The bound may not fire before the best prefix is
                    // reached (and never peels more than there is).
                    let best_prefix = got.offered - want.left.len() - want.right.len();
                    assert!(best_prefix <= got.removed && got.removed <= got.offered);
                }
                assert_eq!(new.remaining, old.remaining);
                assert_eq!(new.unc_out, old.unc_out);
                assert_eq!(new.unc_in, old.unc_in);
                assert_spans_match(&new);
            }
            for u in 0..n as u32 {
                assert_eq!(new.cover.lin(u), old.cover.lin(u), "lin({u})");
                assert_eq!(new.cover.lout(u), old.cover.lout(u), "lout({u})");
                // Holder lists are in insertion order: same commits, same order.
                assert_eq!(new.cover.holders_in(u), old.cover.holders_in(u));
                assert_eq!(new.cover.holders_out(u), old.cover.holders_out(u));
            }
            assert!(new.stats.peel_removed <= new.stats.peel_offered);
            let peel_removed = new.stats.peel_removed;
            new.stats.peel_removed = 0; // the reference has no early exit to count
            let degree_words = std::mem::take(&mut new.stats.degree_words); // nor word reads
            assert_eq!(new.stats, old.stats);

            // The public entry point is the same loop.
            let (cover, mut stats) = start().build_with_preselected(preselected);
            assert_eq!(stats.peel_removed, peel_removed);
            assert_eq!(stats.degree_words, degree_words);
            stats.peel_removed = 0;
            stats.degree_words = 0;
            assert_eq!(stats, old.stats);
            for u in 0..n as u32 {
                assert_eq!(cover.lin(u), old.cover.lin(u));
                assert_eq!(cover.lout(u), old.cover.lout(u));
            }
        }

        /// One closure of the given family, drawn from `seed`. Sizes straddle
        /// 64 and 128 nodes so that one-, two- and three-word rows — and with
        /// them the small-side rule's both branches and its fallback — occur.
        fn closure_family(family: u8, seed: u64) -> TransitiveClosure {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            let n: u32 = match family {
                // Random cyclic digraphs.
                0 => {
                    let n = rng.gen_range(2..150);
                    let m = rng.gen_range(0..3 * n);
                    edges.extend((0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))));
                    n
                }
                // Layered DAGs, sparse to complete between layers.
                1 => {
                    let (k, w) = (rng.gen_range(2..7u32), rng.gen_range(1..22u32));
                    let p = rng.gen_range(1..=10u32);
                    for layer in 0..k - 1 {
                        for i in 0..w {
                            for j in 0..w {
                                if rng.gen_range(0..10u32) < p {
                                    edges.push((layer * w + i, (layer + 1) * w + j));
                                }
                            }
                        }
                    }
                    k * w
                }
                // Complete-bipartite hubs, chained: sources → hub → sinks.
                2 => {
                    let mut n = 0u32;
                    for _ in 0..rng.gen_range(1..4) {
                        let (a, b) = (rng.gen_range(1..30u32), rng.gen_range(1..30u32));
                        let hub = n + a;
                        edges.extend((n..hub).map(|u| (u, hub)));
                        edges.extend((hub + 1..=hub + b).map(|v| (hub, v)));
                        n = hub + b; // the last sink is the next hub's first source
                    }
                    n + 1
                }
                // Stars: out-star, in-star, or both through one center.
                3 => {
                    let leaves = rng.gen_range(1..140u32);
                    let shape = rng.gen_range(0..3);
                    for leaf in 1..=leaves {
                        match shape {
                            0 => edges.push((0, leaf)),
                            1 => edges.push((leaf, 0)),
                            _ if leaf % 2 == 0 => edges.push((0, leaf)),
                            _ => edges.push((leaf, 0)),
                        }
                    }
                    leaves + 1
                }
                // Edgeless.
                _ => rng.gen_range(1..70),
            };
            closure_of(&edges, n).1
        }

        /// The Theorem-3 shape (`hopi_maintenance::delete`): full rows for a
        /// seed subset, reflexive-only rows elsewhere, some slots dead.
        /// Returns the seeds too.
        fn partial_closure_of(seed: u64) -> (TransitiveClosure, FixedBitSet) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..150u32);
            let mut g = DiGraph::new();
            g.ensure_node(n - 1);
            for _ in 0..rng.gen_range(0..3 * n) {
                g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
            }
            for _ in 0..rng.gen_range(0..n / 4 + 1) {
                g.remove_node(rng.gen_range(0..n));
            }
            let alive: Vec<bool> = (0..n).map(|u| g.is_alive(u)).collect();
            let mut seeds = FixedBitSet::new(n as usize);
            let rows = (0..n)
                .map(|u| {
                    if g.is_alive(u) && rng.gen_range(0..3) == 0 {
                        seeds.insert(u);
                        reachable_from(&g, u)
                    } else {
                        FixedBitSet::new(n as usize)
                    }
                })
                .collect();
            (TransitiveClosure::from_desc_rows(rows, alive, None), seeds)
        }

        /// A closure grown edge by edge: its rows are as long as its
        /// capacity, longer than `num_nodes()` and so than the scratch sets.
        fn incremental_closure(seed: u64) -> TransitiveClosure {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..100u32);
            let mut tc = TransitiveClosure::new();
            tc.ensure_node(n - 1);
            for _ in 0..rng.gen_range(0..2 * n) {
                tc.insert_edge(rng.gen_range(0..n), rng.gen_range(0..n));
            }
            tc
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn same_pops_same_cover(seed in 0u64..u64::MAX) {
                for family in 0..7u8 {
                    let (tc, seeds) = match family {
                        5 => {
                            let (tc, seeds) = partial_closure_of(seed);
                            (tc, Some(seeds))
                        }
                        6 => (incremental_closure(seed), None),
                        f => (closure_family(f, seed), None),
                    };
                    let n = tc.num_nodes() as u32;
                    assert_golden(&tc, None, &[]);
                    // §4.2 preselection, including a dead or out-of-range id.
                    assert_golden(&tc, None, &[seed as u32 % n, n / 2, n + 3]);
                    // The Theorem-3 splice: only the seeds' connections are
                    // uncovered, so the hulls of the other rows start
                    // non-empty.
                    if let Some(seeds) = &seeds {
                        assert_golden(&tc, Some(seeds), &[]);
                    }
                }
            }

            /// `only_from` over a full closure: the sources are a random
            /// subset, so ancestor rows hold non-sources too and the
            /// transposed hulls start non-empty as well.
            #[test]
            fn same_pops_same_cover_only_from(seed in 0u64..u64::MAX) {
                let tc = closure_family(0, seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
                let mut sources = FixedBitSet::new(tc.num_nodes());
                for u in (0..tc.num_nodes() as u32).filter(|_| rng.gen_range(0..3) == 0) {
                    sources.insert(u);
                }
                assert_golden(&tc, Some(&sources), &[]);
            }
        }
    }
}
