//! Densest-subgraph 2-approximation on bipartite center graphs.
//!
//! For a candidate center `w`, the *center graph* `CG_w` is the undirected
//! bipartite graph with left vertices `u ∈ Cin(w)` (ancestors of `w`), right
//! vertices `v ∈ Cout(w)` (descendants), and an edge `(u, v)` for every *not
//! yet covered* connection through `w` (paper §3.2). The density of a
//! subgraph is `|E'| / |V'|`; the densest subgraph determines the label sets
//! `C'in`, `C'out` that the greedy cover construction commits to.
//!
//! The densest subgraph is 2-approximated by the classic peeling algorithm:
//! iteratively remove a vertex of minimum degree and return the intermediate
//! subgraph of maximum density.
//!
//! One loop, [`Peeler`], serves both builders. [`crate::CoverBuilder`] runs
//! it straight over its uncovered-connection rows, so no center graph is
//! materialized; [`densest_subgraph`] adapts it to a materialized
//! [`BipartiteCenterGraph`] for the distance-aware builder, whose
//! shortest-path-filtered edges exist nowhere else. Each row is read only
//! inside its span of non-zero words, and the peel stops as soon as no
//! remaining subgraph can beat the best prefix seen (DESIGN.md, "The greedy
//! kernel (§3.2) as implemented").

use hopi_graph::bitset::Intersection;
use hopi_graph::{FixedBitSet, WordSpan};

/// A materialized bipartite center graph.
///
/// `adj[i]` holds the right-side *indices* adjacent to left vertex `i`;
/// `left`/`right` translate side indices back to graph node ids. The same
/// node may legally appear on both sides (cycles through the center).
#[derive(Debug, Clone)]
pub struct BipartiteCenterGraph {
    /// Left-side node ids (`C'in` candidates — ancestors of the center).
    pub left: Vec<u32>,
    /// Right-side node ids (`C'out` candidates — descendants of the center).
    pub right: Vec<u32>,
    /// `adj[i]` = bit set over `0..right.len()`.
    pub adj: Vec<FixedBitSet>,
}

impl BipartiteCenterGraph {
    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(FixedBitSet::count).sum()
    }

    /// True when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.adj.iter().all(FixedBitSet::is_empty)
    }
}

/// Result of the densest-subgraph approximation.
#[derive(Debug, Clone)]
pub struct DensestResult {
    /// Chosen left-side node ids (`C'in`).
    pub left: Vec<u32>,
    /// Chosen right-side node ids (`C'out`).
    pub right: Vec<u32>,
    /// Density `|E'| / |V'|` of the chosen subgraph.
    pub density: f64,
    /// Edge count of the chosen subgraph.
    pub edges: usize,
}

/// Outcome of one peel: density and edge count of the densest prefix, and
/// how much of the center graph the peel had to remove to be sure of it.
/// The prefix's vertex sets stay in the [`Peeler`] ([`Peeler::left`],
/// [`Peeler::right`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Peeled {
    /// Density `|E'| / |V'|` of the chosen subgraph.
    pub density: f64,
    /// Edge count of the chosen subgraph.
    pub edges: usize,
    /// Vertices of the evaluated center graph.
    pub offered: usize,
    /// Vertices removed before the density bound ended the peel, the
    /// edgeless ones included.
    pub removed: usize,
}

/// One side's edge rows, each with its non-zero word span
/// (`spans[u] == rows[u].word_span()`). The peel reads a row only inside
/// the overlap of its span with the span of the set it is ANDed with, so a
/// row without uncovered connections costs one comparison.
#[derive(Clone, Copy)]
pub(crate) struct Rows<'a> {
    rows: &'a [FixedBitSet],
    spans: &'a [WordSpan],
}

/// The non-zero word span of every row.
pub(crate) fn spans_of(rows: &[FixedBitSet]) -> Vec<WordSpan> {
    rows.iter().map(FixedBitSet::word_span).collect()
}

impl<'a> Rows<'a> {
    pub(crate) fn new(rows: &'a [FixedBitSet], spans: &'a [WordSpan]) -> Self {
        debug_assert_eq!(rows.len(), spans.len());
        Rows { rows, spans }
    }

    /// Row `u` and the part of its span inside `within`, `None` when that
    /// part is empty.
    #[inline]
    fn at(self, u: u32, within: WordSpan) -> Option<(&'a FixedBitSet, WordSpan)> {
        let span = self.spans.get(u as usize)?.overlap(within);
        if span.is_empty() {
            return None;
        }
        Some((self.rows.get(u as usize)?, span))
    }

    /// Ascending bits of `rows[u] ∧ other`, where `within` spans `other`.
    #[inline]
    fn meet(self, u: u32, other: &'a FixedBitSet, within: WordSpan) -> Intersection<'a> {
        match self.at(u, within) {
            Some((row, span)) => row.intersection_iter_in(other, span),
            None => Intersection::default(),
        }
    }

    /// `|rows[u] ∧ other|`, where `within` spans `other`.
    #[inline]
    fn meet_count(self, u: u32, other: &FixedBitSet, within: WordSpan) -> u32 {
        self.at(u, within).map_or(0, |(row, span)| {
            row.intersection_count_in(other, span) as u32
        })
    }
}

/// The peeling loop and its scratch state, allocated once per build.
///
/// Vertices live in two id spaces, `0..left_space` and `0..right_space`
/// (the closure's node ids on both sides for the cover builder, side
/// indices for a materialized graph). The edges of a left vertex `u` are
/// the bits of `left_rows[u] ∧ alive_r`, those of a right vertex `v` the
/// bits of `right_rows[v] ∧ alive_l`: the rows are only read, so the cover
/// builder passes its uncovered-connection rows as they are.
///
/// One rule of the original materializing implementation decides ties, and
/// every cover built since depends on it, so it is kept on purpose
/// (`builder::tests::golden` steps the original beside this loop): buckets
/// are LIFO stacks with lazy stale entries, filled left side first and each
/// side in ascending id order, and `cursor` falls back on every decrement —
/// that fixes which minimum-degree vertex goes next.
///
/// Edgeless vertices never enter the peel. The original peeled them first,
/// from bucket 0, and none ever belonged to the chosen subgraph (DESIGN.md,
/// "Why the covers are bit-identical"); [`Peeler::peel`] only counts them.
pub(crate) struct Peeler {
    /// Vertices not yet peeled; after a peel, the chosen subgraph.
    alive_l: FixedBitSet,
    alive_r: FixedBitSet,
    /// Current degrees; only the entries of alive vertices mean anything.
    ldeg: Vec<u32>,
    rdeg: Vec<u32>,
    /// Bucket queue over degrees, empty between peels. A vertex is pushed
    /// again under every new degree and its older entries go stale. Left
    /// `u` is filed as `u`, right `v` as `left_space + v`.
    buckets: Vec<Vec<u32>>,
    /// Peeled vertices in removal order (same encoding).
    order: Vec<u32>,
}

impl Peeler {
    pub(crate) fn new(left_space: usize, right_space: usize) -> Self {
        Peeler {
            alive_l: FixedBitSet::new(left_space),
            alive_r: FixedBitSet::new(right_space),
            ldeg: vec![0; left_space],
            rdeg: vec![0; right_space],
            buckets: Vec::new(),
            order: Vec::new(),
        }
    }

    /// `C'in` of the last peel.
    pub(crate) fn left(&self) -> &FixedBitSet {
        &self.alive_l
    }

    /// `C'out` of the last peel.
    pub(crate) fn right(&self) -> &FixedBitSet {
        &self.alive_r
    }

    /// Peels the center graph with left side `cin`, right side `cout` and
    /// an edge for every uncovered connection between them, read straight
    /// off `unc_out` and its transpose `unc_in`. `None` when it is edgeless.
    pub(crate) fn peel_center(
        &mut self,
        unc_out: Rows<'_>,
        unc_in: Rows<'_>,
        cin: &FixedBitSet,
        cout: &FixedBitSet,
    ) -> Option<Peeled> {
        self.alive_l.clear();
        self.alive_r.clear();
        let (a, d) = (cin.count(), cout.count());
        let (cin_span, cout_span) = (cin.word_span(), cout.word_span());
        let words = self.ldeg.len().div_ceil(64);
        let (mut edges, mut max_l, mut max_r) = (0usize, 0u32, 0u32);
        // Degrees are popcounts of a row ANDed with the other side, one pass
        // per side. But if the smaller side has at most `words` vertices,
        // every vertex of the other side has at most `words` edges, so
        // walking the small side's rows edge by edge costs no more than the
        // other side's popcount pass — for stars, leaves and the
        // reflexive-only rows of a Theorem-3 partial closure far less — and
        // yields both degree vectors. Either way a vertex joins its alive
        // set with its first edge.
        if d <= a.min(words) {
            for v in cout.iter() {
                let mut deg = 0;
                for u in unc_in.meet(v, cin, cin_span) {
                    let slot = &mut self.ldeg[u as usize];
                    *slot = if self.alive_l.insert(u) { 1 } else { *slot + 1 };
                    max_l = max_l.max(*slot);
                    deg += 1;
                }
                if deg > 0 {
                    self.alive_r.insert(v);
                    self.rdeg[v as usize] = deg;
                    max_r = max_r.max(deg);
                    edges += deg as usize;
                }
            }
        } else {
            let walk = a <= words; // else: popcounts on both sides
            for u in cin.iter() {
                let mut deg = 0;
                if walk {
                    for v in unc_out.meet(u, cout, cout_span) {
                        let slot = &mut self.rdeg[v as usize];
                        *slot = if self.alive_r.insert(v) { 1 } else { *slot + 1 };
                        max_r = max_r.max(*slot);
                        deg += 1;
                    }
                } else {
                    deg = unc_out.meet_count(u, cout, cout_span);
                }
                if deg > 0 {
                    self.alive_l.insert(u);
                    self.ldeg[u as usize] = deg;
                    max_l = max_l.max(deg);
                    edges += deg as usize;
                }
            }
            if !walk {
                for v in cout.iter() {
                    let deg = unc_in.meet_count(v, cin, cin_span);
                    if deg > 0 {
                        self.alive_r.insert(v);
                        self.rdeg[v as usize] = deg;
                        max_r = max_r.max(deg);
                    }
                }
            }
        }
        if edges == 0 {
            return None;
        }
        // The edgeless ancestors were never offered; the edgeless
        // descendants were, and still count (`BuildStats::peel_offered`).
        let edgeless = d - self.alive_r.count();
        Some(self.peel(unc_out, unc_in, edges, max_l, max_r, edgeless))
    }

    /// The peel proper: removes a minimum-degree vertex at a time and keeps
    /// the densest intermediate subgraph, which is left in `alive_l` /
    /// `alive_r`. Expects the alive sets, which hold only vertices with an
    /// edge, the degrees of their members and the maximum degree per side;
    /// `edges` must be positive. `edgeless` more vertices were offered: they
    /// are reported as offered and removed, as the original peel removed
    /// them before any other.
    fn peel(
        &mut self,
        left_rows: Rows<'_>,
        right_rows: Rows<'_>,
        edges: usize,
        max_ldeg: u32,
        max_rdeg: u32,
        edgeless: usize,
    ) -> Peeled {
        let Peeler {
            alive_l,
            alive_r,
            ldeg,
            rdeg,
            buckets,
            order,
        } = self;
        let base = ldeg.len() as u32;
        let (mut al, mut ar) = (alive_l.count(), alive_r.count());
        let positive = al + ar;
        // No subgraph of what is alive is denser than this. A left vertex
        // has at most `dl = min(max_ldeg, ar)` edges and a right vertex at
        // most `dr`, so `a'` left and `b'` right vertices span at most
        // `min(a'·dl, b'·dr) ≤ (a' + b')·dl·dr / (dl + dr)` edges. A later
        // prefix only wins on strictly greater density, so once the bound
        // is down to the best density seen the result is final. (Exact in
        // `f64`: the same integers divide the same way, and rounding is
        // monotone.) A still-complete center graph meets it at once.
        let bound = |al: usize, ar: usize| {
            complete_bipartite_density((max_ldeg as usize).min(ar), (max_rdeg as usize).min(al))
        };
        let mut cur_edges = edges;
        let mut best = (cur_edges as f64 / positive as f64, cur_edges);
        let mut best_prefix = 0usize; // number of removals at the best point
        order.clear();
        if bound(al, ar) > best.0 {
            let top = max_ldeg.max(max_rdeg) as usize;
            if buckets.len() <= top {
                buckets.resize_with(top + 1, Vec::new);
            }
            for u in alive_l.iter() {
                buckets[ldeg[u as usize] as usize].push(u);
            }
            for v in alive_r.iter() {
                buckets[rdeg[v as usize] as usize].push(base + v);
            }
            // The alive sets only shrink: their spans now bound every AND.
            let (lspan, rspan) = (alive_l.word_span(), alive_r.word_span());
            let mut cursor = 0usize; // lowest possibly-non-empty bucket
            'peel: while bound(al, ar) > best.0 {
                // The minimum-degree alive vertex (lazy bucket scan).
                let x = loop {
                    let Some(bucket) = buckets.get_mut(cursor) else {
                        break 'peel;
                    };
                    let Some(x) = bucket.pop() else {
                        cursor += 1;
                        continue;
                    };
                    let (alive, deg) = if x < base {
                        (alive_l.contains(x), ldeg[x as usize])
                    } else {
                        (alive_r.contains(x - base), rdeg[(x - base) as usize])
                    };
                    if alive && deg as usize == cursor {
                        break x;
                    }
                };
                order.push(x);
                cur_edges -= if x < base {
                    alive_l.remove(x);
                    al -= 1;
                    let nbrs = left_rows.meet(x, alive_r, rspan);
                    drop_edges(nbrs, rdeg, base, buckets, &mut cursor)
                } else {
                    let v = x - base;
                    alive_r.remove(v);
                    ar -= 1;
                    let nbrs = right_rows.meet(v, alive_l, lspan);
                    drop_edges(nbrs, ldeg, 0, buckets, &mut cursor)
                };
                if al + ar > 0 {
                    let d = cur_edges as f64 / (al + ar) as f64;
                    if d > best.0 {
                        best = (d, cur_edges);
                        best_prefix = order.len();
                    }
                }
            }
            buckets.iter_mut().take(top + 1).for_each(Vec::clear);
        }
        // The best subgraph: everything except the first `best_prefix`
        // removals.
        for &x in order.iter().skip(best_prefix) {
            if x < base {
                alive_l.insert(x);
            } else {
                alive_r.insert(x - base);
            }
        }
        Peeled {
            density: best.0,
            edges: best.1,
            offered: positive + edgeless,
            removed: edgeless + order.len(),
        }
    }
}

/// Takes the edges of a just-removed vertex away from its alive
/// neighbours: each loses one degree and is filed again under the new one
/// (`code` turns its id into its bucket entry). Returns the edges dropped.
fn drop_edges(
    neighbours: impl Iterator<Item = u32>,
    deg: &mut [u32],
    code: u32,
    buckets: &mut [Vec<u32>],
    cursor: &mut usize,
) -> usize {
    let mut dropped = 0;
    for y in neighbours {
        let d = &mut deg[y as usize];
        *d -= 1;
        *cursor = (*cursor).min(*d as usize);
        buckets[*d as usize].push(code + y);
        dropped += 1;
    }
    dropped
}

/// Peeling 2-approximation of the densest subgraph of a materialized
/// center graph — the same [`Peeler`] loop the cover builder runs over its
/// uncovered-connection rows. Returns `None` for an edgeless graph.
pub fn densest_subgraph(g: &BipartiteCenterGraph) -> Option<DensestResult> {
    let (peeler, peeled) = peel_graph(g)?;
    let ids = |side: &FixedBitSet, of: &[u32]| side.iter().map(|i| of[i as usize]).collect();
    Some(DensestResult {
        left: ids(peeler.left(), &g.left),
        right: ids(peeler.right(), &g.right),
        density: peeled.density,
        edges: peeled.edges,
    })
}

fn peel_graph(g: &BipartiteCenterGraph) -> Option<(Peeler, Peeled)> {
    let (nl, nr) = (g.left.len(), g.right.len());
    let mut peeler = Peeler::new(nl, nr);
    // The peel reads a right vertex's edges too: transpose `adj`.
    let mut radj: Vec<FixedBitSet> = vec![FixedBitSet::new(nl); nr];
    let (mut edges, mut max_l, mut max_r) = (0usize, 0u32, 0u32);
    for (i, (row, deg)) in g.adj.iter().zip(&mut peeler.ldeg).enumerate() {
        for j in row.iter() {
            radj[j as usize].insert(i as u32);
            *deg += 1;
        }
        if *deg > 0 {
            peeler.alive_l.insert(i as u32);
        }
        max_l = max_l.max(*deg);
        edges += *deg as usize;
    }
    for (j, (col, deg)) in radj.iter().zip(&mut peeler.rdeg).enumerate() {
        *deg = col.count() as u32;
        if *deg > 0 {
            peeler.alive_r.insert(j as u32);
        }
        max_r = max_r.max(*deg);
    }
    if edges == 0 {
        return None;
    }
    let isolated = nl + nr - peeler.alive_l.count() - peeler.alive_r.count();
    let (lspans, rspans) = (spans_of(&g.adj), spans_of(&radj));
    let (left, right) = (Rows::new(&g.adj, &lspans), Rows::new(&radj, &rspans));
    let peeled = peeler.peel(left, right, edges, max_l, max_r, isolated);
    Some((peeler, peeled))
}

/// Density of a complete bipartite graph with `a` left and `d` right
/// vertices: `a·d / (a+d)`. HOPI's optimization (paper §3.2): *initial*
/// center graphs are complete, hence their own densest subgraph, so this
/// value seeds the priority queue without materializing anything.
pub fn complete_bipartite_density(a: usize, d: usize) -> f64 {
    if a + d == 0 {
        return 0.0;
    }
    (a as f64 * d as f64) / (a + d) as f64
}

/// The original materialize-then-peel kernel, verbatim: the reference the
/// [`Peeler`] is proven against (see `builder::tests::golden`).
#[cfg(test)]
pub(crate) mod reference {
    use super::{BipartiteCenterGraph, DensestResult};
    use hopi_graph::FixedBitSet;

    /// Peeling 2-approximation of the densest subgraph.
    ///
    /// Runs in `O(V + E)` using a bucket queue over degrees. Returns `None` for
    /// an edgeless graph.
    pub fn densest_subgraph(g: &BipartiteCenterGraph) -> Option<DensestResult> {
        let nl = g.left.len();
        let nr = g.right.len();
        let n = nl + nr;
        if n == 0 {
            return None;
        }
        // Reverse adjacency (right -> left indices).
        let mut radj: Vec<FixedBitSet> = vec![FixedBitSet::new(nl); nr];
        let mut ldeg = vec![0usize; nl];
        let mut rdeg = vec![0usize; nr];
        let mut edges = 0usize;
        for (i, row) in g.adj.iter().enumerate() {
            for j in row.iter() {
                radj[j as usize].insert(i as u32);
                ldeg[i] += 1;
                rdeg[j as usize] += 1;
                edges += 1;
            }
        }
        if edges == 0 {
            return None;
        }

        // Bucket queue over degrees with lazy entries. Vertex encoding:
        // 0..nl = left i, nl..n = right j.
        let max_deg = ldeg.iter().chain(rdeg.iter()).copied().max().unwrap_or(0);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
        let deg = |v: usize, ldeg: &[usize], rdeg: &[usize]| {
            if v < nl {
                ldeg[v]
            } else {
                rdeg[v - nl]
            }
        };
        for v in 0..n {
            buckets[deg(v, &ldeg, &rdeg)].push(v);
        }
        let mut alive = vec![true; n];
        let mut alive_count = n;
        let mut cur_edges = edges;
        let mut removal_order: Vec<usize> = Vec::with_capacity(n);

        let mut best_density = cur_edges as f64 / alive_count as f64;
        let mut best_prefix = 0usize; // number of removals at the best point

        let mut cursor = 0usize; // lowest possibly-non-empty bucket
        while alive_count > 0 {
            // Find the minimum-degree alive vertex (lazy bucket scan).
            while cursor < buckets.len() && buckets[cursor].is_empty() {
                cursor += 1;
            }
            if cursor >= buckets.len() {
                break;
            }
            let v = buckets[cursor].pop().expect("bucket non-empty");
            if !alive[v] || deg(v, &ldeg, &rdeg) != cursor {
                continue; // stale entry
            }
            // Remove v.
            alive[v] = false;
            alive_count -= 1;
            removal_order.push(v);
            if v < nl {
                let i = v;
                for j in g.adj[i].iter() {
                    let j = j as usize;
                    if alive[nl + j] {
                        rdeg[j] -= 1;
                        cur_edges -= 1;
                        if rdeg[j] < cursor {
                            cursor = rdeg[j];
                        }
                        buckets[rdeg[j]].push(nl + j);
                    }
                }
            } else {
                let j = v - nl;
                for i in radj[j].iter() {
                    let i = i as usize;
                    if alive[i] {
                        ldeg[i] -= 1;
                        cur_edges -= 1;
                        if ldeg[i] < cursor {
                            cursor = ldeg[i];
                        }
                        buckets[ldeg[i]].push(i);
                    }
                }
            }
            if alive_count > 0 {
                let d = cur_edges as f64 / alive_count as f64;
                if d > best_density {
                    best_density = d;
                    best_prefix = removal_order.len();
                }
            }
        }

        // Reconstruct the best subgraph: everything except the first
        // `best_prefix` removals.
        let mut in_best = vec![true; n];
        for &v in &removal_order[..best_prefix] {
            in_best[v] = false;
        }
        let left: Vec<u32> = (0..nl).filter(|&i| in_best[i]).map(|i| g.left[i]).collect();
        let right: Vec<u32> = (0..nr)
            .filter(|&j| in_best[nl + j])
            .map(|j| g.right[j])
            .collect();
        // Count edges of the best subgraph.
        let mut right_alive = FixedBitSet::new(nr);
        for j in 0..nr {
            if in_best[nl + j] {
                right_alive.insert(j as u32);
            }
        }
        let best_edges: usize = (0..nl)
            .filter(|&i| in_best[i])
            .map(|i| g.adj[i].intersection_count(&right_alive))
            .sum();
        debug_assert!(
            (best_density - best_edges as f64 / (left.len() + right.len()).max(1) as f64).abs()
                < 1e-9
        );
        Some(DensestResult {
            left,
            right,
            density: best_density,
            edges: best_edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(nl: usize, nr: usize, edges: &[(u32, u32)]) -> BipartiteCenterGraph {
        let mut adj = vec![FixedBitSet::new(nr); nl];
        for &(i, j) in edges {
            adj[i as usize].insert(j);
        }
        BipartiteCenterGraph {
            left: (0..nl as u32).collect(),
            right: (100..100 + nr as u32).collect(),
            adj,
        }
    }

    #[test]
    fn complete_graph_is_its_own_densest() {
        // K_{2,3}: density 6/5.
        let edges: Vec<(u32, u32)> = (0..2).flat_map(|i| (0..3).map(move |j| (i, j))).collect();
        let g = graph(2, 3, &edges);
        let r = densest_subgraph(&g).unwrap();
        assert!((r.density - 1.2).abs() < 1e-9);
        assert_eq!(r.left.len(), 2);
        assert_eq!(r.right.len(), 3);
        assert_eq!(r.edges, 6);
    }

    #[test]
    fn pendant_vertices_peeled() {
        // K_{2,2} (density 4/4 = 1) plus a pendant right vertex attached to
        // left 0 (full graph density 5/5 = 1). Peeling should isolate a
        // subgraph at least as dense as the full graph.
        let mut edges: Vec<(u32, u32)> = (0..2).flat_map(|i| (0..2).map(move |j| (i, j))).collect();
        edges.push((0, 2));
        let g = graph(2, 3, &edges);
        let r = densest_subgraph(&g).unwrap();
        assert!(r.density >= 1.0 - 1e-9);
    }

    #[test]
    fn star_density() {
        // One left vertex connected to 4 right: density 4/5.
        let edges: Vec<(u32, u32)> = (0..4).map(|j| (0, j)).collect();
        let g = graph(1, 4, &edges);
        let r = densest_subgraph(&g).unwrap();
        assert!((r.density - 0.8).abs() < 1e-9);
        assert_eq!(r.edges, 4);
    }

    #[test]
    fn empty_graph_none() {
        let g = graph(2, 2, &[]);
        assert!(densest_subgraph(&g).is_none());
        assert!(g.is_empty());
    }

    #[test]
    fn isolated_vertices_excluded_from_best() {
        // K_{2,2} plus an isolated left vertex: best subgraph must exclude
        // the isolated vertex (density 1.0 vs 0.8).
        let edges: Vec<(u32, u32)> = (0..2).flat_map(|i| (0..2).map(move |j| (i, j))).collect();
        let g = graph(3, 2, &edges);
        let r = densest_subgraph(&g).unwrap();
        assert!((r.density - 1.0).abs() < 1e-9);
        assert_eq!(r.left.len(), 2);
    }

    #[test]
    fn two_approximation_guarantee() {
        // Random-ish graph: peeling density must be ≥ half the true optimum.
        // True optimum here is K_{3,3} embedded among noise: density 9/6=1.5.
        let mut edges: Vec<(u32, u32)> = (0..3).flat_map(|i| (0..3).map(move |j| (i, j))).collect();
        edges.push((3, 3));
        edges.push((4, 4));
        let g = graph(6, 6, &edges);
        let r = densest_subgraph(&g).unwrap();
        assert!(r.density >= 0.75, "density {} < optimum/2", r.density);
    }

    #[test]
    fn complete_density_formula() {
        assert_eq!(complete_bipartite_density(0, 0), 0.0);
        assert!((complete_bipartite_density(2, 3) - 1.2).abs() < 1e-12);
        assert!((complete_bipartite_density(1, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn density_upper_bounded_by_complete() {
        let edges: Vec<(u32, u32)> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .filter(|&(i, j)| (i + j) % 3 != 0)
            .collect();
        let g = graph(4, 4, &edges);
        let r = densest_subgraph(&g).unwrap();
        assert!(r.density <= complete_bipartite_density(4, 4) + 1e-9);
    }

    #[test]
    fn complete_center_graph_costs_no_removals() {
        for (a, b) in [(1u32, 1u32), (2, 3), (7, 1), (1, 90), (40, 70), (130, 140)] {
            // Cin = 0..a, Cout = a..a+b, every connection uncovered.
            let n = (a + b) as usize;
            let (mut cin, mut cout) = (FixedBitSet::new(n), FixedBitSet::new(n));
            for x in 0..a + b {
                if x < a { &mut cin } else { &mut cout }.insert(x);
            }
            let unc_out: Vec<FixedBitSet> = (0..n as u32)
                .map(|u| {
                    if u < a {
                        cout.clone()
                    } else {
                        FixedBitSet::new(n)
                    }
                })
                .collect();
            let unc_in: Vec<FixedBitSet> = (0..n as u32)
                .map(|v| {
                    if v < a {
                        FixedBitSet::new(n)
                    } else {
                        cin.clone()
                    }
                })
                .collect();
            let (out_span, in_span) = (spans_of(&unc_out), spans_of(&unc_in));
            let (unc_out, unc_in) = (Rows::new(&unc_out, &out_span), Rows::new(&unc_in, &in_span));
            let mut peeler = Peeler::new(n, n);
            let peeled = peeler.peel_center(unc_out, unc_in, &cin, &cout).unwrap();
            assert_eq!(peeled.removed, 0, "K_{{{a},{b}}}");
            assert_eq!(peeled.offered, n);
            assert_eq!(peeled.edges, (a * b) as usize);
            assert_eq!(
                peeled.density.to_bits(),
                complete_bipartite_density(a as usize, b as usize).to_bits()
            );
            assert_eq!((peeler.left(), peeler.right()), (&cin, &cout));
            assert!(peeler.buckets.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn bound_never_fires_before_the_reference_best_prefix() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(17);
        let mut early_exits = 0;
        for _ in 0..300 {
            // Isolated vertices on both sides included.
            let (nl, nr) = (rng.gen_range(1..40usize), rng.gen_range(1..40usize));
            let fill = rng.gen_range(1..=10u32);
            let edges: Vec<(u32, u32)> = (0..nl as u32)
                .flat_map(|i| (0..nr as u32).map(move |j| (i, j)))
                .filter(|_| rng.gen_range(0..10u32) < fill)
                .collect();
            let g = graph(nl, nr, &edges);
            let want = reference::densest_subgraph(&g);
            let got = densest_subgraph(&g);
            assert_eq!(want.is_some(), got.is_some());
            let (Some(want), Some(got)) = (want, got) else {
                continue;
            };
            assert_eq!(got.left, want.left);
            assert_eq!(got.right, want.right);
            assert_eq!(got.density.to_bits(), want.density.to_bits());
            assert_eq!(got.edges, want.edges);
            let (_, peeled) = peel_graph(&g).unwrap();
            assert_eq!(peeled.offered, nl + nr);
            let isolated = g.adj.iter().filter(|row| row.is_empty()).count()
                + (0..nr as u32)
                    .filter(|&j| edges.iter().all(|&(_, e)| e != j))
                    .count();
            assert!(peeled.removed >= isolated);
            let best_prefix = nl + nr - want.left.len() - want.right.len();
            assert!(best_prefix <= peeled.removed && peeled.removed <= peeled.offered);
            early_exits += usize::from(peeled.removed < peeled.offered);
        }
        assert!(
            early_exits > 250,
            "the bound ended {early_exits} of 300 peels early"
        );
    }
}
