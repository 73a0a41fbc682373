//! Distance-aware 2-hop covers (paper §5).
//!
//! For ranked XML retrieval, label entries carry the shortest distance to
//! the center: `Lin(v)` holds `(w, dist(w, v))`, `Lout(u)` holds
//! `(w, dist(u, w))`. The shortest distance of a connection is
//! `min over common centers of Lout-dist + Lin-dist` — the SQL
//! `SELECT MIN(LOUT.DIST + LIN.DIST)` query of §5.1. The labels live in a
//! distance-annotated [`FrozenCover`], which answers that query and which
//! [`FrozenCover::successor`] maintains under insertions (§6.1).
//!
//! Construction follows the plain builder with one crucial change: a center
//! `w` may only cover `(u, v)` if it lies on a **shortest** path, i.e.
//! `dist(u, w) + dist(w, v) = dist(u, v)` — otherwise the recorded distance
//! would be wrong. Center graphs are therefore no longer complete
//! bipartite, and the initial density is *estimated* by sampling at most
//! 13,600 candidate edges and taking the upper bound of the 98% confidence
//! interval (paper §5.2): with that sample size the interval is at most
//! 0.02 wide, and the resulting over-estimate is a valid upper bound for
//! the lazy priority queue with probability ≥ 0.99.

use crate::densest::{densest_subgraph, BipartiteCenterGraph};
use crate::frozen::{DistEntry, FrozenCover};
use hopi_graph::{DistanceClosure, FixedBitSet, WordSpan};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maximum number of candidate edges sampled when estimating the initial
/// center-graph density (paper §5.2: "at most 13,600 randomly chosen
/// candidate edges", yielding a 98% CI no wider than 0.02).
pub const DENSITY_SAMPLES: usize = 13_600;

/// z-value of the two-sided 98% confidence interval.
const Z_98: f64 = 2.326;

/// Statistics of one distance-aware construction.
#[derive(Clone, Debug, Default)]
pub struct DistanceBuildStats {
    /// Committed centers.
    pub centers: usize,
    /// Densest-subgraph evaluations.
    pub densest_evals: usize,
    /// Initial densities estimated by sampling (vs exact tiny graphs).
    pub sampled_estimates: usize,
}

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

/// Builder for distance-aware covers over a [`DistanceClosure`].
pub struct DistanceCoverBuilder<'a> {
    dc: &'a DistanceClosure,
    /// Uncovered (non-reflexive) connections, forward rows, each stored
    /// over the span of its targets.
    unc_out: Vec<FixedBitSet>,
    remaining: usize,
    /// The committed `Lin` and `Lout` entries.
    lin: Vec<DistEntry>,
    lout: Vec<DistEntry>,
    stats: DistanceBuildStats,
    rng: StdRng,
}

impl<'a> DistanceCoverBuilder<'a> {
    /// Creates the builder; all non-reflexive connections start uncovered.
    pub fn new(dc: &'a DistanceClosure) -> Self {
        let n = dc.num_nodes();
        let unc_out: Vec<FixedBitSet> = (0..n as u32)
            .map(|u| {
                let targets = || dc.out_row(u).keys().copied().filter(|&v| v != u);
                let span = targets().fold(WordSpan::EMPTY, |s, v| s.hull(WordSpan::of_bit(v)));
                let mut row = FixedBitSet::with_span(n, span);
                for v in targets() {
                    row.insert(v);
                }
                row
            })
            .collect();
        DistanceCoverBuilder {
            dc,
            remaining: unc_out.iter().map(FixedBitSet::count).sum(),
            unc_out,
            lin: Vec::new(),
            lout: Vec::new(),
            stats: DistanceBuildStats::default(),
            rng: StdRng::seed_from_u64(0xd157),
        }
    }

    /// Runs the construction.
    pub fn build(self) -> FrozenCover {
        self.build_with_stats().0
    }

    /// Runs the construction, returning statistics too.
    pub fn build_with_stats(mut self) -> (FrozenCover, DistanceBuildStats) {
        self.run();
        let cover = FrozenCover::default().successor(self.dc.num_nodes(), self.lin, self.lout);
        (cover, self.stats)
    }

    fn run(&mut self) {
        let n = self.dc.num_nodes();
        let mut heap = BinaryHeap::with_capacity(n);
        for w in 0..n as u32 {
            if !self.dc.is_alive(w) {
                continue;
            }
            let density = self.initial_density_estimate(w);
            if density > 0.0 {
                heap.push(HeapEntry { node: w, density });
            }
        }
        while self.remaining > 0 {
            // A sampled estimate reads 0 when every sample misses, which
            // keeps a center off the heap although its graph has edges:
            // what no center on the heap covered is covered directly.
            let Some(entry) = heap.pop() else {
                self.cover_rest();
                break;
            };
            let w = entry.node;
            let Some(cg) = self.center_graph(w) else {
                continue;
            };
            self.stats.densest_evals += 1;
            let Some(result) = densest_subgraph(&cg) else {
                continue;
            };
            let next_best = heap.peek().map_or(0.0, |e| e.density);
            if result.density + 1e-9 >= next_best {
                self.commit_center(w, &result.left, &result.right);
            }
            // Either way w may still sit on other uncovered shortest paths;
            // keep it available under its (now stale-upper-bound) density.
            heap.push(HeapEntry {
                node: w,
                density: result.density,
            });
        }
    }

    /// Covers every connection still uncovered with its target as the
    /// center: `(v, dist(u, v))` in `Lout(u)`.
    fn cover_rest(&mut self) {
        for (u, row) in (0u32..).zip(&self.unc_out) {
            let entries = row.iter().filter_map(|v| Some((u, v, self.dc.dist(u, v)?)));
            self.lout.extend(entries);
        }
        self.remaining = 0;
    }

    /// Initial density estimate for `w` (paper §5.2).
    ///
    /// The center graph is no longer complete: an edge `(u, v)` exists only
    /// if `w` lies on a shortest `u → v` path. Testing all `a·d` candidates
    /// is infeasible, so for large graphs we sample up to
    /// [`DENSITY_SAMPLES`] candidates, take the upper bound `ê` of the 98%
    /// CI of the edge fraction, and estimate the maximal subgraph density as
    /// `√E / 2` with `E = ê · a · d` — the density of a balanced complete
    /// bipartite graph with `E` edges.
    fn initial_density_estimate(&mut self, w: u32) -> f64 {
        let anc: Vec<(u32, u32)> = self.dc.in_row(w).iter().map(|(&u, &d)| (u, d)).collect();
        let desc: Vec<(u32, u32)> = self.dc.out_row(w).iter().map(|(&v, &d)| (v, d)).collect();
        let a = anc.len();
        let d = desc.len();
        let candidates = a * d;
        if candidates == 0 {
            return 0.0;
        }
        let dc = self.dc;
        let on_shortest = |&(u, duw): &(u32, u32), &(v, dwv): &(u32, u32)| -> bool {
            u != v && dc.dist(u, v) == Some(duw + dwv)
        };
        if candidates <= DENSITY_SAMPLES {
            // Exact count for small center graphs.
            let e = anc
                .iter()
                .map(|ue| desc.iter().filter(|ve| on_shortest(ue, ve)).count())
                .sum::<usize>();
            return max_density_for_edges(e as f64);
        }
        self.stats.sampled_estimates += 1;
        let mut hits = 0usize;
        for _ in 0..DENSITY_SAMPLES {
            let ue = anc.get(self.rng.gen_range(0..a));
            let ve = desc.get(self.rng.gen_range(0..d));
            if let (Some(ue), Some(ve)) = (ue, ve) {
                hits += usize::from(on_shortest(ue, ve));
            }
        }
        let p_hat = hits as f64 / DENSITY_SAMPLES as f64;
        let half_width = Z_98 * (p_hat * (1.0 - p_hat) / DENSITY_SAMPLES as f64).sqrt();
        let upper = (p_hat + half_width).min(1.0);
        max_density_for_edges(upper * candidates as f64)
    }

    /// Materializes the shortest-path-filtered center graph of `w`.
    fn center_graph(&self, w: u32) -> Option<BipartiteCenterGraph> {
        let mut right: Vec<u32> = self.dc.out_row(w).keys().copied().collect();
        right.sort_unstable();
        if right.is_empty() {
            return None;
        }
        let mut right_pos = vec![u32::MAX; self.dc.num_nodes()];
        for (j, &v) in right.iter().enumerate() {
            if let Some(pos) = right_pos.get_mut(v as usize) {
                *pos = j as u32;
            }
        }
        let mut left = Vec::new();
        let mut adj = Vec::new();
        let mut edges = 0usize;
        let mut anc: Vec<(u32, u32)> = self.dc.in_row(w).iter().map(|(&u, &d)| (u, d)).collect();
        anc.sort_unstable();
        for (u, duw) in anc {
            let Some(uncovered) = self.unc_out.get(u as usize) else {
                continue;
            };
            let mut side_row = FixedBitSet::new(right.len());
            let mut cnt = 0usize;
            for v in uncovered.iter() {
                let Some(&pos) = right_pos.get(v as usize).filter(|&&pos| pos != u32::MAX) else {
                    continue;
                };
                let Some(dwv) = self.dc.dist(w, v) else {
                    continue;
                };
                if self.dc.dist(u, v) == Some(duw + dwv) {
                    side_row.insert(pos);
                    cnt += 1;
                }
            }
            if cnt > 0 {
                edges += cnt;
                left.push(u);
                adj.push(side_row);
            }
        }
        if edges == 0 {
            return None;
        }
        Some(BipartiteCenterGraph { left, right, adj })
    }

    fn commit_center(&mut self, w: u32, cin: &[u32], cout: &[u32]) {
        let (dc, n) = (self.dc, self.dc.num_nodes());
        let mut cout_set = FixedBitSet::new(n);
        for &v in cout {
            cout_set.insert(v);
        }
        let mut covered = 0usize;
        for &u in cin {
            let (Some(duw), Some(uncovered)) = (dc.dist(u, w), self.unc_out.get_mut(u as usize))
            else {
                continue;
            };
            // Only connections where w is on a shortest path are covered.
            let mut row = uncovered.clone();
            row.intersect_with(&cout_set);
            for v in row.iter() {
                let dwv = dc.dist(w, v);
                if dwv.is_some_and(|dwv| dc.dist(u, v) == Some(duw + dwv)) {
                    uncovered.remove(v);
                    covered += 1;
                }
            }
            self.lout.push((u, w, duw));
        }
        self.lin
            .extend(cout.iter().filter_map(|&v| Some((v, w, dc.dist(w, v)?))));
        self.remaining -= covered;
        self.stats.centers += 1;
    }
}

/// Maximal densest-subgraph density achievable with `e` edges: a balanced
/// complete bipartite graph, `e / (2√e) = √e / 2` (paper §5.2).
fn max_density_for_edges(e: f64) -> f64 {
    if e <= 0.0 {
        0.0
    } else {
        e.sqrt() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_graph::DiGraph;

    fn closure_of(edges: &[(u32, u32)], n: u32) -> DistanceClosure {
        let mut g = DiGraph::new();
        g.ensure_node(n - 1);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        DistanceClosure::from_graph(&g)
    }

    fn assert_distances_exact(cover: &FrozenCover, dc: &DistanceClosure, n: u32) {
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    cover.distance(u, v),
                    dc.dist(u, v),
                    "distance({u},{v}) mismatch"
                );
            }
        }
    }

    #[test]
    fn path_distances() {
        let dc = closure_of(&[(0, 1), (1, 2), (2, 3)], 4);
        let cover = DistanceCoverBuilder::new(&dc).build();
        assert_distances_exact(&cover, &dc, 4);
        assert_eq!(cover.distance(0, 3), Some(3));
        assert_eq!(cover.distance(3, 0), None);
    }

    #[test]
    fn shortcut_prefers_shorter() {
        let dc = closure_of(&[(0, 1), (1, 2), (0, 2)], 3);
        let cover = DistanceCoverBuilder::new(&dc).build();
        assert_eq!(cover.distance(0, 2), Some(1));
        assert_distances_exact(&cover, &dc, 3);
    }

    #[test]
    fn cycle_distances() {
        let dc = closure_of(&[(0, 1), (1, 2), (2, 0)], 3);
        let cover = DistanceCoverBuilder::new(&dc).build();
        assert_distances_exact(&cover, &dc, 3);
        assert_eq!(cover.distance(2, 1), Some(2));
    }

    #[test]
    fn random_graphs_distances_exact() {
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..20 {
            let n = rng.gen_range(4..25);
            let m = rng.gen_range(0..3 * n);
            let edges: Vec<(u32, u32)> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let dc = closure_of(&edges, n);
            let cover = DistanceCoverBuilder::new(&dc).build();
            assert_distances_exact(&cover, &dc, n);
        }
    }

    #[test]
    fn descendants_with_distance_match() {
        let dc = closure_of(&[(0, 1), (1, 2), (0, 3)], 4);
        let cover = DistanceCoverBuilder::new(&dc).build();
        let desc = cover.descendants_with_distance(0);
        assert_eq!(desc, vec![(0, 0), (1, 1), (2, 2), (3, 1)]);
        let anc = cover.ancestors_with_distance(2);
        assert_eq!(anc, vec![(0, 2), (1, 1), (2, 0)]);
    }

    #[test]
    fn add_improves_distance() {
        let c = FrozenCover::default().successor(3, vec![], vec![(0, 1, 5)]);
        let improved = c.successor(3, vec![], vec![(0, 1, 3)]);
        assert_eq!(improved.lout(0), &[1]);
        assert_eq!(improved.lout_dists(0), &[3]);
        // A longer distance is ignored: nothing changes, nothing is
        // rebuilt.
        let worse = improved.successor(3, vec![], vec![(0, 1, 4)]);
        assert_eq!(worse, improved);
        assert!(worse.sharing(&improved).shared.iter().flatten().all(|&s| s));
        assert_eq!(worse.size(), 1);
        assert_eq!(worse.distance(0, 1), Some(3));
    }

    #[test]
    fn self_entries_implicit() {
        let c = FrozenCover::default().successor(2, vec![(1, 1, 0)], vec![(1, 1, 0)]);
        assert_eq!(c.distance(1, 1), Some(0));
        assert_eq!(c.size(), 0);
    }

    #[test]
    fn leftover_connections_are_covered_directly() {
        let dc = closure_of(&[(0, 1), (1, 2), (0, 3), (3, 2)], 5);
        let mut builder = DistanceCoverBuilder::new(&dc);
        builder.cover_rest();
        assert_eq!(builder.remaining, 0);
        let cover = FrozenCover::default().successor(5, builder.lin, builder.lout);
        assert_distances_exact(&cover, &dc, 5);
    }

    #[test]
    fn sampling_estimator_is_upper_bound_probabilistically() {
        // Construct a graph large enough to trigger sampling: two layers
        // with ~150x150 candidate pairs through a middle node.
        let w = 300u32; // middle
        let mut edges = Vec::new();
        for u in 0..150u32 {
            edges.push((u, w));
        }
        for v in 0..149u32 {
            edges.push((w, 301 + v));
        }
        let dc = closure_of(&edges, 450);
        let (_cover, stats) = DistanceCoverBuilder::new(&dc).build_with_stats();
        assert!(stats.sampled_estimates >= 1, "sampling path not exercised");
        // Correctness of the final cover is the real assertion:
        assert_eq!(
            DistanceCoverBuilder::new(&dc).build().distance(0, 310),
            Some(2)
        );
    }

    #[test]
    fn size_overhead_vs_plain_is_zero_entries() {
        // The distance-aware cover stores the same number of entries as a
        // plain cover would for a tree (distance is an attribute, not new
        // entries). Sanity: entries ≤ non-reflexive connections.
        let dc = closure_of(&[(0, 1), (0, 2), (1, 3), (1, 4)], 5);
        let cover = DistanceCoverBuilder::new(&dc).build();
        let conns = dc.connection_count() - 5;
        assert!(cover.size() <= conns);
    }
}
