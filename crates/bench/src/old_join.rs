//! The link-integration primitive of the §3.3 join (the `baseline` row of
//! Table 2, see [`crate::baseline`]). Integrating `u → v` makes `v` the
//! center of every connection the link creates: each ancestor `a` of `u`
//! gets `v` in `Lout(a)`, each descendant `d` of `v` gets `v` in `Lin(d)`.
//! Every new connection is `a →* u → v →* d` over *pre-existing* paths, so
//! the cover stays exact and the join can integrate the cross-partition
//! links one at a time. §6.1 maintenance rests on the same argument but
//! picks the cheapest of this centering and two label copies
//! (`hopi_maintenance::integrate_link`).

use hopi_core::TwoHopCover;

/// Integrates the link `u → v` into an exact cover, choosing `v` as the
/// center for all newly created connections. Returns the number of label
/// entries added.
///
/// The cover must be exact for the graph *without* the new edge; afterwards
/// it is exact for the graph *with* it.
pub fn integrate_link(cover: &mut TwoHopCover, u: u32, v: u32) -> usize {
    cover.ensure_node(u.max(v));
    // Snapshot before mutation: both enumerations must see the old cover.
    let ancestors = cover.ancestors(u); // includes u
    let descendants = cover.descendants(v); // includes v
    let mut added = 0usize;
    for a in ancestors {
        added += usize::from(cover.add_out(a, v));
    }
    for d in descendants {
        added += usize::from(cover.add_in(d, v));
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_core::CoverBuilder;
    use hopi_graph::{DiGraph, TransitiveClosure};
    use rand::prelude::*;

    fn assert_exact(cover: &TwoHopCover, g: &DiGraph) {
        let tc = TransitiveClosure::from_graph(g);
        for u in 0..g.id_bound() as u32 {
            for v in 0..g.id_bound() as u32 {
                assert_eq!(cover.connected(u, v), tc.contains(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn joins_two_paths() {
        // 0 → 1 and 2 → 3, then link 1 → 2.
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let mut cover = CoverBuilder::new(&TransitiveClosure::from_graph(&g)).build();
        g.add_edge(1, 2);
        let added = integrate_link(&mut cover, 1, 2);
        assert!(added > 0);
        assert_exact(&cover, &g);
        cover.check_invariants();
    }

    #[test]
    fn closing_a_cycle_stays_exact() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let mut cover = CoverBuilder::new(&TransitiveClosure::from_graph(&g)).build();
        for (u, v) in [(1, 2), (3, 0)] {
            g.add_edge(u, v);
            integrate_link(&mut cover, u, v);
        }
        assert!(cover.connected(2, 1), "cycle closes");
        assert_exact(&cover, &g);
    }

    #[test]
    fn duplicate_integration_adds_nothing() {
        let mut g = DiGraph::new();
        g.add_edge(0, 1);
        let mut cover = CoverBuilder::new(&TransitiveClosure::from_graph(&g)).build();
        g.add_edge(0, 1);
        integrate_link(&mut cover, 0, 1);
        let size = cover.size();
        assert_eq!(integrate_link(&mut cover, 0, 1), 0);
        assert_eq!(cover.size(), size);
    }

    #[test]
    fn random_link_sequences_stay_exact() {
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..10 {
            let n = 14u32;
            let mut g = DiGraph::new();
            g.ensure_node(n - 1);
            for _ in 0..12 {
                g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
            }
            let mut cover = CoverBuilder::new(&TransitiveClosure::from_graph(&g)).build();
            for _ in 0..10 {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u == v {
                    continue;
                }
                g.add_edge(u, v);
                integrate_link(&mut cover, u, v);
                assert_exact(&cover, &g);
            }
            cover.check_invariants();
            let _ = round;
        }
    }
}
