//! The redundancy ruler: how many of a cover's label entries the rest of
//! the cover makes unnecessary.
//!
//! A greedy pass over a built cover visits every stored entry once — all
//! `Lin` rows first, then all `Lout` rows, each in node and center order —
//! and drops the entry when the remaining labels still answer every pair
//! it witnessed. An entry `c ∈ Lin(v)` witnesses `(c, v)` and `(a, v)` for
//! every `a` holding `c` in `Lout(a)`; an entry `c ∈ Lout(u)` witnesses
//! `(u, c)` and `(u, d)` for every `d` holding `c` in `Lin(d)`. A pair
//! that loses its last witness is a connection the cover no longer
//! answers, so every drop keeps the cover exact, and the result answers
//! every pair like the input.
//!
//! The pass counts instead of probing. Everything that reaches `v`
//! through the cover is `v`, the holders of `v` in `Lout`, and each center
//! `c ∈ Lin(v)` with its holders; the pass counts, per node, how many of
//! those sources name it, and drops `c` exactly when no node of `c`'s
//! source is named by it alone. That is the same test as probing every
//! witnessed pair, at the cost of one enumeration of `v`'s ancestors with
//! multiplicity (symmetrically for `Lout`). It is still a ruler, not a
//! builder: `table2` prints its result beside each row's size, so the
//! distance between a cover and one without redundant labels shows.

use hopi_core::TwoHopCover;

/// Returns `cover` without the entries the greedy pass finds redundant.
pub fn prune(cover: &TwoHopCover) -> TwoHopCover {
    let mut cover = cover.clone();
    let mut count = vec![0u32; cover.num_nodes()];
    for v in 0..cover.num_nodes() as u32 {
        let row = Row {
            centers: cover.lin(v).to_vec(),
            holders: TwoHopCover::holders_out,
            remove: TwoHopCover::remove_in,
        };
        row.drop_unneeded(&mut cover, &mut count, v);
    }
    for u in 0..cover.num_nodes() as u32 {
        let row = Row {
            centers: cover.lout(u).to_vec(),
            holders: TwoHopCover::holders_in,
            remove: TwoHopCover::remove_out,
        };
        row.drop_unneeded(&mut cover, &mut count, u);
    }
    cover
}

/// One label row of the pass, with the holder lists on its side.
struct Row {
    centers: Vec<u32>,
    /// `holders_out` for a `Lin` row, `holders_in` for a `Lout` row.
    holders: fn(&TwoHopCover, u32) -> &[u32],
    remove: fn(&mut TwoHopCover, u32, u32) -> bool,
}

impl Row {
    /// `c` and its holders: what `c` connects the row's node with.
    fn source<'a>(&self, cover: &'a TwoHopCover, c: u32) -> impl Iterator<Item = u32> + 'a {
        let holders = (self.holders)(cover, c).iter().copied();
        std::iter::once(c).chain(holders)
    }

    /// Drops the centers of `node`'s row that no pair needs. `count` is all
    /// zero on entry and on return.
    fn drop_unneeded(&self, cover: &mut TwoHopCover, count: &mut [u32], node: u32) {
        let sources = std::iter::once(node).chain(self.centers.iter().copied());
        for c in sources.clone() {
            self.source(cover, c).for_each(|a| count[a as usize] += 1);
        }
        for &c in &self.centers {
            self.source(cover, c).for_each(|a| count[a as usize] -= 1);
            if self.source(cover, c).any(|a| count[a as usize] == 0) {
                self.source(cover, c).for_each(|a| count[a as usize] += 1);
            } else {
                (self.remove)(cover, node, c);
            }
        }
        for c in sources {
            self.source(cover, c).for_each(|a| count[a as usize] = 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_an_entry_another_path_covers() {
        // 0 → 1 → 2, labelled with both hops and a direct 0 ∈ Lin(2).
        let mut cover = TwoHopCover::with_nodes(3);
        cover.add_out(0, 1);
        cover.add_in(2, 1);
        cover.add_in(2, 0);
        let pruned = prune(&cover);
        assert_eq!(pruned.size(), 2);
        assert_eq!(pruned.lin(2), &[1]);
        for (u, v) in [(0, 1), (1, 2), (0, 2)] {
            assert!(pruned.connected(u, v));
        }
        assert!(!pruned.connected(2, 0));
    }
}
