//! The label-source abstraction: one query interface over the mutable and
//! frozen cover representations.
//!
//! Path evaluation (`hopi_query::eval`) is written against this trait and
//! runs unchanged against a live [`TwoHopCover`](crate::TwoHopCover) /
//! [`HopiIndex`](crate::HopiIndex) or a read-optimized
//! [`FrozenCover`](crate::FrozenCover) snapshot. Beyond the three closure
//! primitives (reachability probe, descendant/ancestor enumeration) it
//! exposes the **raw label and inverted rows** plus aggregate
//! [`CoverStats`], which is what the hop-join strategies and the
//! cost-based step planner in `hopi_query::plan` consume: a `//` step can
//! union inverted holder lists center-at-a-time instead of probing pairs,
//! and the planner can price each strategy from row lengths in O(1) per
//! node.

use crate::cover::NodeId;

/// Aggregate row statistics of a cover, read in O(1), used by the query
/// planner to price `//`-step strategies.
///
/// The identities the estimates lean on: the inverted holder lists mirror
/// the labels, so `Σ_c |inv_in(c)| = Σ_v |Lin(v)| = lin_entries` (and
/// symmetrically for `inv_out`/`Lout`) — the *average* inverted row is as
/// long as the average label row of the same direction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverStats {
    /// Node slots covered by stored labels.
    pub nodes: usize,
    /// Stored `Lin` entries `Σ_v |Lin(v)|`.
    pub lin_entries: usize,
    /// Stored `Lout` entries `Σ_v |Lout(v)|`.
    pub lout_entries: usize,
}

impl CoverStats {
    /// Average `Lin` row length.
    pub fn avg_lin(&self) -> f64 {
        self.lin_entries as f64 / self.nodes.max(1) as f64
    }

    /// Average `Lout` row length.
    pub fn avg_lout(&self) -> f64 {
        self.lout_entries as f64 / self.nodes.max(1) as f64
    }

    /// Average `inv_in` holder-list length (`= avg_lin`, see type docs).
    pub fn avg_inv_in(&self) -> f64 {
        self.avg_lin()
    }

    /// Average `inv_out` holder-list length (`= avg_lout`).
    pub fn avg_inv_out(&self) -> f64 {
        self.avg_lout()
    }
}

/// Anything that answers 2-hop cover queries: the connection probe,
/// descendant/ancestor enumeration, and raw row access for set-at-a-time
/// hop joins.
pub trait LabelSource {
    /// The reachability test `u →* v` (reflexive).
    fn connected(&self, u: NodeId, v: NodeId) -> bool;

    /// Number of node slots covered by stored labels. Ids at or above this
    /// bound have empty rows (isolated nodes).
    fn num_nodes(&self) -> usize;

    /// The stored `Lin(v)` row, sorted ascending, without the implicit
    /// self entry. Empty for out-of-range ids.
    fn lin_row(&self, v: NodeId) -> &[NodeId];

    /// The stored `Lout(v)` row, sorted ascending, without the implicit
    /// self entry.
    fn lout_row(&self, v: NodeId) -> &[NodeId];

    /// Nodes holding `c` in `Lin` — the nodes `c` reaches through the
    /// cover, without `c` itself. **Not necessarily sorted** (the mutable
    /// cover maintains holder lists with `swap_remove`).
    fn holders_in_row(&self, c: NodeId) -> &[NodeId];

    /// Nodes holding `c` in `Lout` — the nodes that reach `c` through the
    /// cover, without `c` itself. Not necessarily sorted.
    fn holders_out_row(&self, c: NodeId) -> &[NodeId];

    /// Aggregate row statistics, answered in O(1) (both representations
    /// track entry counts eagerly).
    fn cover_stats(&self) -> CoverStats;

    /// All descendants of `u` (including `u`), sorted.
    fn descendants(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.descendants_into(u, &mut out);
        out
    }

    /// All ancestors of `u` (including `u`), sorted.
    fn ancestors(&self, u: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.ancestors_into(u, &mut out);
        out
    }

    /// All descendants of `u` (including `u`), sorted + deduped into the
    /// caller's buffer — reuse the buffer across calls to keep enumeration
    /// allocation-free. Expands `{u} ∪ Lout(u)` through the inverted
    /// `inv_in` lists with the enumeration kernel ([`union_into`]).
    fn descendants_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        let holders = |c| self.holders_in_row(c);
        union_into(self.num_nodes(), u, self.lout_row(u), holders, out);
    }

    /// All ancestors of `u` (including `u`), sorted + deduped into the
    /// caller's buffer; mirror of [`LabelSource::descendants_into`].
    fn ancestors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        let holders = |c| self.holders_out_row(c);
        union_into(self.num_nodes(), u, self.lin_row(u), holders, out);
    }

    /// Calls `mark` on every descendant of `u` (including `u`), possibly
    /// more than once each — the marking half of the kernel, for callers
    /// that collect into a set of their own.
    fn mark_descendants(&self, u: NodeId, mark: impl FnMut(NodeId))
    where
        Self: Sized,
    {
        stream_union(u, self.lout_row(u), |c| self.holders_in_row(c), mark);
    }

    /// Calls `mark` on every ancestor of `u` (including `u`), possibly more
    /// than once each; mirror of [`LabelSource::mark_descendants`].
    fn mark_ancestors(&self, u: NodeId, mark: impl FnMut(NodeId))
    where
        Self: Sized,
    {
        stream_union(u, self.lin_row(u), |c| self.holders_out_row(c), mark);
    }

    /// Is any source connected to `target`, excluding the reflexive
    /// `source == target` probe? The probing side of a `//` step;
    /// implementations may batch the row lookups.
    fn connected_from_any(&self, sources: &[NodeId], target: NodeId) -> bool {
        sources
            .iter()
            .any(|&u| u != target && self.connected(u, target))
    }
}

/// The dense side of the kernel's switch: a union of at most `m` streamed
/// ids over `n` nodes runs through an `⌈n/32⌉`-word bitmap when that is at
/// most `DENSE_WORDS_PER_ID · m` words, through sort + dedup otherwise.
const DENSE_WORDS_PER_ID: usize = 4;

/// Streams the union [`union_into`] collects into `mark`, duplicates
/// included.
fn stream_union<'a>(
    u: NodeId,
    label: &'a [NodeId],
    holders: impl Fn(NodeId) -> &'a [NodeId],
    mut mark: impl FnMut(NodeId),
) {
    mark(u);
    holders(u).iter().for_each(|&x| mark(x));
    for &c in label {
        mark(c);
        holders(c).iter().for_each(|&x| mark(x));
    }
}

/// The enumeration kernel: the 2-hop union `{u} ∪ H(u) ∪ ⋃_{c∈L(u)} ({c} ∪
/// H(c))` over `n` nodes, sorted and deduplicated into `out` (ids `u ≥ n`
/// have empty rows: `[u]`). `L` is `Lout` and `H` the `inv_in` rows for
/// descendants, `Lin` and `inv_out` for ancestors; holder rows may be
/// unsorted.
///
/// Output-sensitive. The union streams at most `m = 1 + |L(u)| + |H(u)| +
/// Σ_c |H(c)|` ids, read off the row lengths. When the `⌈n/32⌉` bitmap
/// words cost at most `4·m`, `out`'s first words serve as the bitmap: one
/// bit per streamed id, then a word scan appends the set ids in ascending
/// order and the words are drained. Otherwise the stream is pushed,
/// sorted and deduplicated. Both sides give the same sorted set; neither
/// allocates once `out` has grown.
pub fn union_into<'a>(
    n: usize,
    u: NodeId,
    label: &'a [NodeId],
    holders: impl Fn(NodeId) -> &'a [NodeId],
    out: &mut Vec<NodeId>,
) {
    out.clear();
    if u as usize >= n {
        out.push(u);
        return;
    }
    let held: usize = label.iter().map(|&c| holders(c).len()).sum();
    let streamed = 1 + label.len() + holders(u).len() + held;
    let words = n.div_ceil(32);
    if words > DENSE_WORDS_PER_ID * streamed {
        out.reserve(streamed);
        stream_union(u, label, &holders, |x| out.push(x));
        out.sort_unstable();
        out.dedup();
        return;
    }
    out.reserve(words + streamed.min(n));
    out.resize(words, 0);
    stream_union(u, label, &holders, |x| {
        if let Some(word) = out.get_mut(x as usize / 32) {
            *word |= 1 << (x % 32);
        }
    });
    for i in 0..words {
        let mut bits = out.get(i).copied().unwrap_or(0);
        while bits != 0 {
            out.push(i as NodeId * 32 + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    out.drain(..words);
}

impl LabelSource for crate::TwoHopCover {
    fn connected(&self, u: NodeId, v: NodeId) -> bool {
        crate::TwoHopCover::connected(self, u, v)
    }

    fn num_nodes(&self) -> usize {
        crate::TwoHopCover::num_nodes(self)
    }

    fn lin_row(&self, v: NodeId) -> &[NodeId] {
        self.lin(v)
    }

    fn lout_row(&self, v: NodeId) -> &[NodeId] {
        self.lout(v)
    }

    fn holders_in_row(&self, c: NodeId) -> &[NodeId] {
        self.holders_in(c)
    }

    fn holders_out_row(&self, c: NodeId) -> &[NodeId] {
        self.holders_out(c)
    }

    fn cover_stats(&self) -> CoverStats {
        CoverStats {
            nodes: crate::TwoHopCover::num_nodes(self),
            lin_entries: self.lin_entry_count(),
            lout_entries: self.lout_entry_count(),
        }
    }
}

impl LabelSource for crate::HopiIndex {
    fn connected(&self, u: NodeId, v: NodeId) -> bool {
        crate::HopiIndex::connected(self, u, v)
    }

    fn num_nodes(&self) -> usize {
        self.cover().num_nodes()
    }

    fn lin_row(&self, v: NodeId) -> &[NodeId] {
        self.cover().lin(v)
    }

    fn lout_row(&self, v: NodeId) -> &[NodeId] {
        self.cover().lout(v)
    }

    fn holders_in_row(&self, c: NodeId) -> &[NodeId] {
        self.cover().holders_in(c)
    }

    fn holders_out_row(&self, c: NodeId) -> &[NodeId] {
        self.cover().holders_out(c)
    }

    fn cover_stats(&self) -> CoverStats {
        self.cover().cover_stats()
    }
}

impl<S: LabelSource + ?Sized> LabelSource for &S {
    fn connected(&self, u: NodeId, v: NodeId) -> bool {
        (**self).connected(u, v)
    }

    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn lin_row(&self, v: NodeId) -> &[NodeId] {
        (**self).lin_row(v)
    }

    fn lout_row(&self, v: NodeId) -> &[NodeId] {
        (**self).lout_row(v)
    }

    fn holders_in_row(&self, c: NodeId) -> &[NodeId] {
        (**self).holders_in_row(c)
    }

    fn holders_out_row(&self, c: NodeId) -> &[NodeId] {
        (**self).holders_out_row(c)
    }

    fn cover_stats(&self) -> CoverStats {
        (**self).cover_stats()
    }

    fn descendants(&self, u: NodeId) -> Vec<NodeId> {
        (**self).descendants(u)
    }

    fn ancestors(&self, u: NodeId) -> Vec<NodeId> {
        (**self).ancestors(u)
    }

    fn descendants_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        (**self).descendants_into(u, out)
    }

    fn ancestors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        (**self).ancestors_into(u, out)
    }

    fn connected_from_any(&self, sources: &[NodeId], target: NodeId) -> bool {
        (**self).connected_from_any(sources, target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrozenCover, HopiIndex, TwoHopCover};

    fn probe<S: LabelSource>(s: &S) -> (bool, Vec<NodeId>, Vec<NodeId>, bool) {
        (
            s.connected(0, 2),
            s.descendants(0),
            s.ancestors(2),
            s.connected_from_any(&[0, 2], 2),
        )
    }

    #[test]
    fn all_representations_agree() {
        let mut cover = TwoHopCover::with_nodes(3);
        cover.add_out(0, 1);
        cover.add_in(2, 1);
        let frozen = FrozenCover::from_cover(&cover);
        let index = HopiIndex::from_cover(cover.clone());
        let expect = (true, vec![0, 1, 2], vec![0, 1, 2], true);
        assert_eq!(probe(&cover), expect);
        assert_eq!(probe(&index), expect);
        assert_eq!(probe(&frozen), expect);
        assert_eq!(probe(&&frozen), expect);
    }

    #[test]
    fn rows_and_stats_agree_across_representations() {
        let mut cover = TwoHopCover::with_nodes(4);
        cover.add_out(0, 1);
        cover.add_out(3, 1);
        cover.add_in(2, 1);
        let frozen = FrozenCover::from_cover(&cover);
        let index = HopiIndex::from_cover(cover.clone());
        let expect = CoverStats {
            nodes: 4,
            lin_entries: 1,
            lout_entries: 2,
        };
        assert_eq!(cover.cover_stats(), expect);
        assert_eq!(index.cover_stats(), expect);
        assert_eq!(frozen.cover_stats(), expect);
        for v in 0..5u32 {
            assert_eq!(LabelSource::lin_row(&cover, v), frozen.lin_row(v), "{v}");
            assert_eq!(LabelSource::lout_row(&cover, v), frozen.lout_row(v));
            let mut mutable_holders = cover.holders_in_row(v).to_vec();
            mutable_holders.sort_unstable();
            assert_eq!(mutable_holders, frozen.holders_in_row(v));
            let mut buf = Vec::new();
            LabelSource::descendants_into(&cover, v, &mut buf);
            assert_eq!(buf, frozen.descendants(v), "descendants_into {v}");
            LabelSource::ancestors_into(&index, v, &mut buf);
            assert_eq!(buf, frozen.ancestors(v), "ancestors_into {v}");
        }
        assert_eq!(expect.avg_lin(), 0.25);
        assert_eq!(expect.avg_inv_out(), 0.5);
    }
}
