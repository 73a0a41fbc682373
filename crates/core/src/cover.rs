//! The 2-hop cover: per-node `Lin`/`Lout` label sets plus an inverted center
//! index.
//!
//! Storage convention (paper §3.4): the node itself is **not** stored in its
//! own labels; reachability queries special-case `u == v`, `v ∈ Lout(u)` and
//! `u ∈ Lin(v)`.
//!
//! The inverted index maps a center `c` to the nodes holding `c` in their
//! `Lout` (nodes that reach `c`) and in their `Lin` (nodes `c` reaches).
//! Both the cover-joining algorithms (paper §3.3, §4.1) and incremental
//! maintenance (paper §6) repeatedly ask "which nodes are ancestors /
//! descendants of `x` *under the current cover*" while mutating labels, so
//! the index is maintained eagerly on every label edit.

use crate::source::LabelSource;
use std::sync::atomic::{AtomicU64, Ordering};

/// Node identifier (matches `hopi_graph::NodeId`).
pub type NodeId = u32;

/// Source of journal stamps. Process-wide, so that clones of one cover —
/// which copy its journal — can never hand out the same stamp for two
/// different states. Relaxed: a stamp only has to be unique.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// The rows of a [`TwoHopCover`] edited since its journal was last taken.
///
/// Invariant: while `since != 0`, every `Lin`/`Lout` row and every inverted
/// holder row that differs from the cover's state at take `since` is in
/// the matching list (possibly more than once). `since == 0` means no such
/// take exists — a fresh, thawed or rebuilt cover, or a journal that
/// outgrew its bound — and reads "everything".
#[derive(Clone, Debug, Default)]
struct Journal {
    since: u64,
    lin: Vec<NodeId>,
    lout: Vec<NodeId>,
    inv_in: Vec<NodeId>,
    inv_out: Vec<NodeId>,
}

impl Journal {
    /// The entry `(node, center)` of `Lout` was added or removed: row
    /// `Lout(node)` and holder row `inv_out(center)` changed.
    fn touch_out(&mut self, node: NodeId, center: NodeId, n: usize) {
        if self.since != 0 {
            push_row(&mut self.lout, node);
            push_row(&mut self.inv_out, center);
            self.bound(n);
        }
    }

    /// The entry `(node, center)` of `Lin` was added or removed.
    fn touch_in(&mut self, node: NodeId, center: NodeId, n: usize) {
        if self.since != 0 {
            push_row(&mut self.lin, node);
            push_row(&mut self.inv_in, center);
            self.bound(n);
        }
    }

    /// A list longer than the cover has rows is no cheaper to apply than a
    /// full freeze: forget it and read "everything".
    fn bound(&mut self, n: usize) {
        let lists = [&self.lin, &self.lout, &self.inv_in, &self.inv_out];
        if lists.iter().any(|list| list.len() > n) {
            *self = Journal::default();
        }
    }
}

fn push_row(list: &mut Vec<NodeId>, row: NodeId) {
    if list.last() != Some(&row) {
        list.push(row);
    }
}

/// A taken journal (see [`TwoHopCover::take_journal`]): which rows of the
/// cover differ from the frozen cover stamped `base`, each list sorted and
/// free of duplicates. Consumed by [`crate::FrozenCover::patched`].
#[derive(Clone, Debug)]
pub struct DirtyRows {
    /// Stamp of the frozen cover the lists are relative to; 0 = none
    /// (everything is dirty).
    pub(crate) base: u64,
    /// Stamp of the frozen cover produced from this take.
    pub(crate) stamp: u64,
    pub(crate) lin: Vec<NodeId>,
    pub(crate) lout: Vec<NodeId>,
    pub(crate) inv_in: Vec<NodeId>,
    pub(crate) inv_out: Vec<NodeId>,
}

impl DirtyRows {
    /// No earlier take to be relative to: every row counts as dirty.
    pub fn is_everything(&self) -> bool {
        self.base == 0
    }

    /// Can `prev` be patched with these rows? Only the frozen cover
    /// produced from the previous take of the same journal qualifies:
    /// a matching stamp. Anything else — a cover frozen outside the
    /// journal (distance-annotated ones always are), another lineage's, a
    /// stale one — costs a full freeze, never a wrong cover.
    pub fn applies_to(&self, prev: &crate::FrozenCover) -> bool {
        self.base != 0 && self.base == prev.stamp()
    }

    /// Dirty rows over all four sections (0 when everything is dirty).
    pub fn len(&self) -> usize {
        self.lin.len() + self.lout.len() + self.inv_in.len() + self.inv_out.len()
    }

    /// True when no row is listed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A 2-hop cover over nodes `0..len`.
///
/// ```
/// use hopi_core::TwoHopCover;
///
/// // Cover for the path 0 → 1 → 2 with node 1 as the center.
/// let mut cover = TwoHopCover::with_nodes(3);
/// cover.add_out(0, 1); // 0 reaches center 1
/// cover.add_in(2, 1);  // center 1 reaches 2
///
/// assert!(cover.connected(0, 2)); // via Lout(0) ∩ Lin(2) = {1}
/// assert!(cover.connected(0, 1)); // via the implicit self label of 1
/// assert!(!cover.connected(2, 0));
/// assert_eq!(cover.descendants(0), vec![0, 1, 2]);
/// assert_eq!(cover.size(), 2); // stored entries only
/// ```
#[derive(Clone, Debug, Default)]
pub struct TwoHopCover {
    lin: Vec<Vec<NodeId>>,
    lout: Vec<Vec<NodeId>>,
    /// `inv_out[c]` = nodes `x` with `c ∈ Lout(x)` (they reach `c`).
    inv_out: Vec<Vec<NodeId>>,
    /// `inv_in[c]` = nodes `y` with `c ∈ Lin(y)` (`c` reaches them).
    inv_in: Vec<Vec<NodeId>>,
    /// Stored `Lin` entries (the query planner reads the split, so both
    /// sides are counted eagerly instead of one `entries` total).
    lin_entries: usize,
    /// Stored `Lout` entries.
    lout_entries: usize,
    /// Rows edited since the last [`TwoHopCover::take_journal`].
    journal: Journal,
}

impl TwoHopCover {
    /// Creates an empty cover with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cover for nodes `0..n`.
    pub fn with_nodes(n: usize) -> Self {
        TwoHopCover {
            lin: vec![Vec::new(); n],
            lout: vec![Vec::new(); n],
            inv_out: vec![Vec::new(); n],
            inv_in: vec![Vec::new(); n],
            ..Self::default()
        }
    }

    /// Reconstructs a cover from per-node label rows that are **already
    /// sorted ascending and free of duplicates/self entries** (e.g. thawed
    /// from a [`crate::FrozenCover`] or a persisted CSR blob). The inverted
    /// index and entry count are derived in one pass — no per-entry binary
    /// searches.
    pub fn from_sorted_label_rows(lin: Vec<Vec<NodeId>>, lout: Vec<Vec<NodeId>>) -> Self {
        let n = lin.len().max(lout.len());
        let mut cover = TwoHopCover {
            lin,
            lout,
            inv_out: vec![Vec::new(); n],
            inv_in: vec![Vec::new(); n],
            ..Self::default()
        };
        cover.lin.resize_with(n, Vec::new);
        cover.lout.resize_with(n, Vec::new);
        for (node, row) in cover.lout.iter().enumerate() {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "Lout row sorted");
            for &c in row {
                debug_assert_ne!(c as usize, node, "self entry in Lout");
                cover.inv_out[c as usize].push(node as NodeId);
                cover.lout_entries += 1;
            }
        }
        for (node, row) in cover.lin.iter().enumerate() {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "Lin row sorted");
            for &c in row {
                debug_assert_ne!(c as usize, node, "self entry in Lin");
                cover.inv_in[c as usize].push(node as NodeId);
                cover.lin_entries += 1;
            }
        }
        cover
    }

    /// Number of node slots.
    pub fn num_nodes(&self) -> usize {
        self.lin.len()
    }

    /// Ensures slots `0..=id` exist.
    pub fn ensure_node(&mut self, id: NodeId) {
        let need = id as usize + 1;
        if self.lin.len() < need {
            self.lin.resize_with(need, Vec::new);
            self.lout.resize_with(need, Vec::new);
            self.inv_out.resize_with(need, Vec::new);
            self.inv_in.resize_with(need, Vec::new);
        }
    }

    /// Cover size `|L| = Σ_v |Lin(v)| + |Lout(v)|` — the paper's size metric
    /// (number of stored label entries).
    pub fn size(&self) -> usize {
        self.lin_entries + self.lout_entries
    }

    /// Stored `Lin` entries `Σ_v |Lin(v)|` (also `Σ_c |inv_in(c)|` — the
    /// total inverted holder-list mass the query planner estimates hop
    /// joins from).
    pub fn lin_entry_count(&self) -> usize {
        self.lin_entries
    }

    /// Stored `Lout` entries `Σ_v |Lout(v)|` (also `Σ_c |inv_out(c)|`).
    pub fn lout_entry_count(&self) -> usize {
        self.lout_entries
    }

    /// The stored `Lin(v)` (sorted, without the implicit `v` itself).
    pub fn lin(&self, v: NodeId) -> &[NodeId] {
        self.lin.get(v as usize).map_or(&[], Vec::as_slice)
    }

    /// The stored `Lout(v)` (sorted, without the implicit `v` itself).
    pub fn lout(&self, v: NodeId) -> &[NodeId] {
        self.lout.get(v as usize).map_or(&[], Vec::as_slice)
    }

    /// Nodes holding `c` in `Lout` — the nodes that reach `c` through the
    /// cover (without `c` itself).
    pub fn holders_out(&self, c: NodeId) -> &[NodeId] {
        self.inv_out.get(c as usize).map_or(&[], Vec::as_slice)
    }

    /// Nodes holding `c` in `Lin` — the nodes `c` reaches through the cover
    /// (without `c` itself).
    pub fn holders_in(&self, c: NodeId) -> &[NodeId] {
        self.inv_in.get(c as usize).map_or(&[], Vec::as_slice)
    }

    /// Adds `center` to `Lout(node)`. Self-entries are skipped (implicit).
    /// Returns `true` if the entry is new.
    pub fn add_out(&mut self, node: NodeId, center: NodeId) -> bool {
        if node == center {
            return false;
        }
        self.ensure_node(node.max(center));
        let n = self.lin.len();
        let row = &mut self.lout[node as usize];
        match row.binary_search(&center) {
            Ok(_) => false,
            Err(pos) => {
                row.insert(pos, center);
                self.inv_out[center as usize].push(node);
                self.lout_entries += 1;
                self.journal.touch_out(node, center, n);
                true
            }
        }
    }

    /// Adds `center` to `Lin(node)`. Self-entries are skipped (implicit).
    /// Returns `true` if the entry is new.
    pub fn add_in(&mut self, node: NodeId, center: NodeId) -> bool {
        if node == center {
            return false;
        }
        self.ensure_node(node.max(center));
        let n = self.lin.len();
        let row = &mut self.lin[node as usize];
        match row.binary_search(&center) {
            Ok(_) => false,
            Err(pos) => {
                row.insert(pos, center);
                self.inv_in[center as usize].push(node);
                self.lin_entries += 1;
                self.journal.touch_in(node, center, n);
                true
            }
        }
    }

    /// The 2-hop reachability test: is there a path `u →* v`?
    ///
    /// Implements the paper's query with implicit self-labels:
    /// `u == v`, or `v ∈ Lout(u)`, or `u ∈ Lin(v)`, or
    /// `Lout(u) ∩ Lin(v) ≠ ∅` (sorted-merge intersection — the database
    /// analogue is the `LIN ⋈ LOUT` count query of §3.4).
    pub fn connected(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return true;
        }
        if self.lout(u).binary_search(&v).is_ok() {
            return true;
        }
        if self.lin(v).binary_search(&u).is_ok() {
            return true;
        }
        sorted_intersects(self.lout(u), self.lin(v))
    }

    /// All descendants of `u` under the cover (including `u`), sorted; the
    /// enumeration kernel of [`LabelSource::descendants_into`].
    pub fn descendants(&self, u: NodeId) -> Vec<NodeId> {
        LabelSource::descendants(self, u)
    }

    /// All ancestors of `u` under the cover (including `u`), sorted.
    pub fn ancestors(&self, u: NodeId) -> Vec<NodeId> {
        LabelSource::ancestors(self, u)
    }

    /// Merges `other` whose node ids are *local*, translating them through
    /// `map` (`local id → global id`). Used to lift per-partition covers
    /// into the collection-wide cover (paper §3.3 step 3 starts from "the
    /// (component-wise) union of the partition covers").
    pub fn merge_remapped(&mut self, other: &TwoHopCover, map: &[NodeId]) {
        for (node, row) in other.lout.iter().enumerate() {
            for &c in row {
                self.add_out(map[node], map[c as usize]);
            }
        }
        for (node, row) in other.lin.iter().enumerate() {
            for &c in row {
                self.add_in(map[node], map[c as usize]);
            }
        }
    }

    /// Removes `center` from `Lout(node)`. Returns `true` if present.
    pub fn remove_out(&mut self, node: NodeId, center: NodeId) -> bool {
        let Some(row) = self.lout.get_mut(node as usize) else {
            return false;
        };
        let Ok(pos) = row.binary_search(&center) else {
            return false;
        };
        row.remove(pos);
        let inv = &mut self.inv_out[center as usize];
        let p = inv.iter().position(|&x| x == node).expect("inv_out sync");
        inv.swap_remove(p);
        self.lout_entries -= 1;
        self.journal.touch_out(node, center, self.lin.len());
        true
    }

    /// Removes `center` from `Lin(node)`. Returns `true` if present.
    pub fn remove_in(&mut self, node: NodeId, center: NodeId) -> bool {
        let Some(row) = self.lin.get_mut(node as usize) else {
            return false;
        };
        let Ok(pos) = row.binary_search(&center) else {
            return false;
        };
        row.remove(pos);
        let inv = &mut self.inv_in[center as usize];
        let p = inv.iter().position(|&x| x == node).expect("inv_in sync");
        inv.swap_remove(p);
        self.lin_entries -= 1;
        self.journal.touch_in(node, center, self.lin.len());
        true
    }

    /// Keeps only `Lout(node)` centers satisfying `keep` (Theorem 2 removes
    /// whole id sets from labels).
    pub fn retain_out(&mut self, node: NodeId, mut keep: impl FnMut(NodeId) -> bool) {
        let Some(row) = self.lout.get_mut(node as usize) else {
            return;
        };
        let removed: Vec<NodeId> = row.iter().copied().filter(|&c| !keep(c)).collect();
        for c in removed {
            self.remove_out(node, c);
        }
    }

    /// Keeps only `Lin(node)` centers satisfying `keep`.
    pub fn retain_in(&mut self, node: NodeId, mut keep: impl FnMut(NodeId) -> bool) {
        let Some(row) = self.lin.get_mut(node as usize) else {
            return;
        };
        let removed: Vec<NodeId> = row.iter().copied().filter(|&c| !keep(c)).collect();
        for c in removed {
            self.remove_in(node, c);
        }
    }

    /// Replaces `Lout(node)` wholesale.
    pub fn set_lout(&mut self, node: NodeId, centers: &[NodeId]) {
        let old: Vec<NodeId> = self.lout(node).to_vec();
        for c in old {
            self.remove_out(node, c);
        }
        for &c in centers {
            self.add_out(node, c);
        }
    }

    /// Replaces `Lin(node)` wholesale.
    pub fn set_lin(&mut self, node: NodeId, centers: &[NodeId]) {
        let old: Vec<NodeId> = self.lin(node).to_vec();
        for c in old {
            self.remove_in(node, c);
        }
        for &c in centers {
            self.add_in(node, c);
        }
    }

    /// Deletes all label entries *of* node `u` (its `Lin`/`Lout`) and all
    /// occurrences of `u` *as a center* in other nodes' labels. Used when a
    /// node is removed from the graph (paper §6.2).
    pub fn purge_node(&mut self, u: NodeId) {
        if (u as usize) >= self.lin.len() {
            return;
        }
        self.set_lout(u, &[]);
        self.set_lin(u, &[]);
        let n = self.lin.len();
        for holder in std::mem::take(&mut self.inv_out[u as usize]) {
            let row = &mut self.lout[holder as usize];
            if let Ok(pos) = row.binary_search(&u) {
                row.remove(pos);
                self.lout_entries -= 1;
                self.journal.touch_out(holder, u, n);
            }
        }
        for holder in std::mem::take(&mut self.inv_in[u as usize]) {
            let row = &mut self.lin[holder as usize];
            if let Ok(pos) = row.binary_search(&u) {
                row.remove(pos);
                self.lin_entries -= 1;
                self.journal.touch_in(holder, u, n);
            }
        }
    }

    /// Takes the journal of rows edited since the previous take and starts
    /// a new one. The returned [`DirtyRows`] pairs with the
    /// [`crate::FrozenCover`] produced from that previous take, by stamp;
    /// the frozen cover [`crate::FrozenCover::patched`] builds from it
    /// carries the new stamp, so consecutive takes chain.
    ///
    /// A cover that was never taken from — freshly constructed, thawed,
    /// rebuilt — or whose journal outgrew [`TwoHopCover::num_nodes`]
    /// entries yields [`DirtyRows::is_everything`]. Clones copy the
    /// journal: each is relative to the same frozen cover and records its
    /// own edits from there on.
    pub fn take_journal(&mut self) -> DirtyRows {
        let stamp = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        let taken = std::mem::replace(
            &mut self.journal,
            Journal {
                since: stamp,
                ..Journal::default()
            },
        );
        let sorted = |mut rows: Vec<NodeId>| {
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        DirtyRows {
            base: taken.since,
            stamp,
            lin: sorted(taken.lin),
            lout: sorted(taken.lout),
            inv_in: sorted(taken.inv_in),
            inv_out: sorted(taken.inv_out),
        }
    }

    /// Iterates over all stored `(node, center)` `Lout` entries.
    pub fn iter_out_entries(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.lout
            .iter()
            .enumerate()
            .flat_map(|(n, row)| row.iter().map(move |&c| (n as NodeId, c)))
    }

    /// Iterates over all stored `(node, center)` `Lin` entries.
    pub fn iter_in_entries(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.lin
            .iter()
            .enumerate()
            .flat_map(|(n, row)| row.iter().map(move |&c| (n as NodeId, c)))
    }

    /// Debug invariant check: inverted index matches labels, labels sorted,
    /// no self entries, entry count correct.
    pub fn check_invariants(&self) {
        let mut out_count = 0;
        let mut in_count = 0;
        for (n, row) in self.lout.iter().enumerate() {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "Lout sorted+dedup");
            for &c in row {
                assert_ne!(c as usize, n, "self entry in Lout");
                assert!(
                    self.inv_out[c as usize].contains(&(n as NodeId)),
                    "inv_out missing"
                );
                out_count += 1;
            }
        }
        for (n, row) in self.lin.iter().enumerate() {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "Lin sorted+dedup");
            for &c in row {
                assert_ne!(c as usize, n, "self entry in Lin");
                assert!(
                    self.inv_in[c as usize].contains(&(n as NodeId)),
                    "inv_in missing"
                );
                in_count += 1;
            }
        }
        for (c, holders) in self.inv_out.iter().enumerate() {
            for &h in holders {
                assert!(self.lout[h as usize].binary_search(&(c as u32)).is_ok());
            }
        }
        for (c, holders) in self.inv_in.iter().enumerate() {
            for &h in holders {
                assert!(self.lin[h as usize].binary_search(&(c as u32)).is_ok());
            }
        }
        assert_eq!(out_count, self.lout_entries, "Lout entry count drift");
        assert_eq!(in_count, self.lin_entries, "Lin entry count drift");
    }
}

/// Sorted-slice intersection test (merge scan); shared with the frozen
/// representation.
pub(crate) fn sorted_intersects(a: &[NodeId], b: &[NodeId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cover for the path 0 -> 1 -> 2 with center 1.
    fn path_cover() -> TwoHopCover {
        let mut c = TwoHopCover::with_nodes(3);
        c.add_out(0, 1);
        c.add_in(2, 1);
        c
    }

    #[test]
    fn connected_via_center() {
        let c = path_cover();
        assert!(c.connected(0, 2));
        assert!(c.connected(0, 1)); // 1 ∈ Lout(0), implicit self in Lin(1)
        assert!(c.connected(1, 2)); // 1 ∈ Lin(2), implicit self in Lout(1)
        assert!(c.connected(1, 1)); // reflexive
        assert!(!c.connected(2, 0));
        assert!(!c.connected(2, 1));
    }

    #[test]
    fn self_entries_not_stored() {
        let mut c = TwoHopCover::with_nodes(2);
        assert!(!c.add_out(1, 1));
        assert!(!c.add_in(1, 1));
        assert_eq!(c.size(), 0);
        assert!(c.connected(1, 1));
    }

    #[test]
    fn size_counts_both_sides() {
        let c = path_cover();
        assert_eq!(c.size(), 2);
        assert_eq!(c.lout(0), &[1]);
        assert_eq!(c.lin(2), &[1]);
        assert!(c.lin(0).is_empty());
    }

    #[test]
    fn entry_counts_track_the_split() {
        let mut c = path_cover();
        assert_eq!((c.lin_entry_count(), c.lout_entry_count()), (1, 1));
        c.add_in(0, 2);
        assert_eq!((c.lin_entry_count(), c.lout_entry_count()), (2, 1));
        c.remove_out(0, 1);
        assert_eq!((c.lin_entry_count(), c.lout_entry_count()), (2, 0));
        c.purge_node(2);
        assert_eq!((c.lin_entry_count(), c.lout_entry_count()), (0, 0));
        assert_eq!(c.size(), 0);
        c.check_invariants();
    }

    #[test]
    fn duplicate_add_is_noop() {
        let mut c = path_cover();
        assert!(!c.add_out(0, 1));
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn ancestors_descendants_enumeration() {
        let c = path_cover();
        assert_eq!(c.descendants(0), vec![0, 1, 2]);
        assert_eq!(c.descendants(1), vec![1, 2]);
        assert_eq!(c.ancestors(2), vec![0, 1, 2]);
        assert_eq!(c.ancestors(0), vec![0]);
    }

    #[test]
    fn merge_remapped_translates_ids() {
        // Local cover on {0,1,2} mapped to globals {10,11,12}.
        let local = path_cover();
        let mut global = TwoHopCover::with_nodes(13);
        global.merge_remapped(&local, &[10, 11, 12]);
        assert!(global.connected(10, 12));
        assert!(!global.connected(0, 2));
        global.check_invariants();
    }

    #[test]
    fn removal_updates_inverted_index() {
        let mut c = path_cover();
        assert!(c.remove_out(0, 1));
        assert!(!c.remove_out(0, 1));
        assert!(!c.connected(0, 2));
        assert_eq!(c.size(), 1);
        c.check_invariants();
    }

    #[test]
    fn retain_filters() {
        let mut c = TwoHopCover::with_nodes(5);
        c.add_out(0, 1);
        c.add_out(0, 2);
        c.add_out(0, 3);
        c.retain_out(0, |ctr| ctr != 2);
        assert_eq!(c.lout(0), &[1, 3]);
        c.retain_in(0, |_| false); // empty Lin, still fine
        c.check_invariants();
    }

    #[test]
    fn set_labels_wholesale() {
        let mut c = path_cover();
        c.set_lout(0, &[2]);
        assert_eq!(c.lout(0), &[2]);
        assert!(c.connected(0, 2)); // now via 2 ∈ Lout(0)
        c.set_lin(2, &[]);
        assert_eq!(c.size(), 1);
        c.check_invariants();
    }

    #[test]
    fn purge_node_removes_all_traces() {
        let mut c = path_cover();
        c.add_out(0, 2);
        c.purge_node(1);
        assert_eq!(c.lout(0), &[2]);
        assert!(c.lin(2).is_empty());
        assert!(c.holders_out(1).is_empty());
        assert_eq!(c.size(), 1);
        c.check_invariants();
    }

    #[test]
    fn entries_iterators() {
        let c = path_cover();
        let outs: Vec<_> = c.iter_out_entries().collect();
        let ins: Vec<_> = c.iter_in_entries().collect();
        assert_eq!(outs, vec![(0, 1)]);
        assert_eq!(ins, vec![(2, 1)]);
    }

    #[test]
    fn descendants_via_multiple_centers() {
        // 0 -> {1,2} as centers; 1 -> 3, 2 -> 4.
        let mut c = TwoHopCover::with_nodes(5);
        c.add_out(0, 1);
        c.add_out(0, 2);
        c.add_in(3, 1);
        c.add_in(4, 2);
        assert_eq!(c.descendants(0), vec![0, 1, 2, 3, 4]);
        assert_eq!(c.ancestors(4), vec![0, 2, 4]);
    }
}
