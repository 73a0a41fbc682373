//! Immutable CSR snapshot of a 2-hop cover — the read-optimized serving
//! form.
//!
//! The mutable [`TwoHopCover`] keeps one heap `Vec` per node and per
//! inverted-center row; every query chases pointers. A [`FrozenCover`]
//! freezes the same labels into **one contiguous buffer** with four offset
//! tables (`Lin`, `Lout` and both inverted directions), so:
//!
//! * `connected`/`distance` are allocation-free sorted-merge scans over
//!   contiguous rows,
//! * `descendants`/`ancestors` walk contiguous holder lists (the shared
//!   enumeration kernel; caller-supplied buffers via the `_into` variants),
//! * [`FrozenCover::connected_many`] batches §3.4-style `LIN ⋈ LOUT` join
//!   probes, amortizing row lookups across a probe set.
//!
//! A frozen cover optionally carries the distance annotations of a
//! [`DistanceCover`] (paper §5), answering `distance` from the same layout.
//! A serving engine freezes once and then *patches*: [`FrozenCover::patched`]
//! assembles the successor of a frozen cover from the rows the mutable
//! cover's journal lists as edited, field for field what a full freeze
//! would build. Freezing is one-way by construction, but [`FrozenCover::thaw`] /
//! [`FrozenCover::thaw_distance`] rebuild the mutable forms without any
//! re-sorting — rows are stored sorted — which is how a persisted frozen
//! blob is reopened for maintenance.

use crate::cover::{sorted_intersects, DirtyRows, NodeId, TwoHopCover};
use crate::distance::DistanceCover;
use crate::source::{CoverStats, LabelSource};

/// Section boundaries of one node's rows inside the shared data buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Offsets {
    /// `len n + 1`, absolute indices into the shared buffer.
    off: Vec<u32>,
}

impl Offsets {
    fn row(&self, v: NodeId) -> std::ops::Range<usize> {
        match self.off.get(v as usize..v as usize + 2) {
            Some(w) => w[0] as usize..w[1] as usize,
            None => 0..0,
        }
    }
}

/// An immutable, cache-friendly snapshot of a [`TwoHopCover`] (optionally
/// with the distance annotations of a [`DistanceCover`]).
///
/// ```
/// use hopi_core::{FrozenCover, TwoHopCover};
///
/// // Cover for the path 0 → 1 → 2 with node 1 as the center.
/// let mut cover = TwoHopCover::with_nodes(3);
/// cover.add_out(0, 1);
/// cover.add_in(2, 1);
/// let frozen = FrozenCover::from_cover(&cover);
///
/// assert!(frozen.connected(0, 2));
/// assert!(!frozen.connected(2, 0));
/// assert_eq!(frozen.descendants(0), vec![0, 1, 2]);
/// assert_eq!(frozen.size(), cover.size());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FrozenCover {
    /// `[Lin | Lout | inv_in | inv_out]` rows, each row sorted.
    data: Vec<NodeId>,
    lin: Offsets,
    lout: Offsets,
    /// `inv_in` rows: nodes holding `c` in `Lin` (`c` reaches them).
    inv_in: Offsets,
    /// `inv_out` rows: nodes holding `c` in `Lout` (they reach `c`).
    inv_out: Offsets,
    /// Distance annotations parallel to the `Lin`/`Lout` prefix of `data`.
    dist: Option<Vec<u32>>,
    /// Per-node 64-bit signature of `Lout(u) ∪ {u}` (Bloom-style join
    /// filter): a probe whose signatures do not intersect is provably
    /// unreachable, skipping the row scans entirely. Derived data, rebuilt
    /// on every construction path.
    sig_out: Vec<u64>,
    /// Per-node signature of `Lin(v) ∪ {v}`.
    sig_in: Vec<u64>,
    n: usize,
    /// Stamp of the journal take this cover was frozen at (see
    /// [`TwoHopCover::take_journal`]); 0 when frozen outside the journal.
    /// Identifies a state, not content: ignored by `==`.
    stamp: u64,
}

/// Equality of the frozen *content* — every buffer, offset table and
/// signature — which is what [`FrozenCover::patched`] guarantees against
/// [`FrozenCover::from_cover`].
impl PartialEq for FrozenCover {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.data == other.data
            && self.lin == other.lin
            && self.lout == other.lout
            && self.inv_in == other.inv_in
            && self.inv_out == other.inv_out
            && self.dist == other.dist
            && self.sig_out == other.sig_out
            && self.sig_in == other.sig_in
    }
}

/// One bit of the 64-bit center signature (multiplicative hash).
#[inline]
fn sig_bit(x: NodeId) -> u64 {
    1u64 << ((x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
}

/// Signature of a label row of node `v`: its centers plus `v` itself.
fn row_signature(v: NodeId, row: &[NodeId]) -> u64 {
    row.iter().fold(sig_bit(v), |sig, &c| sig | sig_bit(c))
}

/// Appends one section of a patched cover to `data` and returns its `n + 1`
/// absolute offsets. Rows listed in `dirty` (sorted, deduplicated) are read
/// through `row` and sorted; the runs between them are copied from the
/// previous cover's buffer, offsets shifted by how far the run moved. Rows
/// past the previous cover's last are new node slots: empty unless dirty.
fn patch_section<'a>(
    data: &mut Vec<NodeId>,
    prev_data: &[NodeId],
    prev: &Offsets,
    n: usize,
    dirty: &[NodeId],
    row: impl Fn(NodeId) -> &'a [NodeId],
) -> Offsets {
    let prev_n = prev.off.len().saturating_sub(1);
    let mut off = Vec::with_capacity(n + 1);
    off.push(data.len() as u32);
    let mut next = 0usize;
    let stops = dirty.iter().map(|&d| d as usize).filter(|&d| d < n);
    for stop in stops.chain(std::iter::once(n)) {
        // The clean run `next..stop`: first the rows `prev` has…
        let shared = stop.min(prev_n);
        let run = if next < shared {
            prev.off.get(next..=shared).unwrap_or(&[])
        } else {
            &[]
        };
        if let (Some(&lo), Some(&hi)) = (run.first(), run.last()) {
            let start = data.len() as u32;
            data.extend_from_slice(prev_data.get(lo as usize..hi as usize).unwrap_or(&[]));
            off.extend(run.iter().skip(1).map(|&o| start + (o - lo)));
        }
        // …then node slots it never had.
        off.resize(stop + 1, data.len() as u32);
        if stop < n {
            let start = data.len();
            data.extend_from_slice(row(stop as NodeId));
            if let Some(copied) = data.get_mut(start..) {
                copied.sort_unstable();
            }
            off.push(data.len() as u32);
        }
        next = stop + 1;
    }
    Offsets { off }
}

/// The previous cover's signatures extended to `n` nodes, recomputed for
/// the `dirty` label rows.
fn patch_signatures<'a>(
    prev: &[u64],
    n: usize,
    dirty: &[NodeId],
    row: impl Fn(NodeId) -> &'a [NodeId],
) -> Vec<u64> {
    let mut sigs = Vec::with_capacity(n);
    sigs.extend_from_slice(prev);
    sigs.extend((prev.len()..n).map(|v| sig_bit(v as NodeId)));
    for &v in dirty {
        if let Some(sig) = sigs.get_mut(v as usize) {
            *sig = row_signature(v, row(v));
        }
    }
    sigs
}

impl FrozenCover {
    /// Freezes a mutable cover into the CSR form.
    pub fn from_cover(cover: &TwoHopCover) -> Self {
        let n = cover.num_nodes();
        Self::build(
            n,
            |v| LabelRow::Plain(cover.lin(v)),
            |v| LabelRow::Plain(cover.lout(v)),
            false,
        )
    }

    /// Freezes a distance-aware cover, keeping the distance annotations so
    /// [`FrozenCover::distance`] answers the §5.1 `MIN(DIST + DIST)` query.
    pub fn from_distance_cover(cover: &DistanceCover) -> Self {
        let n = cover.num_nodes();
        Self::build(
            n,
            |v| LabelRow::Annotated(cover.lin(v)),
            |v| LabelRow::Annotated(cover.lout(v)),
            true,
        )
    }

    /// Largest supported label-entry count: the shared buffer holds the
    /// `Lin`/`Lout` prefix *plus* the equally sized inverted sections, so
    /// every offset (≤ 2 × entries) must still fit in a `u32`.
    pub const MAX_LABEL_ENTRIES: usize = (u32::MAX / 2) as usize;

    fn build<'a>(
        n: usize,
        lin_row: impl Fn(NodeId) -> LabelRow<'a>,
        lout_row: impl Fn(NodeId) -> LabelRow<'a>,
        with_dist: bool,
    ) -> Self {
        let mut data: Vec<NodeId> = Vec::new();
        let mut dist: Vec<u32> = Vec::new();
        let mut lin = Vec::with_capacity(n + 1);
        let mut lout = Vec::with_capacity(n + 1);
        lin.push(0u32);
        for v in 0..n as NodeId {
            lin_row(v).append_to(&mut data, &mut dist);
            lin.push(data.len() as u32);
        }
        lout.push(data.len() as u32);
        for v in 0..n as NodeId {
            lout_row(v).append_to(&mut data, &mut dist);
            lout.push(data.len() as u32);
        }
        assert!(
            data.len() <= Self::MAX_LABEL_ENTRIES,
            "cover has {} label entries; FrozenCover supports at most {}",
            data.len(),
            Self::MAX_LABEL_ENTRIES
        );
        let mut frozen = FrozenCover {
            data,
            lin: Offsets { off: lin },
            lout: Offsets { off: lout },
            inv_in: Offsets::default(),
            inv_out: Offsets::default(),
            dist: with_dist.then_some(dist),
            sig_out: Vec::new(),
            sig_in: Vec::new(),
            n,
            stamp: 0,
        };
        frozen.build_inverted();
        frozen
    }

    /// Freezes `cover` as the successor of `prev`: the result equals
    /// [`FrozenCover::from_cover`]`(cover)` field for field, but is
    /// assembled from `prev`'s buffer wherever `dirty` — the journal taken
    /// from `cover` — lists no edit. Clean rows are copied in runs with
    /// their offsets shifted; dirty rows come from the mutable cover
    /// (holder rows sorted on the way, since the mutable cover keeps them
    /// in edit order); signatures are recomputed for dirty label rows only.
    ///
    /// Falls back to a full freeze when `dirty` is not relative to `prev`
    /// ([`DirtyRows::applies_to`]). Either way the result carries the
    /// take's stamp, so the next take from `cover` can patch it.
    pub fn patched(prev: &FrozenCover, cover: &TwoHopCover, dirty: &DirtyRows) -> Self {
        if !dirty.applies_to(prev) {
            let mut frozen = Self::from_cover(cover);
            frozen.stamp = dirty.stamp;
            return frozen;
        }
        let n = cover.num_nodes();
        debug_assert!(n >= prev.n, "covers never lose node slots");
        assert!(
            cover.size() <= Self::MAX_LABEL_ENTRIES,
            "cover has {} label entries; FrozenCover supports at most {}",
            cover.size(),
            Self::MAX_LABEL_ENTRIES
        );
        let mut data: Vec<NodeId> = Vec::with_capacity(2 * cover.size());
        let (old, d) = (&prev.data, &mut data);
        let lin = patch_section(d, old, &prev.lin, n, &dirty.lin, |v| cover.lin(v));
        let lout = patch_section(d, old, &prev.lout, n, &dirty.lout, |v| cover.lout(v));
        let inv_in = patch_section(d, old, &prev.inv_in, n, &dirty.inv_in, |c| {
            cover.holders_in(c)
        });
        let inv_out = patch_section(d, old, &prev.inv_out, n, &dirty.inv_out, |c| {
            cover.holders_out(c)
        });
        FrozenCover {
            data,
            lin,
            lout,
            inv_in,
            inv_out,
            dist: None,
            sig_out: patch_signatures(&prev.sig_out, n, &dirty.lout, |v| cover.lout(v)),
            sig_in: patch_signatures(&prev.sig_in, n, &dirty.lin, |v| cover.lin(v)),
            n,
            stamp: dirty.stamp,
        }
    }

    /// Reconstructs a frozen cover from its raw label sections (e.g. a
    /// persisted blob): `lin_off`/`lout_off` are absolute offsets into
    /// `labels` (`lin_off[0] == 0`, `lout_off[0] == lin_off[n]`,
    /// `lout_off[n] == labels.len()`), rows sorted ascending, and `dist`
    /// (when present) parallel to `labels`. The inverted sections are
    /// rebuilt by counting — no comparison sort on any row.
    pub fn from_label_csr(
        lin_off: Vec<u32>,
        lout_off: Vec<u32>,
        labels: Vec<NodeId>,
        dist: Option<Vec<u32>>,
    ) -> Result<Self, String> {
        if lin_off.len() != lout_off.len() || lin_off.is_empty() {
            return Err("offset tables must both have n + 1 entries".into());
        }
        let n = lin_off.len() - 1;
        if lin_off[0] != 0
            || lout_off[0] != lin_off[n]
            || lout_off[n] as usize != labels.len()
            || labels.len() > Self::MAX_LABEL_ENTRIES
        {
            return Err("offset tables do not tile the label buffer".into());
        }
        for off in [&lin_off, &lout_off] {
            if off.windows(2).any(|w| w[0] > w[1]) {
                return Err("offsets must be non-decreasing".into());
            }
        }
        for (i, row) in lin_off
            .windows(2)
            .chain(lout_off.windows(2))
            .enumerate()
            .map(|(i, w)| (i % n, &labels[w[0] as usize..w[1] as usize]))
        {
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return Err("label rows must be strictly sorted".into());
            }
            if row.iter().any(|&c| c as usize >= n || c as usize == i) {
                return Err("label center out of range or self entry".into());
            }
        }
        if let Some(d) = &dist {
            if d.len() != labels.len() {
                return Err("distance column must parallel the label buffer".into());
            }
        }
        let mut frozen = FrozenCover {
            data: labels,
            lin: Offsets { off: lin_off },
            lout: Offsets { off: lout_off },
            inv_in: Offsets::default(),
            inv_out: Offsets::default(),
            dist,
            sig_out: Vec::new(),
            sig_in: Vec::new(),
            n,
            stamp: 0,
        };
        frozen.build_inverted();
        Ok(frozen)
    }

    /// Rebuilds `inv_in`/`inv_out` from the label sections by counting
    /// (stable two-pass bucket fill — holder lists come out sorted because
    /// nodes are scanned in ascending order).
    fn build_inverted(&mut self) {
        let n = self.n;
        let label_len = self.lout.off[n] as usize;
        let mut inv_in_off = vec![0u32; n + 1];
        let mut inv_out_off = vec![0u32; n + 1];
        for v in 0..n as NodeId {
            for &c in &self.data[self.lin.row(v)] {
                inv_in_off[c as usize + 1] += 1;
            }
            for &c in &self.data[self.lout.row(v)] {
                inv_out_off[c as usize + 1] += 1;
            }
        }
        let mut base = label_len as u32;
        for slot in inv_in_off.iter_mut() {
            *slot += base;
            base = *slot;
        }
        for slot in inv_out_off.iter_mut() {
            *slot += base;
            base = *slot;
        }
        self.data.resize(base as usize, 0);
        let mut in_cursor = inv_in_off.clone();
        let mut out_cursor = inv_out_off.clone();
        for v in 0..n as NodeId {
            for i in self.lin.row(v) {
                let c = self.data[i] as usize;
                self.data[in_cursor[c] as usize] = v;
                in_cursor[c] += 1;
            }
            for i in self.lout.row(v) {
                let c = self.data[i] as usize;
                self.data[out_cursor[c] as usize] = v;
                out_cursor[c] += 1;
            }
        }
        self.inv_in = Offsets { off: inv_in_off };
        self.inv_out = Offsets { off: inv_out_off };
        // Center signatures: `Lout(u) ∪ {u}` vs `Lin(v) ∪ {v}` intersect
        // whenever `u →* v` holds for `u != v` (common center, `v ∈
        // Lout(u)` or `u ∈ Lin(v)`), so disjoint signatures prove
        // unreachability.
        self.sig_out = (0..n as NodeId)
            .map(|u| row_signature(u, &self.data[self.lout.row(u)]))
            .collect();
        self.sig_in = (0..n as NodeId)
            .map(|v| row_signature(v, &self.data[self.lin.row(v)]))
            .collect();
    }

    /// Number of node slots.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Stamp of the journal take this cover was frozen at (0 = none).
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Cover size `|L|` (stored label entries), matching
    /// [`TwoHopCover::size`].
    pub fn size(&self) -> usize {
        self.lout.off[self.n] as usize
    }

    /// Whether distance annotations are stored.
    pub fn with_dist(&self) -> bool {
        self.dist.is_some()
    }

    /// The stored `Lin(v)` (sorted, without the implicit `v` itself).
    pub fn lin(&self, v: NodeId) -> &[NodeId] {
        &self.data[self.lin.row(v)]
    }

    /// The stored `Lout(v)` (sorted, without the implicit `v` itself).
    pub fn lout(&self, v: NodeId) -> &[NodeId] {
        &self.data[self.lout.row(v)]
    }

    /// Nodes holding `c` in `Lin` (`c` reaches them), sorted.
    pub fn holders_in(&self, c: NodeId) -> &[NodeId] {
        &self.data[self.inv_in.row(c)]
    }

    /// Nodes holding `c` in `Lout` (they reach `c`), sorted.
    pub fn holders_out(&self, c: NodeId) -> &[NodeId] {
        &self.data[self.inv_out.row(c)]
    }

    /// The `Lin` offset table (`n + 1` absolute offsets into
    /// [`FrozenCover::label_data`], starting at 0).
    pub fn lin_offsets(&self) -> &[u32] {
        &self.lin.off
    }

    /// The `Lout` offset table (`n + 1` absolute offsets, ending at
    /// `label_data().len()`).
    pub fn lout_offsets(&self) -> &[u32] {
        &self.lout.off
    }

    /// The `Lin`/`Lout` label prefix of the shared buffer (the part a
    /// persisted blob stores; inverted sections are derived).
    pub fn label_data(&self) -> &[NodeId] {
        &self.data[..self.lout.off[self.n] as usize]
    }

    /// Distance annotations parallel to [`FrozenCover::label_data`], when
    /// frozen from a distance-aware cover.
    pub fn label_dists(&self) -> Option<&[u32]> {
        self.dist.as_deref()
    }

    /// The 2-hop reachability test `u →* v` (reflexive), allocation-free.
    /// Negative probes usually exit on the signature filter — two loads and
    /// an AND — without scanning any row.
    pub fn connected(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return true;
        }
        if u as usize >= self.n || v as usize >= self.n {
            return false;
        }
        if self.sig_out[u as usize] & self.sig_in[v as usize] == 0 {
            return false;
        }
        let lout_u = self.lout(u);
        let lin_v = self.lin(v);
        if lout_u.binary_search(&v).is_ok() || lin_v.binary_search(&u).is_ok() {
            return true;
        }
        sorted_intersects(lout_u, lin_v)
    }

    /// Batched reachability kernel for §3.4-style join probes: writes
    /// `out[i] = connected(pairs[i].0, pairs[i].1)`, reusing the caller's
    /// buffer. Equivalent to probing one by one, without per-probe call
    /// overhead in the serving loop.
    pub fn connected_many(&self, pairs: &[(NodeId, NodeId)], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(pairs.len());
        out.extend(pairs.iter().map(|&(u, v)| self.connected(u, v)));
    }

    /// Shortest link distance `u →* v` (`None` = unreachable). Requires
    /// distance annotations ([`FrozenCover::from_distance_cover`]); covers
    /// without them report `None` for `u != v`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        let dist = self.dist.as_deref()?;
        if u as usize >= self.n || v as usize >= self.n {
            return None;
        }
        let (lr, or) = (self.lin.row(v), self.lout.row(u));
        let (lin_v, lout_u) = (&self.data[lr.clone()], &self.data[or.clone()]);
        let (lin_d, lout_d) = (&dist[lr], &dist[or]);
        let mut best: Option<u32> = None;
        let mut consider = |d: u32| best = Some(best.map_or(d, |b| b.min(d)));
        if let Ok(pos) = lout_u.binary_search(&v) {
            consider(lout_d[pos]);
        }
        if let Ok(pos) = lin_v.binary_search(&u) {
            consider(lin_d[pos]);
        }
        let (mut i, mut j) = (0, 0);
        while i < lout_u.len() && j < lin_v.len() {
            match lout_u[i].cmp(&lin_v[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    consider(lout_d[i] + lin_d[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// All descendants of `u` (including `u`), sorted + deduped into the
    /// caller's buffer (reuse the buffer across calls); the enumeration
    /// kernel of [`LabelSource::descendants_into`].
    pub fn descendants_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        LabelSource::descendants_into(self, u, out)
    }

    /// All ancestors of `u` (including `u`), sorted + deduped into the
    /// caller's buffer.
    pub fn ancestors_into(&self, u: NodeId, out: &mut Vec<NodeId>) {
        LabelSource::ancestors_into(self, u, out)
    }

    /// All descendants of `u` (including `u`), sorted.
    pub fn descendants(&self, u: NodeId) -> Vec<NodeId> {
        LabelSource::descendants(self, u)
    }

    /// All ancestors of `u` (including `u`), sorted.
    pub fn ancestors(&self, u: NodeId) -> Vec<NodeId> {
        LabelSource::ancestors(self, u)
    }

    /// Rebuilds the mutable cover (no re-sorting: rows are stored sorted).
    pub fn thaw(&self) -> TwoHopCover {
        TwoHopCover::from_sorted_label_rows(
            (0..self.n as NodeId)
                .map(|v| self.lin(v).to_vec())
                .collect(),
            (0..self.n as NodeId)
                .map(|v| self.lout(v).to_vec())
                .collect(),
        )
    }

    /// Rebuilds the mutable distance-aware cover, when annotations are
    /// stored.
    pub fn thaw_distance(&self) -> Option<DistanceCover> {
        let dist = self.dist.as_deref()?;
        let annotated = |range: std::ops::Range<usize>| -> Vec<(u32, u32)> {
            self.data[range.clone()]
                .iter()
                .copied()
                .zip(dist[range].iter().copied())
                .collect()
        };
        Some(DistanceCover::from_sorted_label_rows(
            (0..self.n as NodeId)
                .map(|v| annotated(self.lin.row(v)))
                .collect(),
            (0..self.n as NodeId)
                .map(|v| annotated(self.lout.row(v)))
                .collect(),
        ))
    }
}

impl LabelSource for FrozenCover {
    fn connected(&self, u: NodeId, v: NodeId) -> bool {
        FrozenCover::connected(self, u, v)
    }

    fn num_nodes(&self) -> usize {
        FrozenCover::num_nodes(self)
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
            nodes: self.n,
            lin_entries: self.lin.off[self.n] as usize,
            lout_entries: (self.lout.off[self.n] - self.lin.off[self.n]) as usize,
        }
    }
}

/// One source row during freezing: plain centers or `(center, dist)` pairs.
enum LabelRow<'a> {
    Plain(&'a [NodeId]),
    Annotated(&'a [(u32, u32)]),
}

impl LabelRow<'_> {
    fn append_to(&self, data: &mut Vec<NodeId>, dist: &mut Vec<u32>) {
        match self {
            LabelRow::Plain(row) => data.extend_from_slice(row),
            LabelRow::Annotated(row) => {
                data.extend(row.iter().map(|&(c, _)| c));
                dist.extend(row.iter().map(|&(_, d)| d));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CoverBuilder;
    use hopi_graph::{DiGraph, DistanceClosure, TransitiveClosure};
    use rand::prelude::*;

    /// Cover for the path 0 -> 1 -> 2 with center 1.
    fn path_cover() -> TwoHopCover {
        let mut c = TwoHopCover::with_nodes(3);
        c.add_out(0, 1);
        c.add_in(2, 1);
        c
    }

    fn random_cover(seed: u64, n: u32, m: usize) -> (TwoHopCover, DiGraph) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DiGraph::new();
        g.ensure_node(n - 1);
        for _ in 0..m {
            g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        let cover = CoverBuilder::new(&TransitiveClosure::from_graph(&g)).build();
        (cover, g)
    }

    #[test]
    fn matches_live_cover_on_path() {
        let live = path_cover();
        let frozen = FrozenCover::from_cover(&live);
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(frozen.connected(u, v), live.connected(u, v), "({u},{v})");
            }
            assert_eq!(frozen.descendants(u), live.descendants(u));
            assert_eq!(frozen.ancestors(u), live.ancestors(u));
            assert_eq!(frozen.lin(u), live.lin(u));
            assert_eq!(frozen.lout(u), live.lout(u));
        }
        assert_eq!(frozen.size(), live.size());
        assert!(!frozen.with_dist());
    }

    #[test]
    fn matches_live_cover_randomized() {
        for seed in [1u64, 7, 42] {
            let (live, _) = random_cover(seed, 24, 60);
            let frozen = FrozenCover::from_cover(&live);
            for u in 0..24 {
                for v in 0..24 {
                    assert_eq!(frozen.connected(u, v), live.connected(u, v), "({u},{v})");
                }
                assert_eq!(frozen.descendants(u), live.descendants(u), "desc {u}");
                assert_eq!(frozen.ancestors(u), live.ancestors(u), "anc {u}");
                let mut hin = live.holders_in(u).to_vec();
                hin.sort_unstable();
                assert_eq!(frozen.holders_in(u), hin, "holders_in {u}");
            }
        }
    }

    #[test]
    fn out_of_range_nodes_are_isolated() {
        let frozen = FrozenCover::from_cover(&path_cover());
        assert!(frozen.connected(99, 99));
        assert!(!frozen.connected(0, 99));
        assert!(!frozen.connected(99, 0));
        assert_eq!(frozen.descendants(99), vec![99]);
        assert_eq!(frozen.distance(99, 99), Some(0));
    }

    #[test]
    fn connected_many_matches_scalar() {
        let (live, _) = random_cover(3, 16, 40);
        let frozen = FrozenCover::from_cover(&live);
        let pairs: Vec<(u32, u32)> = (0..16).flat_map(|u| (0..16).map(move |v| (u, v))).collect();
        let mut out = Vec::new();
        frozen.connected_many(&pairs, &mut out);
        for (&(u, v), &got) in pairs.iter().zip(&out) {
            assert_eq!(got, live.connected(u, v), "({u},{v})");
        }
    }

    #[test]
    fn distance_annotations_survive_freezing() {
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
            g.add_edge(u, v);
        }
        let dc = DistanceClosure::from_graph(&g);
        let live = crate::DistanceCoverBuilder::new(&dc).build();
        let frozen = FrozenCover::from_distance_cover(&live);
        assert!(frozen.with_dist());
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(frozen.distance(u, v), live.distance(u, v), "({u},{v})");
                assert_eq!(frozen.connected(u, v), live.connected(u, v));
            }
        }
    }

    #[test]
    fn thaw_roundtrips() {
        let (live, _) = random_cover(11, 20, 50);
        let frozen = FrozenCover::from_cover(&live);
        let thawed = frozen.thaw();
        thawed.check_invariants();
        assert_eq!(thawed.size(), live.size());
        for u in 0..20 {
            assert_eq!(thawed.lin(u), live.lin(u));
            assert_eq!(thawed.lout(u), live.lout(u));
        }
    }

    #[test]
    fn thaw_distance_roundtrips() {
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (1, 2), (0, 3), (3, 2)] {
            g.add_edge(u, v);
        }
        let dc = DistanceClosure::from_graph(&g);
        let live = crate::DistanceCoverBuilder::new(&dc).build();
        let frozen = FrozenCover::from_distance_cover(&live);
        let thawed = frozen.thaw_distance().expect("annotations stored");
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(thawed.distance(u, v), live.distance(u, v), "({u},{v})");
            }
        }
        assert!(FrozenCover::from_cover(&path_cover())
            .thaw_distance()
            .is_none());
    }

    #[test]
    fn label_csr_roundtrip_and_validation() {
        let (live, _) = random_cover(5, 12, 30);
        let frozen = FrozenCover::from_cover(&live);
        let rebuilt = FrozenCover::from_label_csr(
            frozen.lin_offsets().to_vec(),
            frozen.lout_offsets().to_vec(),
            frozen.label_data().to_vec(),
            None,
        )
        .expect("valid CSR");
        for u in 0..12 {
            assert_eq!(rebuilt.lin(u), frozen.lin(u));
            assert_eq!(rebuilt.lout(u), frozen.lout(u));
            assert_eq!(rebuilt.holders_in(u), frozen.holders_in(u));
            assert_eq!(rebuilt.holders_out(u), frozen.holders_out(u));
        }
        // Corruptions are rejected.
        assert!(FrozenCover::from_label_csr(vec![0, 1], vec![1], vec![0], None).is_err());
        assert!(FrozenCover::from_label_csr(vec![0, 2], vec![2, 2], vec![1, 0], None).is_err());
        assert!(FrozenCover::from_label_csr(vec![0, 1], vec![1, 1], vec![7], None).is_err());
        assert!(
            FrozenCover::from_label_csr(vec![0, 0], vec![0, 0], vec![], Some(vec![1])).is_err()
        );
    }

    #[test]
    fn marking_half_covers_the_set() {
        let (live, _) = random_cover(9, 18, 45);
        let frozen = FrozenCover::from_cover(&live);
        for u in 0..18 {
            let mut v = Vec::new();
            frozen.mark_descendants(u, |x| v.push(x));
            v.sort_unstable();
            v.dedup();
            assert_eq!(v, live.descendants(u));
            let mut a = Vec::new();
            frozen.mark_ancestors(u, |x| a.push(x));
            a.sort_unstable();
            a.dedup();
            assert_eq!(a, live.ancestors(u));
        }
    }
}
