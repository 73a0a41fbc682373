//! Immutable CSR snapshot of a 2-hop cover — the read-optimized serving
//! form.
//!
//! The mutable [`TwoHopCover`] keeps one heap `Vec` per node and per
//! inverted-center row; every query chases pointers. A [`FrozenCover`]
//! freezes the same labels into four sections (`Lin`, `Lout` and both
//! inverted directions), each a table of **row blocks**: block `k` holds
//! the rows of nodes `k·B .. (k+1)·B` ([`FrozenCover::BLOCK_ROWS`]) in one
//! allocation, local offsets first, then the rows' data. A row never spans
//! a block, so every row is still one contiguous slice and:
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
//! rebuilds the blocks holding a row the mutable cover's journal lists as
//! edited and shares every other block with its predecessor, so a publish
//! writes O(delta) bytes; the result equals what a full freeze would build.
//! Freezing is one-way by construction, but [`FrozenCover::thaw`] /
//! [`FrozenCover::thaw_distance`] rebuild the mutable forms without any
//! re-sorting — rows are stored sorted — which is how a persisted frozen
//! blob is reopened for maintenance.

use crate::cover::{sorted_intersects, DirtyRows, NodeId, TwoHopCover};
use crate::distance::DistanceCover;
use crate::source::{CoverStats, LabelSource};
use std::ops::Range;
use std::sync::Arc;

/// Rows per block: a power of two, so a node's block and slot are a shift
/// and a mask. Larger blocks copy more bytes per patch; smaller ones cost
/// more reference-count bumps per publish (DESIGN.md, "Publishing a
/// snapshot").
const B: usize = 256;
const SHIFT: u32 = B.trailing_zeros();
/// Words of a block's local offset table (`B + 1`, starting at 0).
const OFFSETS: usize = B + 1;
/// Where a label block's row data starts: after its offsets and its `B`
/// 64-bit row signatures, two words each.
const LABEL_HEAD: usize = OFFSETS + 2 * B;
/// Where a holder block's row data starts.
const HOLDER_HEAD: usize = OFFSETS;

/// One section of a frozen cover as a table of row blocks. Block `k` is one
/// allocation of `HEAD` header words — the `B + 1` local offsets of its
/// rows, then (label sections) their signatures — followed by the rows'
/// data and, in a distance-annotated label section, their distances in
/// parallel. Slots past the cover's last node are empty rows whose
/// signature is that of an empty row, so a block looks the same whether or
/// not the cover has grown into it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Section<const HEAD: usize> {
    blocks: Vec<Arc<[u32]>>,
}

/// `Lin` or `Lout`: rows carry signatures.
type Labels = Section<LABEL_HEAD>;
/// `inv_in` or `inv_out`.
type Holders = Section<HOLDER_HEAD>;

impl<const HEAD: usize> Section<HEAD> {
    /// The block holding `v`'s row and `v`'s slot in it; an empty block
    /// past the table's end.
    #[inline]
    fn slot(&self, v: NodeId) -> (&[u32], usize) {
        let v = v as usize;
        match self.blocks.get(v >> SHIFT) {
            Some(block) => (block, v & (B - 1)),
            None => (&[], 0),
        }
    }

    /// Word range of the row in `slot` of `block`.
    #[inline]
    fn span(block: &[u32], slot: usize) -> Range<usize> {
        match block.get(slot..slot + 2) {
            Some(&[lo, hi]) => HEAD + lo as usize..HEAD + hi as usize,
            _ => 0..0,
        }
    }

    #[inline]
    fn row_in(block: &[u32], slot: usize) -> &[NodeId] {
        block.get(Self::span(block, slot)).unwrap_or_default()
    }

    #[inline]
    fn row(&self, v: NodeId) -> &[NodeId] {
        let (block, slot) = self.slot(v);
        Self::row_in(block, slot)
    }

    /// Entries stored in `block` (its last local offset).
    fn entries_in(block: &[u32]) -> usize {
        block.get(B).map_or(0, |&end| end as usize)
    }

    /// The distances parallel to `v`'s row (empty without annotations).
    fn dists(&self, v: NodeId) -> &[u32] {
        let (block, slot) = self.slot(v);
        let (row, len) = (Self::span(block, slot), Self::entries_in(block));
        block
            .get(row.start + len..row.end + len)
            .unwrap_or_default()
    }

    fn entries(&self) -> usize {
        self.blocks.iter().map(|b| Self::entries_in(b)).sum()
    }

    /// Each block's row data in turn (annotated: `dists` selects the
    /// distances instead).
    fn payloads(&self, dists: bool) -> impl Iterator<Item = &[u32]> {
        self.blocks.iter().map(move |block| {
            let len = Self::entries_in(block);
            let start = HEAD + if dists { len } else { 0 };
            block.get(start..start + len).unwrap_or_default()
        })
    }

    /// Blocks a cover of `n` nodes needs.
    fn blocks_for(n: usize) -> usize {
        n.div_ceil(B)
    }

    /// The section of `n` rows, `row(v)` each.
    fn build<'a>(n: usize, row: impl Fn(NodeId) -> LabelRow<'a>) -> Self {
        let mut w = BlockWriter::<HEAD>::default();
        let blocks = (0..Self::blocks_for(n))
            .map(|k| {
                w.start(k * B);
                for v in k * B..n.min((k + 1) * B) {
                    w.push(row(v as NodeId));
                }
                w.finish()
            })
            .collect();
        Section { blocks }
    }

    /// The section of the CSR rows `off` delimits in `data` (absolute
    /// offsets, `n + 1` of them), with the parallel distances when given.
    /// A block's rows are one run of `data`, copied at once. The caller
    /// has checked that the offsets tile `data`.
    fn from_csr(off: &[u32], data: &[NodeId], dist: Option<&[u32]>) -> Self {
        let n = off.len().saturating_sub(1);
        let mut w = BlockWriter::<HEAD>::default();
        let blocks = (0..Self::blocks_for(n))
            .map(|k| {
                w.start(k * B);
                let ends = off.get(k * B..=n.min((k + 1) * B)).unwrap_or_default();
                w.push_run(ends, data, dist, None);
                w.finish()
            })
            .collect();
        Section { blocks }
    }

    /// This section grown to `n` rows, with the rows in `dirty` (sorted,
    /// deduplicated) read through `row` and sorted. Every block that holds
    /// no dirty row is shared with `self`; the others are rebuilt, their
    /// clean rows and signatures copied from `self` (empty rows for slots
    /// `self` never had).
    fn patched<'a>(
        &self,
        n: usize,
        dirty: &[NodeId],
        row: impl Fn(NodeId) -> &'a [NodeId],
    ) -> Self {
        let mut w = BlockWriter::<HEAD>::default();
        let mut dirty = dirty
            .iter()
            .map(|&d| d as usize)
            .filter(|&d| d < n)
            .peekable();
        let blocks = (0..Self::blocks_for(n))
            .map(|k| {
                let end = (k + 1) * B;
                let clean = dirty.peek().is_none_or(|&d| d >= end);
                if let Some(block) = self.blocks.get(k).filter(|_| clean) {
                    return block.clone();
                }
                // Clean runs between dirty rows are copied in one piece.
                let (first, stop) = (k * B, n.min(end));
                let prev = self.blocks.get(k).map(|b| &**b).unwrap_or_default();
                w.start(first);
                let mut next = first;
                while next < stop {
                    let d = dirty.next_if(|&d| d < stop);
                    let run_end = d.unwrap_or(stop);
                    w.copy_rows(prev, next - first..run_end - first);
                    if let Some(d) = d {
                        w.push(LabelRow::Plain(row(d as NodeId)));
                        w.sort_last();
                    }
                    next = run_end + 1;
                }
                w.finish()
            })
            .collect();
        Section { blocks }
    }

    /// One flag per block: the very allocation `prev` holds at its index.
    /// Adds the bytes of the other blocks to `fresh`.
    fn shared_with(&self, prev: &Self, fresh: &mut usize) -> Vec<bool> {
        let shared: Vec<bool> = self
            .blocks
            .iter()
            .enumerate()
            .map(|(k, block)| prev.blocks.get(k).is_some_and(|p| Arc::ptr_eq(p, block)))
            .collect();
        *fresh += self
            .blocks
            .iter()
            .zip(&shared)
            .filter(|(_, &shared)| !shared)
            .map(|(block, _)| 4 * block.len())
            .sum::<usize>();
        shared
    }
}

impl Labels {
    /// Signature of the row in `slot` of `block`.
    #[inline]
    fn sig(block: &[u32], slot: usize) -> u64 {
        match block.get(OFFSETS + 2 * slot..OFFSETS + 2 * slot + 2) {
            Some(&[lo, hi]) => u64::from(lo) | u64::from(hi) << 32,
            _ => 0,
        }
    }
}

/// Assembles the blocks of one section, one at a time, in a buffer reused
/// across blocks.
#[derive(Default)]
struct BlockWriter<const HEAD: usize> {
    /// Header and row data of the block being written.
    words: Vec<u32>,
    /// Its distances, when annotated.
    dists: Vec<u32>,
    /// Node of slot 0.
    first: usize,
    /// Slots written.
    rows: usize,
}

impl<const HEAD: usize> BlockWriter<HEAD> {
    /// Starts the block whose slot 0 is node `first`.
    fn start(&mut self, first: usize) {
        self.words.clear();
        self.words.resize(HEAD, 0);
        self.dists.clear();
        self.first = first;
        self.rows = 0;
    }

    /// Appends the next slot's row.
    fn push(&mut self, row: LabelRow<'_>) {
        row.append_to(&mut self.words, &mut self.dists);
        self.seal(self.words.len() - HEAD, None);
    }

    /// Appends the rows that the absolute offsets `ends` delimit in `data`
    /// (the first offset starts the first row), with their distances when
    /// given, in one copy. In a label section, signatures are copied from
    /// `signed` — the block at the same index the rows come from — when
    /// given, and computed otherwise.
    fn push_run(
        &mut self,
        ends: &[u32],
        data: &[NodeId],
        dist: Option<&[u32]>,
        signed: Option<&[u32]>,
    ) {
        let (Some(&lo), Some(&hi)) = (ends.first(), ends.last()) else {
            return;
        };
        let base = self.words.len() - HEAD;
        let run = lo as usize..hi as usize;
        self.words
            .extend_from_slice(data.get(run.clone()).unwrap_or_default());
        if let Some(dist) = dist {
            self.dists
                .extend_from_slice(dist.get(run).unwrap_or_default());
        }
        for &end in ends.iter().skip(1) {
            let sig = signed.map(|block| Labels::sig(block, self.rows));
            self.seal(base + (end - lo) as usize, sig);
        }
    }

    /// Appends the rows of `slots` from `prev`, the block at the same
    /// index of an earlier cover, signatures included. Without such a
    /// block (`prev` empty) the rows are empty.
    fn copy_rows(&mut self, prev: &[u32], slots: Range<usize>) {
        match prev.get(slots.start..=slots.end) {
            Some(ends) => {
                let data = prev.get(HEAD..).unwrap_or_default();
                self.push_run(ends, data, None, Some(prev));
            }
            None => {
                let end = self.words.len() - HEAD;
                for _ in slots {
                    self.seal(end, None);
                }
            }
        }
    }

    /// Sorts the row pushed last (holder rows live in the mutable cover in
    /// edit order). Its signature does not depend on the order.
    fn sort_last(&mut self) {
        let slot = self.rows.saturating_sub(1);
        let start = HEAD + self.words.get(slot).map_or(0, |&lo| lo as usize);
        if let Some(row) = self.words.get_mut(start..) {
            row.sort_unstable();
        }
    }

    /// Ends the current slot's row at local offset `end`: records the
    /// offset and, in a label section, the row's signature (`sig`, or
    /// computed from the row), and moves to the next slot.
    fn seal(&mut self, end: usize, sig: Option<u64>) {
        let slot = self.rows;
        if let Some(off) = self.words.get_mut(slot + 1) {
            *off = end as u32;
        }
        if HEAD == LABEL_HEAD {
            let v = (self.first + slot) as NodeId;
            let sig =
                sig.unwrap_or_else(|| row_signature(v, Section::<HEAD>::row_in(&self.words, slot)));
            if let Some(pair) = self
                .words
                .get_mut(OFFSETS + 2 * slot..OFFSETS + 2 * slot + 2)
            {
                pair.copy_from_slice(&[sig as u32, (sig >> 32) as u32]);
            }
        }
        self.rows += 1;
    }

    /// Pads the slots past the last row with empty rows and returns the
    /// block.
    fn finish(&mut self) -> Arc<[u32]> {
        let end = self.words.len() - HEAD;
        while self.rows < B {
            self.seal(end, None);
        }
        self.words.extend_from_slice(&self.dists);
        Arc::from(self.words.as_slice())
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
    /// `Lin` rows, with the signature of `Lin(v) ∪ {v}` per node.
    lin: Labels,
    /// `Lout` rows, with the signature of `Lout(u) ∪ {u}` per node. The
    /// signatures are a Bloom-style join filter: a probe whose signatures
    /// do not intersect is provably unreachable, skipping the row scans.
    lout: Labels,
    /// `inv_in` rows: nodes holding `c` in `Lin` (`c` reaches them).
    inv_in: Holders,
    /// `inv_out` rows: nodes holding `c` in `Lout` (they reach `c`).
    inv_out: Holders,
    /// Whether the label blocks carry distance annotations.
    with_dist: bool,
    lin_entries: usize,
    lout_entries: usize,
    n: usize,
    /// Stamp of the journal take this cover was frozen at (see
    /// [`TwoHopCover::take_journal`]); 0 when frozen outside the journal.
    /// Identifies a state, not content: ignored by `==`.
    stamp: u64,
}

/// Equality of the frozen *content* — every block's rows, signatures and
/// distances — which is what [`FrozenCover::patched`] guarantees against
/// [`FrozenCover::from_cover`]. Shared blocks compare by pointer first.
impl PartialEq for FrozenCover {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.with_dist == other.with_dist
            && self.lin_entries == other.lin_entries
            && self.lout_entries == other.lout_entries
            && self.lin == other.lin
            && self.lout == other.lout
            && self.inv_in == other.inv_in
            && self.inv_out == other.inv_out
    }
}

/// How a frozen cover's blocks relate to an earlier one's (see
/// [`FrozenCover::sharing`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BlockSharing {
    /// For `Lin`, `Lout`, `inv_in` and `inv_out` in turn, one flag per
    /// block: set when the block is the very allocation the earlier cover
    /// holds at the same index.
    pub shared: [Vec<bool>; 4],
    /// Bytes of the blocks that are not shared: what producing this cover
    /// wrote beyond what the earlier one already held.
    pub fresh_bytes: usize,
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

impl FrozenCover {
    /// Rows per block of every section.
    pub const BLOCK_ROWS: usize = B;

    /// Freezes a mutable cover into the CSR form.
    pub fn from_cover(cover: &TwoHopCover) -> Self {
        let n = cover.num_nodes();
        Self::from_labels(
            n,
            Labels::build(n, |v| LabelRow::Plain(cover.lin(v))),
            Labels::build(n, |v| LabelRow::Plain(cover.lout(v))),
            false,
        )
    }

    /// Freezes a distance-aware cover, keeping the distance annotations so
    /// [`FrozenCover::distance`] answers the §5.1 `MIN(DIST + DIST)` query.
    pub fn from_distance_cover(cover: &DistanceCover) -> Self {
        let n = cover.num_nodes();
        Self::from_labels(
            n,
            Labels::build(n, |v| LabelRow::Annotated(cover.lin(v))),
            Labels::build(n, |v| LabelRow::Annotated(cover.lout(v))),
            true,
        )
    }

    /// Largest supported label-entry count: the persisted blob addresses
    /// the `Lin`/`Lout` entries with `u32` offsets, and the inverted
    /// sections hold as many entries again.
    pub const MAX_LABEL_ENTRIES: usize = (u32::MAX / 2) as usize;

    /// The cover of `n` nodes with these label sections; the inverted
    /// sections are derived by counting.
    fn from_labels(n: usize, lin: Labels, lout: Labels, with_dist: bool) -> Self {
        let (lin_entries, lout_entries) = (lin.entries(), lout.entries());
        assert!(
            lin_entries + lout_entries <= Self::MAX_LABEL_ENTRIES,
            "cover has {} label entries; FrozenCover supports at most {}",
            lin_entries + lout_entries,
            Self::MAX_LABEL_ENTRIES
        );
        FrozenCover {
            inv_in: invert(n, &lin, lin_entries),
            inv_out: invert(n, &lout, lout_entries),
            lin,
            lout,
            with_dist,
            lin_entries,
            lout_entries,
            n,
            stamp: 0,
        }
    }

    /// Freezes `cover` as the successor of `prev`: the result equals
    /// [`FrozenCover::from_cover`]`(cover)`, but only the blocks holding a
    /// row that `dirty` — the journal taken from `cover` — lists as edited
    /// are rebuilt: their dirty rows come from the mutable cover (holder
    /// rows sorted on the way, since the mutable cover keeps them in edit
    /// order), their clean rows and signatures from `prev`. Every other
    /// block is shared with `prev` ([`FrozenCover::sharing`]).
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
        FrozenCover {
            lin: prev.lin.patched(n, &dirty.lin, |v| cover.lin(v)),
            lout: prev.lout.patched(n, &dirty.lout, |v| cover.lout(v)),
            inv_in: prev
                .inv_in
                .patched(n, &dirty.inv_in, |c| cover.holders_in(c)),
            inv_out: prev
                .inv_out
                .patched(n, &dirty.inv_out, |c| cover.holders_out(c)),
            with_dist: false,
            lin_entries: cover.lin_entry_count(),
            lout_entries: cover.lout_entry_count(),
            n,
            stamp: dirty.stamp,
        }
    }

    /// Which of this cover's blocks are shared with `prev`, and how many
    /// bytes the others hold. Against [`FrozenCover::default`], every block
    /// is fresh: `fresh_bytes` is then the whole cover.
    pub fn sharing(&self, prev: &FrozenCover) -> BlockSharing {
        let mut fresh_bytes = 0;
        let shared = [
            self.lin.shared_with(&prev.lin, &mut fresh_bytes),
            self.lout.shared_with(&prev.lout, &mut fresh_bytes),
            self.inv_in.shared_with(&prev.inv_in, &mut fresh_bytes),
            self.inv_out.shared_with(&prev.inv_out, &mut fresh_bytes),
        ];
        BlockSharing {
            shared,
            fresh_bytes,
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
        let dist = dist.as_deref();
        Ok(Self::from_labels(
            n,
            Labels::from_csr(&lin_off, &labels, dist),
            Labels::from_csr(&lout_off, &labels, dist),
            dist.is_some(),
        ))
    }

    /// Streams the persisted label sections — what
    /// [`FrozenCover::from_label_csr`] takes back — as consecutive runs of
    /// words: the `n + 1` absolute `Lin` offsets, the `n + 1` `Lout`
    /// offsets (continuing where `Lin`'s end), the `Lin` then `Lout` rows,
    /// and, when annotated, their distances in the same order. Row data is
    /// handed out block by block, straight from the blocks.
    pub fn write_label_csr(&self, mut emit: impl FnMut(&[u32])) {
        let mut at = 0u32;
        let mut ends = Vec::with_capacity(B);
        for section in [&self.lin, &self.lout] {
            emit(std::slice::from_ref(&at));
            for (k, block) in section.blocks.iter().enumerate() {
                let rows = self.n.saturating_sub(k * B).min(B);
                ends.clear();
                ends.extend(
                    block
                        .get(1..=rows)
                        .unwrap_or_default()
                        .iter()
                        .map(|&end| at + end),
                );
                emit(&ends);
                at += Labels::entries_in(block) as u32;
            }
        }
        let columns: &[bool] = if self.with_dist {
            &[false, true]
        } else {
            &[false]
        };
        for &dists in columns {
            for section in [&self.lin, &self.lout] {
                section.payloads(dists).for_each(&mut emit);
            }
        }
    }

    /// Number of node slots.
    #[inline]
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
        self.lin_entries + self.lout_entries
    }

    /// Whether distance annotations are stored.
    pub fn with_dist(&self) -> bool {
        self.with_dist
    }

    /// The stored `Lin(v)` (sorted, without the implicit `v` itself).
    #[inline]
    pub fn lin(&self, v: NodeId) -> &[NodeId] {
        self.lin.row(v)
    }

    /// The stored `Lout(v)` (sorted, without the implicit `v` itself).
    #[inline]
    pub fn lout(&self, v: NodeId) -> &[NodeId] {
        self.lout.row(v)
    }

    /// Nodes holding `c` in `Lin` (`c` reaches them), sorted.
    #[inline]
    pub fn holders_in(&self, c: NodeId) -> &[NodeId] {
        self.inv_in.row(c)
    }

    /// Nodes holding `c` in `Lout` (they reach `c`), sorted.
    #[inline]
    pub fn holders_out(&self, c: NodeId) -> &[NodeId] {
        self.inv_out.row(c)
    }

    /// The 2-hop reachability test `u →* v` (reflexive), allocation-free.
    /// Negative probes usually exit on the signature filter — two loads and
    /// an AND — without scanning any row. A node past the last block has no
    /// signature (0) and one in a block's padding an empty row, so
    /// out-of-range nodes need no test of their own.
    #[inline]
    pub fn connected(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return true;
        }
        let (out_block, u_slot) = self.lout.slot(u);
        let (in_block, v_slot) = self.lin.slot(v);
        if Labels::sig(out_block, u_slot) & Labels::sig(in_block, v_slot) == 0 {
            return false;
        }
        let lout_u = Labels::row_in(out_block, u_slot);
        let lin_v = Labels::row_in(in_block, v_slot);
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
        if !self.with_dist || u as usize >= self.n || v as usize >= self.n {
            return None;
        }
        let (lin_v, lout_u) = (self.lin(v), self.lout(u));
        let (lin_d, lout_d) = (self.lin.dists(v), self.lout.dists(u));
        let mut best: Option<u32> = None;
        let mut consider = |d: u32| best = Some(best.map_or(d, |b| b.min(d)));
        if let Some(&d) = lout_u
            .binary_search(&v)
            .ok()
            .and_then(|pos| lout_d.get(pos))
        {
            consider(d);
        }
        if let Some(&d) = lin_v.binary_search(&u).ok().and_then(|pos| lin_d.get(pos)) {
            consider(d);
        }
        let (mut i, mut j) = (0, 0);
        while let (Some(a), Some(b)) = (lout_u.get(i), lin_v.get(j)) {
            match a.cmp(b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let (Some(&x), Some(&y)) = (lout_d.get(i), lin_d.get(j)) {
                        consider(x + y);
                    }
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
        if !self.with_dist {
            return None;
        }
        let annotated = |section: &Labels, v: NodeId| -> Vec<(u32, u32)> {
            let (row, dists) = (section.row(v), section.dists(v));
            row.iter().copied().zip(dists.iter().copied()).collect()
        };
        Some(DistanceCover::from_sorted_label_rows(
            (0..self.n as NodeId)
                .map(|v| annotated(&self.lin, v))
                .collect(),
            (0..self.n as NodeId)
                .map(|v| annotated(&self.lout, v))
                .collect(),
        ))
    }
}

/// The holder section of the label section `labels` (`entries` entries
/// over `n` nodes), by counting: a stable two-pass bucket fill, so holder
/// lists come out sorted because nodes are scanned in ascending order.
fn invert(n: usize, labels: &Labels, entries: usize) -> Holders {
    let mut off = vec![0u32; n + 1];
    for block in labels.payloads(false) {
        for &c in block {
            if let Some(count) = off.get_mut(c as usize + 1) {
                *count += 1;
            }
        }
    }
    let mut total = 0;
    for slot in off.iter_mut() {
        total += *slot;
        *slot = total;
    }
    let mut data = vec![0; entries];
    let mut cursor = off.clone();
    for v in 0..n as NodeId {
        for &c in labels.row(v) {
            if let Some(at) = cursor.get_mut(c as usize) {
                if let Some(slot) = data.get_mut(*at as usize) {
                    *slot = v;
                }
                *at += 1;
            }
        }
    }
    Holders::from_csr(&off, &data, None)
}

impl LabelSource for FrozenCover {
    #[inline]
    fn connected(&self, u: NodeId, v: NodeId) -> bool {
        FrozenCover::connected(self, u, v)
    }

    #[inline]
    fn num_nodes(&self) -> usize {
        FrozenCover::num_nodes(self)
    }

    #[inline]
    fn lin_row(&self, v: NodeId) -> &[NodeId] {
        self.lin(v)
    }

    #[inline]
    fn lout_row(&self, v: NodeId) -> &[NodeId] {
        self.lout(v)
    }

    #[inline]
    fn holders_in_row(&self, c: NodeId) -> &[NodeId] {
        self.holders_in(c)
    }

    #[inline]
    fn holders_out_row(&self, c: NodeId) -> &[NodeId] {
        self.holders_out(c)
    }

    fn cover_stats(&self) -> CoverStats {
        CoverStats {
            nodes: self.n,
            lin_entries: self.lin_entries,
            lout_entries: self.lout_entries,
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

    /// `frozen` through [`FrozenCover::write_label_csr`] and back.
    fn from_written_csr(frozen: &FrozenCover) -> FrozenCover {
        let mut words = Vec::new();
        frozen.write_label_csr(|run| words.extend_from_slice(run));
        let (n, len) = (frozen.num_nodes(), frozen.size());
        let (lin_off, rest) = words.split_at(n + 1);
        let (lout_off, rest) = rest.split_at(n + 1);
        let (labels, dist) = rest.split_at(len);
        assert_eq!(dist.len(), if frozen.with_dist() { len } else { 0 });
        FrozenCover::from_label_csr(
            lin_off.to_vec(),
            lout_off.to_vec(),
            labels.to_vec(),
            frozen.with_dist().then(|| dist.to_vec()),
        )
        .expect("valid CSR")
    }

    #[test]
    fn label_csr_roundtrip_and_validation() {
        let (live, _) = random_cover(5, 12, 30);
        let frozen = FrozenCover::from_cover(&live);
        let rebuilt = from_written_csr(&frozen);
        assert_eq!(rebuilt, frozen);
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
    fn covers_spanning_several_blocks_roundtrip() {
        // Three and a bit blocks: rows on both sides of every block
        // boundary, a last block that is mostly padding.
        let n = 3 * FrozenCover::BLOCK_ROWS as u32 + 17;
        let (live, _) = random_cover(21, n, 4 * n as usize);
        let frozen = FrozenCover::from_cover(&live);
        assert_eq!(frozen.size(), live.size());
        assert_eq!(frozen.cover_stats().lin_entries, live.lin_entry_count());
        for u in 0..n {
            assert_eq!(frozen.lin(u), live.lin(u), "lin {u}");
            assert_eq!(frozen.lout(u), live.lout(u), "lout {u}");
            let mut holders = live.holders_out(u).to_vec();
            holders.sort_unstable();
            assert_eq!(frozen.holders_out(u), holders, "holders_out {u}");
        }
        for u in (0..n).step_by(37) {
            for v in (0..n).step_by(11) {
                assert_eq!(frozen.connected(u, v), live.connected(u, v), "({u},{v})");
            }
        }
        assert!(frozen.lin(n).is_empty() && frozen.lin(n + 5_000).is_empty());
        assert_eq!(from_written_csr(&frozen), frozen);

        let mut g = DiGraph::new();
        g.ensure_node(n - 1);
        for u in 0..n - 1 {
            g.add_edge(u, (u * 7 + 1) % n);
        }
        let dc = DistanceClosure::from_graph(&g);
        let annotated =
            FrozenCover::from_distance_cover(&crate::DistanceCoverBuilder::new(&dc).build());
        assert_eq!(from_written_csr(&annotated), annotated);
        let thawed = annotated.thaw_distance().expect("annotations stored");
        for (u, v) in [(0, 1), (0, n - 1), (5, 300), (700, 2)] {
            assert_eq!(annotated.distance(u, v), thawed.distance(u, v), "({u},{v})");
        }
    }

    #[test]
    fn sharing_counts_fresh_blocks() {
        let (live, _) = random_cover(4, 40, 90);
        let frozen = FrozenCover::from_cover(&live);
        let against_nothing = frozen.sharing(&FrozenCover::default());
        assert!(against_nothing.shared.iter().flatten().all(|&s| !s));
        assert!(against_nothing.fresh_bytes > 0);
        let copy = frozen.clone();
        let against_itself = copy.sharing(&frozen);
        assert!(against_itself.shared.iter().flatten().all(|&s| s));
        assert_eq!(against_itself.fresh_bytes, 0);
        // Equal content in other allocations is equal, not shared.
        let refrozen = FrozenCover::from_cover(&live);
        assert_eq!(refrozen, frozen);
        assert_eq!(refrozen.sharing(&frozen), against_nothing);
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
