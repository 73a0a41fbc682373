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
//! A frozen cover optionally carries the distance annotations of paper §5,
//! one per label entry, answering `distance` from the same layout; it is
//! the only form of the distance-aware labels. A serving engine freezes
//! once and then *patches*: [`FrozenCover::patched`] rebuilds the blocks
//! holding a row the mutable cover's journal lists as edited and shares
//! every other block with its predecessor, so a publish writes O(delta)
//! bytes; the result equals what a full freeze would build. An annotated
//! cover changes the same way: [`FrozenCover::successor`] adds
//! `(node, center, dist)` entries, rebuilding only the blocks they edit.
//! [`FrozenCover::thaw`] rebuilds the mutable plain cover without any
//! re-sorting — rows are stored sorted — which is how a persisted frozen
//! blob is reopened for maintenance.

use crate::cover::{sorted_intersects, DirtyRows, NodeId, TwoHopCover};
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

    /// This section grown to `n` rows, with the rows `dirty` yields
    /// (ascending by node, one per node) replacing theirs. Every block that
    /// holds no dirty row is shared with `self`; the others are rebuilt,
    /// their clean rows, signatures and distances copied from `self`
    /// (empty rows for slots `self` never had).
    fn patched<'a>(
        &self,
        n: usize,
        dirty: impl IntoIterator<Item = (NodeId, LabelRow<'a>)>,
    ) -> Self {
        let mut w = BlockWriter::<HEAD>::default();
        let mut dirty = dirty
            .into_iter()
            .filter(|(d, _)| (*d as usize) < n)
            .peekable();
        let blocks = (0..Self::blocks_for(n))
            .map(|k| {
                let end = (k + 1) * B;
                let clean = dirty.peek().is_none_or(|(d, _)| *d as usize >= end);
                if let Some(block) = self.blocks.get(k).filter(|_| clean) {
                    return block.clone();
                }
                // Clean runs between dirty rows are copied in one piece.
                let (first, stop) = (k * B, n.min(end));
                let prev = self.blocks.get(k).map(|b| &**b).unwrap_or_default();
                w.start(first);
                let mut next = first;
                while next < stop {
                    let d = dirty.next_if(|(d, _)| (*d as usize) < stop);
                    let run_end = d.as_ref().map_or(stop, |(d, _)| *d as usize);
                    w.copy_rows(prev, next - first..run_end - first);
                    if let Some((_, row)) = d {
                        w.push(row);
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
    /// The distance `v`'s row stores for center `c`.
    fn dist_to(&self, v: NodeId, c: NodeId) -> Option<u32> {
        let (block, slot) = self.slot(v);
        let row = Self::span(block, slot);
        let pos = block.get(row.clone())?.binary_search(&c).ok()?;
        block
            .get(row.start + Self::entries_in(block) + pos)
            .copied()
    }

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
    /// index of an earlier cover, signatures and distances included.
    /// Without such a block (`prev` empty) the rows are empty.
    fn copy_rows(&mut self, prev: &[u32], slots: Range<usize>) {
        match prev.get(slots.start..=slots.end) {
            Some(ends) => {
                let len = Section::<HEAD>::entries_in(prev);
                let data = prev.get(HEAD..HEAD + len).unwrap_or_default();
                let dists = prev.get(HEAD + len..).filter(|d| !d.is_empty());
                self.push_run(ends, data, dists, Some(prev));
            }
            None => {
                let end = self.words.len() - HEAD;
                for _ in slots {
                    self.seal(end, None);
                }
            }
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

/// An immutable, cache-friendly snapshot of a [`TwoHopCover`], or the
/// distance-annotated cover of paper §5.
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

/// A distance-annotated label entry `(node, center, dist)`: `node` holds
/// `center` at link distance `dist` — from the center in `Lin(node)`, to it
/// in `Lout(node)`.
pub type DistEntry = (NodeId, NodeId, u32);

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
    pub fn patched<'a>(prev: &FrozenCover, cover: &'a TwoHopCover, dirty: &'a DirtyRows) -> Self {
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
        let rows = |dirty: &'a [NodeId], row: fn(&'a TwoHopCover, NodeId) -> &'a [NodeId]| {
            dirty
                .iter()
                .map(move |&v| (v, LabelRow::Unsorted(row(cover, v))))
        };
        FrozenCover {
            lin: prev.lin.patched(n, rows(&dirty.lin, TwoHopCover::lin)),
            lout: prev.lout.patched(n, rows(&dirty.lout, TwoHopCover::lout)),
            inv_in: prev
                .inv_in
                .patched(n, rows(&dirty.inv_in, TwoHopCover::holders_in)),
            inv_out: prev
                .inv_out
                .patched(n, rows(&dirty.inv_out, TwoHopCover::holders_out)),
            with_dist: false,
            lin_entries: cover.lin_entry_count(),
            lout_entries: cover.lout_entry_count(),
            n,
            stamp: dirty.stamp,
        }
    }

    /// The distance-annotated successor of this cover (paper §5 labels,
    /// maintained as §6.1 describes): grown to `n` node slots, or past the
    /// last node an entry names, with every [`DistEntry`] of `lin` added to
    /// `Lin(node)` and of `lout` to `Lout(node)`. A row that holds the
    /// center already keeps the smaller distance; self entries are
    /// implicit and dropped. Only the blocks holding a label row the
    /// entries change or a holder row they grow are rebuilt; every other
    /// block is shared with `self` ([`FrozenCover::sharing`]). `self` is
    /// annotated or empty: the successor of [`FrozenCover::default`] is a
    /// fresh build.
    pub fn successor(&self, n: usize, mut lin: Vec<DistEntry>, mut lout: Vec<DistEntry>) -> Self {
        debug_assert!(
            self.with_dist || self.size() == 0,
            "a plain cover has no distances to keep"
        );
        for entries in [&mut lin, &mut lout] {
            entries.retain(|&(node, center, _)| node != center);
            // Sorted by (node, center, dist): the first of a pair is its
            // minimum.
            entries.sort_unstable();
            entries.dedup_by_key(|&mut (node, center, _)| (node, center));
        }
        let n = lin
            .iter()
            .chain(&lout)
            .map(|&(node, center, _)| node.max(center) as usize + 1)
            .fold(n.max(self.n), usize::max);
        let lin = Edit::of(&self.lin, &self.inv_in, &lin);
        let lout = Edit::of(&self.lout, &self.inv_out, &lout);
        let (lin_entries, lout_entries) =
            (self.lin_entries + lin.added, self.lout_entries + lout.added);
        assert!(
            lin_entries + lout_entries <= Self::MAX_LABEL_ENTRIES,
            "cover has {} label entries; FrozenCover supports at most {}",
            lin_entries + lout_entries,
            Self::MAX_LABEL_ENTRIES
        );
        FrozenCover {
            lin: self.lin.patched(n, lin.label_rows()),
            lout: self.lout.patched(n, lout.label_rows()),
            inv_in: self.inv_in.patched(n, lin.holder_rows()),
            inv_out: self.inv_out.patched(n, lout.holder_rows()),
            with_dist: true,
            lin_entries,
            lout_entries,
            n,
            stamp: 0,
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
        let tiled = lin_off.first() == Some(&0)
            && lout_off.first() == lin_off.last()
            && lout_off.last().map(|&end| end as usize) == Some(labels.len())
            && labels.len() <= Self::MAX_LABEL_ENTRIES;
        if !tiled {
            return Err("offset tables do not tile the label buffer".into());
        }
        if !lin_off.is_sorted() || !lout_off.is_sorted() {
            return Err("offsets must be non-decreasing".into());
        }
        fn spans(off: &[u32]) -> impl Iterator<Item = Range<usize>> + '_ {
            let ends = off.iter().skip(1);
            off.iter()
                .zip(ends)
                .map(|(&lo, &hi)| lo as usize..hi as usize)
        }
        for (i, span) in spans(&lin_off).chain(spans(&lout_off)).enumerate() {
            let row = labels.get(span).unwrap_or_default();
            if !row.is_sorted_by(|a, b| a < b) {
                return Err("label rows must be strictly sorted".into());
            }
            if row.iter().any(|&c| c as usize >= n || c as usize == i % n) {
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

    /// The distances parallel to [`FrozenCover::lin`]: entry `i` is the
    /// distance from the `i`-th center to `v` (empty without annotations).
    pub fn lin_dists(&self, v: NodeId) -> &[u32] {
        self.lin.dists(v)
    }

    /// The distances parallel to [`FrozenCover::lout`]: entry `i` is the
    /// distance from `v` to the `i`-th center (empty without annotations).
    pub fn lout_dists(&self, v: NodeId) -> &[u32] {
        self.lout.dists(v)
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

    /// Shortest link distance `u →* v` (`None` = unreachable): the §5.1
    /// `MIN(LOUT.DIST + LIN.DIST)` query. Requires distance annotations
    /// ([`FrozenCover::successor`]); covers without them report `None` for
    /// `u != v`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return Some(0);
        }
        if !self.with_dist || u as usize >= self.n || v as usize >= self.n {
            return None;
        }
        let (lin_v, lout_u) = (self.lin(v), self.lout(u));
        let (lin_d, lout_d) = (self.lin.dists(v), self.lout.dists(u));
        let direct = [self.lout.dist_to(u, v), self.lin.dist_to(v, u)];
        let mut best = direct.into_iter().flatten().min();
        let (mut i, mut j) = (0, 0);
        while let (Some(a), Some(b)) = (lout_u.get(i), lin_v.get(j)) {
            match a.cmp(b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let (Some(&x), Some(&y)) = (lout_d.get(i), lin_d.get(j)) {
                        best = Some(best.map_or(x + y, |b| b.min(x + y)));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Descendants of `u` (`u` itself at 0) with their shortest distances,
    /// sorted by node.
    pub fn descendants_with_distance(&self, u: NodeId) -> Vec<(NodeId, u32)> {
        reach_with_distance(self.n, u, &self.lout, &self.inv_in, &self.lin)
    }

    /// Ancestors of `u` (`u` itself at 0) with their shortest distances,
    /// sorted by node.
    pub fn ancestors_with_distance(&self, u: NodeId) -> Vec<(NodeId, u32)> {
        reach_with_distance(self.n, u, &self.lin, &self.inv_out, &self.lout)
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

/// The nodes `u` reaches through the centers of its `labels` row (and
/// itself, the implicit center) and the holders of each center in
/// `holders`, at their shortest distances: `u`'s distance to the center
/// plus the center's distance in the holder's `other` row. Sorted by node;
/// `n` bounds the nodes of the cover.
fn reach_with_distance(
    n: usize,
    u: NodeId,
    labels: &Labels,
    holders: &Holders,
    other: &Labels,
) -> Vec<(NodeId, u32)> {
    // The shortest distance found per node, `u32::MAX` for none yet.
    let mut best = vec![u32::MAX; n.max(u as usize + 1)];
    let mut found = Vec::new();
    let mut relax = |x: NodeId, d: u32| {
        if let Some(b) = best.get_mut(x as usize) {
            if *b == u32::MAX {
                found.push(x);
            }
            *b = (*b).min(d);
        }
    };
    let centers = labels.row(u).iter().zip(labels.dists(u));
    for (c, to_c) in std::iter::once((u, 0)).chain(centers.map(|(&c, &d)| (c, d))) {
        relax(c, to_c);
        for &y in holders.row(c) {
            if let Some(d) = other.dist_to(y, c) {
                relax(y, to_c + d);
            }
        }
    }
    found.sort_unstable();
    found
        .into_iter()
        .filter_map(|x| Some((x, *best.get(x as usize)?)))
        .collect()
}

/// What a [`FrozenCover::successor`] changes in one label section and the
/// holder section inverting it.
struct Edit {
    /// The label rows the entries change, ascending by node: each a span
    /// of `merged`, the row merged with its new entries.
    rows: Vec<(NodeId, Range<usize>)>,
    merged: Vec<(NodeId, u32)>,
    /// The holder rows the new entries grow, ascending by center.
    holders: Vec<(NodeId, Vec<NodeId>)>,
    /// Entries whose center the row did not hold.
    added: usize,
}

impl Edit {
    /// `entries` (sorted by node and center, one per pair, no self entry)
    /// merged into the rows of `labels`, and the rows of `holders` they
    /// grow. An entry no shorter than the one its row holds changes
    /// nothing.
    fn of(labels: &Labels, holders: &Holders, entries: &[DistEntry]) -> Self {
        let (mut rows, mut merged, mut grown) = (Vec::new(), Vec::new(), Vec::new());
        for group in entries.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(node, ..)) = group.first() else {
                continue;
            };
            let old = labels.row(node).iter().zip(labels.dists(node));
            let mut old = old.map(|(&c, &d)| (c, d)).peekable();
            let (start, mut changed) = (merged.len(), false);
            for &(_, c, d) in group {
                merged.extend(std::iter::from_fn(|| old.next_if(|&(o, _)| o < c)));
                match old.next_if(|&(o, _)| o == c) {
                    Some((_, kept)) if kept <= d => merged.push((c, kept)),
                    Some(_) => {
                        merged.push((c, d));
                        changed = true;
                    }
                    None => {
                        merged.push((c, d));
                        grown.push((c, node));
                        changed = true;
                    }
                }
            }
            if changed {
                merged.extend(old);
                rows.push((node, start..merged.len()));
            } else {
                merged.truncate(start);
            }
        }
        grown.sort_unstable();
        let holders = grown
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|group| {
                let &(center, _) = group.first()?;
                let mut row = holders.row(center).to_vec();
                row.extend(group.iter().map(|&(_, node)| node));
                row.sort_unstable();
                Some((center, row))
            })
            .collect();
        Edit {
            rows,
            merged,
            holders,
            added: grown.len(),
        }
    }

    fn label_rows(&self) -> impl Iterator<Item = (NodeId, LabelRow<'_>)> {
        self.rows.iter().map(|(v, span)| {
            let row = self.merged.get(span.clone()).unwrap_or_default();
            (*v, LabelRow::Annotated(row))
        })
    }

    fn holder_rows(&self) -> impl Iterator<Item = (NodeId, LabelRow<'_>)> {
        self.holders
            .iter()
            .map(|(c, row)| (*c, LabelRow::Plain(row)))
    }
}

/// One source row during freezing: sorted centers, centers in any order
/// (sorted on the way), or sorted `(center, dist)` pairs.
enum LabelRow<'a> {
    Plain(&'a [NodeId]),
    Unsorted(&'a [NodeId]),
    Annotated(&'a [(u32, u32)]),
}

impl LabelRow<'_> {
    fn append_to(&self, data: &mut Vec<NodeId>, dist: &mut Vec<u32>) {
        match self {
            LabelRow::Plain(row) => data.extend_from_slice(row),
            LabelRow::Unsorted(row) => {
                let start = data.len();
                data.extend_from_slice(row);
                if let Some(row) = data.get_mut(start..) {
                    row.sort_unstable();
                }
            }
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
        let frozen = crate::DistanceCoverBuilder::new(&dc).build();
        assert!(frozen.with_dist());
        let plain = FrozenCover::from_cover(&frozen.thaw());
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(frozen.distance(u, v), dc.dist(u, v), "({u},{v})");
                assert_eq!(frozen.connected(u, v), dc.dist(u, v).is_some());
                assert_eq!(plain.connected(u, v), frozen.connected(u, v));
            }
        }
        assert_eq!(plain.distance(0, 3), None, "a plain cover has no distances");
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
        let annotated = crate::DistanceCoverBuilder::new(&dc).build();
        assert_eq!(from_written_csr(&annotated), annotated);
        for (u, v) in [(0, 1), (0, n - 1), (5, 300), (700, 2)] {
            assert_eq!(annotated.distance(u, v), dc.dist(u, v), "({u},{v})");
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
