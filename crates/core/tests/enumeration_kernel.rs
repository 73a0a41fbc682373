//! The enumeration kernel (`hopi_core::source::union_into`) against a
//! sort + dedup reference: both sides of its bitmap/sort switch, collection
//! sizes that are not a multiple of the 32-bit word, ids at word
//! boundaries and at `0`/`n − 1`, sources past the cover, empty and
//! duplicate-heavy rows, and the unsorted holder rows of a mutable cover.

use hopi_core::source::union_into;
use hopi_core::{FrozenCover, LabelSource, TwoHopCover};
use proptest::prelude::*;

type NodeId = u32;

/// Maps a raw draw onto an id below `n`, biased towards the ids a bitmap
/// gets wrong: `0`, `n − 1`, both sides of every word boundary, and a
/// three-id range that makes rows duplicate-heavy.
fn pick_id(pick: u32, n: u32) -> u32 {
    let top = n / 32 * 32;
    let edges = [0, n - 1, 31, 32, 63, 64, top, top.saturating_sub(1)];
    match pick % 4 {
        0 => edges[(pick / 4) as usize % edges.len()].min(n - 1),
        1 => (pick / 4) % 3.min(n),
        _ => (pick / 4) % n,
    }
}

/// The union the kernel computes, the slow way.
fn reference(n: u32, u: NodeId, label: &[NodeId], rows: &[Vec<NodeId>]) -> Vec<NodeId> {
    if u >= n {
        return vec![u];
    }
    let holders = |c: NodeId| &rows[c as usize % rows.len()];
    let mut want = vec![u];
    want.extend(holders(u));
    for &c in label {
        want.push(c);
        want.extend(holders(c));
    }
    want.sort_unstable();
    want.dedup();
    want
}

/// `(n, source draw, label draws, holder-row draws)`. Holder rows are
/// shared between ids (`c % rows`), which repeats ids across rows.
fn arb_rows() -> impl Strategy<Value = (u32, u32, Vec<u32>, Vec<Vec<u32>>)> {
    (
        1..=1500u32,
        0..u32::MAX,
        proptest::collection::vec(0..u32::MAX, 0..=6),
        proptest::collection::vec(proptest::collection::vec(0..u32::MAX, 0..=12), 1..=8),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kernel_matches_sort_and_dedup((n, source, label, rows) in arb_rows()) {
        // One source in eight lies past the cover.
        let u = if source % 8 == 0 { n + source % 5 } else { pick_id(source / 8, n) };
        let label: Vec<NodeId> = label.iter().map(|&p| pick_id(p, n)).collect();
        let rows: Vec<Vec<NodeId>> = rows
            .iter()
            .map(|row| row.iter().map(|&p| pick_id(p, n)).collect())
            .collect();
        let mut out = vec![7; 3]; // stale content is cleared
        union_into(n as usize, u, &label, |c| &rows[c as usize % rows.len()], &mut out);
        prop_assert_eq!(out, reference(n, u, &label, &rows));
    }

    #[test]
    fn mutable_cover_rows_enumerate_like_the_frozen_ones(
        (n, edits) in (2..=300u32).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec((0..n, 0..n, 0..4u32), 0..=300))
        })
    ) {
        // Additions and removals in arbitrary order: `swap_remove` leaves
        // the mutable holder rows unsorted. Past 128 nodes a node with
        // short rows takes the sort side of the switch.
        let mut cover = TwoHopCover::with_nodes(n as usize);
        for &(node, center, op) in &edits {
            match op {
                0 => { cover.add_out(node, center); }
                1 => { cover.add_in(node, center); }
                2 => { cover.remove_out(node, center); }
                _ => { cover.remove_in(node, center); }
            }
        }
        let frozen = FrozenCover::from_cover(&cover);
        let rows_in: Vec<Vec<NodeId>> = (0..n).map(|c| cover.holders_in(c).to_vec()).collect();
        let rows_out: Vec<Vec<NodeId>> = (0..n).map(|c| cover.holders_out(c).to_vec()).collect();
        let mut buf = Vec::new();
        for u in 0..n + 2 {
            let want = reference(n, u, cover.lout(u), &rows_in);
            prop_assert_eq!(cover.descendants(u), want.clone());
            frozen.descendants_into(u, &mut buf);
            prop_assert_eq!(&buf, &want);
            let want = reference(n, u, cover.lin(u), &rows_out);
            prop_assert_eq!(cover.ancestors(u), want.clone());
            frozen.ancestors_into(u, &mut buf);
            prop_assert_eq!(&buf, &want);
            let mut marked = Vec::new();
            frozen.mark_ancestors(u, |x| marked.push(x));
            marked.sort_unstable();
            marked.dedup();
            prop_assert_eq!(marked, want);
        }
    }
}

/// Each side of the switch on a hand-built case: `n = 1000` spans 32 words,
/// so a union of at most 8 streamed ids takes the sort + dedup side, and
/// `n = 100` (4 words, `n % 32 = 4`) always takes the bitmap.
#[test]
fn both_sides_of_the_switch() {
    let rows = [vec![999, 0, 32], vec![], vec![31, 999, 31]];
    let holders = |c: NodeId| rows.get(c as usize).map_or(&[][..], Vec::as_slice);
    let mut out = Vec::new();
    // Sparse: m = 1 + 2 + 3 + 0 = 6 ids against 32 words.
    union_into(1000, 0, &[1, 1], holders, &mut out);
    assert_eq!(out, vec![0, 1, 32, 999]);
    // Dense: ids 99 (= n − 1), 64 and 96 sit at word starts and the end.
    let rows = [vec![99, 64], vec![96, 0, 99], vec![31]];
    let holders = |c: NodeId| rows.get(c as usize).map_or(&[][..], Vec::as_slice);
    union_into(100, 2, &[1, 0], holders, &mut out);
    assert_eq!(out, vec![0, 1, 2, 31, 64, 96, 99]);
    union_into(100, 100, &[1], holders, &mut out);
    assert_eq!(out, vec![100], "a source past the cover has empty rows");
}
