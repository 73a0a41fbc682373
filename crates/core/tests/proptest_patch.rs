//! The contract of incremental freezing: after *any* program of label
//! edits, `FrozenCover::patched(prev, cover, journal)` is field for field
//! the cover `FrozenCover::from_cover(cover)` builds — on the patch path
//! and on every fall-back to a full freeze — and on the patch path it
//! shares with `prev` exactly the row blocks that hold no journalled row.
//! The distance-annotated successor keeps the same contract: after any
//! additions, `FrozenCover::successor` equals a from-scratch freeze of the
//! union, with the minimum distance kept per (node, center), and shares
//! exactly the blocks holding no edited row.

use hopi_core::{DistEntry, FrozenCover, TwoHopCover};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of a program: an operation selector and two operands.
type Op = (u32, u32, u32);

const OPS: u32 = 15;

const B: usize = FrozenCover::BLOCK_ROWS;

/// Programs over covers of `4..=max_n` node slots. Small covers overflow
/// their journal within a few edits, large ones hardly ever; operands may
/// lie a few slots past the end, so edits grow the cover.
fn arb_program(max_n: u32, max_ops: usize) -> impl Strategy<Value = (u32, Vec<Op>)> {
    (4..=max_n).prop_flat_map(move |n| {
        let ops = proptest::collection::vec((0..OPS, 0..n + 3, 0..n + 3), 1..=max_ops);
        (Just(n), ops)
    })
}

/// A few centers derived from the operands (for `set_*`).
fn centers(a: u32, b: u32, n: u32) -> Vec<u32> {
    let mut c: Vec<u32> = (0..(a + b) % 4)
        .map(|i| (a * 7 + b * 3 + i * 5) % n)
        .collect();
    c.sort_unstable();
    c.dedup();
    c
}

/// Takes the journal and patches `prev` with it. Checks the contract and,
/// block by block, the sharing: a block `prev` had is shared exactly when
/// the patch path ran and the journal lists none of its rows. Returns the
/// patched cover and whether the patch path (not a fall-back) ran.
fn patch(cover: &mut TwoHopCover, prev: &FrozenCover) -> Result<(FrozenCover, bool), String> {
    let dirty = cover.take_journal();
    let patched = dirty.applies_to(prev);
    let next = FrozenCover::patched(prev, cover, &dirty);
    if next != FrozenCover::from_cover(cover) {
        return Err("the patched cover differs from a full freeze".into());
    }
    let (n, prev_blocks) = (cover.num_nodes(), prev.num_nodes().div_ceil(B));
    let sharing = next.sharing(prev);
    let mut fresh = false;
    for (section, (flags, rows)) in sharing.shared.iter().zip(dirty.rows()).enumerate() {
        if flags.len() != n.div_ceil(B) {
            return Err(format!("section {section} has {} blocks", flags.len()));
        }
        for (k, &shared) in flags.iter().enumerate() {
            let dirtied = rows
                .iter()
                .any(|&d| (d as usize) < n && d as usize / B == k);
            if shared != (patched && k < prev_blocks && !dirtied) {
                return Err(format!(
                    "section {section} block {k}: shared {shared}, patched {patched}, dirtied {dirtied}"
                ));
            }
            fresh |= !shared;
        }
    }
    if fresh != (sharing.fresh_bytes > 0) {
        return Err(format!("{} fresh bytes", sharing.fresh_bytes));
    }
    Ok((next, patched))
}

/// [`patch`] in a property: the patched cover becomes the next base.
fn take_and_check(cover: &mut TwoHopCover, prev: &mut FrozenCover) -> Result<bool, TestCaseError> {
    let (next, patched) = patch(cover, prev).map_err(TestCaseError::fail)?;
    *prev = next;
    Ok(patched)
}

/// Applies one step, its operands (and the growth of `ensure_node`) first
/// mapped through `spread`: the identity keeps a program inside one block,
/// a stride spreads it over several.
fn apply(
    cover: &mut TwoHopCover,
    prev: &mut FrozenCover,
    spread: fn(u32) -> u32,
    (op, a, b): Op,
) -> Result<(), TestCaseError> {
    let n = cover.num_nodes() as u32;
    let (a, b, grow) = (spread(a), spread(b), spread(b % 3));
    match op {
        0 | 1 => {
            cover.add_out(a, b);
        }
        2 | 3 => {
            cover.add_in(a, b);
        }
        4 => {
            cover.remove_out(a, cover.lout(a).get(b as usize % 3).copied().unwrap_or(b));
        }
        5 => {
            cover.remove_in(a, cover.lin(a).get(b as usize % 3).copied().unwrap_or(b));
        }
        6 => cover.retain_out(a, |c| c % 2 == b % 2),
        7 => cover.retain_in(a, |c| c % 2 == b % 2),
        8 => cover.set_lout(a, &centers(a, b, n)),
        9 => cover.set_lin(a, &centers(b, a, n)),
        10 => cover.purge_node(a),
        11 => cover.ensure_node(n + grow),
        12 => {
            // Lifting a partition's cover into the global one, which may
            // grow it.
            let mut local = TwoHopCover::with_nodes(3);
            local.add_out(0, 2);
            local.add_in(1, 2);
            cover.merge_remapped(&local, &[a, b, n + grow]);
        }
        13 => {
            // A thawed cover has no journal: the next take reads
            // "everything", whatever `prev` is.
            *cover = prev.thaw();
        }
        _ => {
            take_and_check(cover, prev)?;
        }
    }
    Ok(())
}

fn identity(x: u32) -> u32 {
    x
}

/// Operand `x` as node `61·x`: a program over 32 operands spans eight
/// blocks, and growth by up to 122 slots crosses block boundaries.
fn strided(x: u32) -> u32 {
    61 * x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn patched_equals_from_cover((n, ops) in arb_program(48, 60)) {
        let mut cover = TwoHopCover::with_nodes(n as usize);
        let mut prev = FrozenCover::default();
        take_and_check(&mut cover, &mut prev)?;
        for op in ops {
            apply(&mut cover, &mut prev, identity, op)?;
            cover.check_invariants();
        }
        take_and_check(&mut cover, &mut prev)?;
        // Nothing happened since: an empty journal patches to a copy.
        prop_assert!(take_and_check(&mut cover, &mut prev)?);
    }

    /// The same programs with a take after every single operation, so
    /// that journals stay short and the patch path carries the test.
    #[test]
    fn patched_equals_from_cover_stepwise((n, ops) in arb_program(32, 40)) {
        let mut cover = TwoHopCover::with_nodes(n as usize);
        let mut prev = FrozenCover::default();
        take_and_check(&mut cover, &mut prev)?;
        for op in ops {
            apply(&mut cover, &mut prev, identity, op)?;
            take_and_check(&mut cover, &mut prev)?;
        }
    }

    /// Stepwise programs spread over several blocks: most takes dirty a
    /// few blocks and must share all the others.
    #[test]
    fn patches_share_the_blocks_they_do_not_dirty((n, ops) in arb_program(32, 40)) {
        let mut cover = TwoHopCover::with_nodes(strided(n) as usize);
        let mut prev = FrozenCover::default();
        take_and_check(&mut cover, &mut prev)?;
        for op in ops {
            apply(&mut cover, &mut prev, strided, op)?;
            take_and_check(&mut cover, &mut prev)?;
        }
    }
}

/// Cover for the path 0 → 1 → 2 → 3 with centers 1 and 2, in 8 slots.
fn sample() -> TwoHopCover {
    let mut c = TwoHopCover::with_nodes(8);
    c.add_out(0, 1);
    c.add_in(2, 1);
    c.add_in(3, 1);
    c.add_out(0, 2);
    c.add_in(3, 2);
    c
}

fn check(cover: &mut TwoHopCover, prev: &FrozenCover) -> (FrozenCover, bool) {
    patch(cover, prev).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn first_take_is_a_full_freeze_then_takes_chain() {
    let mut cover = sample();
    let (base, patched) = check(&mut cover, &FrozenCover::default());
    assert!(!patched, "a fresh cover reads everything");
    cover.add_out(4, 2);
    cover.remove_in(3, 1);
    let dirty = cover.clone().take_journal();
    assert!(!dirty.is_everything());
    assert_eq!(dirty.len(), 4, "Lout(4), inv_out(2), Lin(3), inv_in(1)");
    let (next, patched) = check(&mut cover, &base);
    assert!(patched);
    let (_, patched) = check(&mut cover, &next);
    assert!(patched, "an empty journal still patches");
}

#[test]
fn growth_of_n_is_patched() {
    let mut cover = sample();
    let (base, _) = check(&mut cover, &FrozenCover::default());
    cover.ensure_node(11); // clean new slots
    cover.add_out(13, 2); // a dirty one past the old end, growing further
    cover.add_in(9, 13);
    let (next, patched) = check(&mut cover, &base);
    assert!(patched);
    assert_eq!(next.num_nodes(), 14);
    assert!(next.connected(13, 3) && next.connected(13, 9));
}

#[test]
fn overflowing_journal_reads_everything() {
    let mut cover = sample();
    let (base, _) = check(&mut cover, &FrozenCover::default());
    for round in 0..3 {
        for v in 3..8 {
            cover.add_out(v, (v + 1 + round) % 3);
        }
    }
    let dirty = cover.clone().take_journal();
    assert!(dirty.is_everything() && dirty.is_empty());
    let (next, patched) = check(&mut cover, &base);
    assert!(!patched);
    cover.purge_node(1);
    assert!(check(&mut cover, &next).1, "and the journal starts over");
}

#[test]
fn mismatched_base_costs_a_full_freeze_never_a_wrong_cover() {
    let mut cover = sample();
    let (base, _) = check(&mut cover, &FrozenCover::default());
    // Two clones diverge from the same base; each patches it correctly…
    let mut fork = cover.clone();
    cover.add_out(5, 1);
    fork.add_in(6, 2);
    let (of_cover, patched) = check(&mut cover, &base);
    assert!(patched);
    let (of_fork, patched) = check(&mut fork, &base);
    assert!(patched);
    assert_ne!(of_cover, of_fork);
    // …but a journal never applies to the other lineage's cover, nor to a
    // re-frozen or thawed one.
    cover.add_out(6, 1);
    assert!(!check(&mut cover, &of_fork).1);
    cover.add_out(7, 1);
    let refrozen = FrozenCover::from_cover(&cover);
    assert!(!check(&mut cover, &refrozen).1);
    let mut thawed = of_cover.thaw();
    assert!(!check(&mut thawed, &of_cover).1);
}

/// Blocks of each section (`Lin`, `Lout`, `inv_in`, `inv_out`) that `next`
/// rebuilt instead of sharing with `prev`.
fn rebuilt(next: &FrozenCover, prev: &FrozenCover) -> [Vec<usize>; 4] {
    next.sharing(prev).shared.map(|flags| {
        let fresh = flags.iter().enumerate().filter(|(_, &shared)| !shared);
        fresh.map(|(k, _)| k).collect()
    })
}

#[test]
fn multi_block_covers_patch_block_by_block() {
    // Three blocks and a bit; node 1 is a center for a few nodes in every
    // block.
    let n = 3 * B + 10;
    let mut cover = TwoHopCover::with_nodes(n);
    for v in (2..n as u32).step_by(97) {
        cover.add_out(v, 1);
        cover.add_in(v + 1, 1);
    }
    let (base, patched) = check(&mut cover, &FrozenCover::default());
    assert!(!patched);

    // An empty journal shares everything and writes nothing.
    let (same, patched) = check(&mut cover, &base);
    assert!(patched && same.sharing(&base).fresh_bytes == 0);
    assert_eq!(rebuilt(&same, &base), [vec![], vec![], vec![], vec![]]);

    // One entry: `Lout(5)` in block 0, the holder row of center 2 * B + 3
    // in block 2.
    cover.add_out(5, 2 * B as u32 + 3);
    let (one, _) = check(&mut cover, &same);
    assert_eq!(rebuilt(&one, &same), [vec![], vec![0], vec![], vec![2]]);
    assert!(one.connected(5, 2 * B as u32 + 3));
    let bytes = one.sharing(&same).fresh_bytes;
    assert!(bytes > 0 && bytes < one.sharing(&FrozenCover::default()).fresh_bytes / 4);

    // Growth across a block boundary: clean slots inside the last block
    // rebuild nothing; the new blocks are new.
    cover.ensure_node(5 * B as u32 + 1);
    let (grown, patched) = check(&mut cover, &one);
    assert!(patched);
    assert_eq!(grown.num_nodes(), 5 * B + 2);
    assert_eq!(
        rebuilt(&grown, &one),
        [vec![4, 5], vec![4, 5], vec![4, 5], vec![4, 5]]
    );
    cover.add_in(4 * B as u32 + 2, 3);
    let (dirty_new, _) = check(&mut cover, &grown);
    assert_eq!(
        rebuilt(&dirty_new, &grown),
        [vec![4], vec![], vec![0], vec![]]
    );

    // Overflow and thaw fall back to a full freeze: nothing is shared.
    for v in 0..n as u32 {
        cover.add_out(v, 7);
        cover.add_out(v, 9);
    }
    let (overflowed, patched) = check(&mut cover, &dirty_new);
    assert!(!patched);
    assert!(overflowed
        .sharing(&dirty_new)
        .shared
        .iter()
        .flatten()
        .all(|&s| !s));
    let mut thawed = overflowed.thaw();
    thawed.add_in(1, 0);
    let (refrozen, patched) = check(&mut thawed, &overflowed);
    assert!(!patched);
    assert!(refrozen
        .sharing(&overflowed)
        .shared
        .iter()
        .flatten()
        .all(|&s| !s));
}

/// Annotated labels as a model: `(node, center) → dist`, no self entries.
type Model = BTreeMap<(u32, u32), u32>;

/// `model` with `entries` added, keeping the minimum per pair.
fn union(model: &Model, entries: &[DistEntry]) -> Model {
    let mut out = model.clone();
    for &(node, center, dist) in entries.iter().filter(|e| e.0 != e.1) {
        out.entry((node, center))
            .and_modify(|d| *d = (*d).min(dist))
            .or_insert(dist);
    }
    out
}

/// The from-scratch freeze of two label models over `n` nodes, through the
/// persisted CSR form.
fn freeze_models(n: usize, lin: &Model, lout: &Model) -> FrozenCover {
    let (mut lin_off, mut lout_off) = (vec![0u32], Vec::new());
    let (mut labels, mut dist) = (Vec::new(), Vec::new());
    for (model, off) in [(lin, &mut lin_off), (lout, &mut lout_off)] {
        if off.is_empty() {
            off.push(labels.len() as u32);
        }
        for v in 0..n as u32 {
            for (&(_, c), &d) in model.range((v, 0)..(v + 1, 0)) {
                labels.push(c);
                dist.push(d);
            }
            off.push(labels.len() as u32);
        }
    }
    FrozenCover::from_label_csr(lin_off, lout_off, labels, Some(dist)).expect("valid CSR")
}

/// Nodes past the last slot a model names.
fn extent(models: [&Model; 2]) -> usize {
    models
        .iter()
        .flat_map(|m| m.keys())
        .map(|&(node, center)| node.max(center) as usize + 1)
        .max()
        .unwrap_or(0)
}

/// Nodes whose row differs between `before` and `after`, and centers
/// whose holder set grew.
fn edited(before: &Model, after: &Model) -> (Vec<u32>, Vec<u32>) {
    let rows = after
        .iter()
        .filter(|&(key, d)| before.get(key) != Some(d))
        .map(|(&(node, _), _)| node);
    let holders = after
        .keys()
        .filter(|key| !before.contains_key(key))
        .map(|&(_, center)| center);
    (rows.collect(), holders.collect())
}

/// Random annotated entries over nodes `0..n + 2`, spread by `stride`.
fn arb_entries(n: u32, stride: u32, max: usize) -> impl Strategy<Value = Vec<DistEntry>> {
    proptest::collection::vec((0..n + 2, 0..n + 2, 1u32..9), 0..=max).prop_map(move |e| {
        e.into_iter()
            .map(|(v, c, d)| (v * stride, c * stride, d))
            .collect()
    })
}

fn arb_successor() -> impl Strategy<Value = (usize, [Vec<DistEntry>; 4])> {
    (4u32..40, 0u32..2).prop_flat_map(|(n, spread)| {
        let stride = [1, 61][spread as usize];
        let entries = (
            arb_entries(n, stride, 40),
            arb_entries(n, stride, 40),
            arb_entries(n, stride, 6),
            arb_entries(n, stride, 6),
        );
        (Just((n * stride) as usize), entries).prop_map(|(n, (a, b, c, d))| (n, [a, b, c, d]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random annotated cover and random additions: the successor is the
    /// from-scratch freeze of the union (minimum per pair), and shares
    /// every block of the base that holds no edited row.
    #[test]
    fn successor_equals_freeze_of_union((n, [lin, lout, add_in, add_out]) in arb_successor()) {
        let (base_lin, base_lout) = (union(&Model::new(), &lin), union(&Model::new(), &lout));
        let base = FrozenCover::default().successor(n, lin, lout);
        let base_n = n.max(extent([&base_lin, &base_lout]));
        prop_assert_eq!(&base, &freeze_models(base_n, &base_lin, &base_lout));

        let (next_lin, next_lout) = (union(&base_lin, &add_in), union(&base_lout, &add_out));
        let next = base.successor(n, add_in, add_out);
        let next_n = base_n.max(extent([&next_lin, &next_lout]));
        prop_assert_eq!(&next, &freeze_models(next_n, &next_lin, &next_lout));

        let (lin_rows, inv_in) = edited(&base_lin, &next_lin);
        let (lout_rows, inv_out) = edited(&base_lout, &next_lout);
        let sharing = next.sharing(&base);
        for (section, (flags, rows)) in sharing.shared.iter().zip([lin_rows, lout_rows, inv_in, inv_out]).enumerate() {
            prop_assert_eq!(flags.len(), next_n.div_ceil(B));
            for (k, &shared) in flags.iter().enumerate() {
                let dirtied = rows.iter().any(|&d| d as usize / B == k);
                prop_assert_eq!(
                    shared,
                    k < base_n.div_ceil(B) && !dirtied,
                    "section {} block {}", section, k
                );
            }
        }
    }
}

#[test]
fn leaf_link_successor_shares_what_it_does_not_edit() {
    // A chain over three blocks and a bit, then a link from a leaf in block
    // 0 to a node in block 3: only the rows the new entries edit are
    // rebuilt.
    let n = 3 * B as u32 + 10;
    let chain: Vec<DistEntry> = (1..n).map(|v| (v, 0, v)).collect();
    let base = FrozenCover::default().successor(n as usize, chain, vec![]);
    let (leaf, target) = (5, 3 * B as u32 + 4);
    let next = base.successor(n as usize, vec![(target, leaf, 1)], vec![(leaf, target, 1)]);
    assert_eq!(next.distance(leaf, target), Some(1));
    assert_eq!(next.distance(0, target), Some(target));
    assert_eq!(next.size(), base.size() + 2);
    let rebuilt = next.sharing(&base).shared.map(|flags| {
        let fresh = flags.iter().enumerate().filter(|(_, &shared)| !shared);
        fresh.map(|(k, _)| k).collect::<Vec<_>>()
    });
    assert_eq!(rebuilt, [vec![3], vec![0], vec![0], vec![3]]);
}
