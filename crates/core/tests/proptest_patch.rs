//! The equality contract of incremental freezing: after *any* program of
//! label edits, `FrozenCover::patched(prev, cover, journal)` is
//! field-for-field the cover `FrozenCover::from_cover(cover)` builds — on
//! the patch path and on every fall-back to a full freeze.

use hopi_core::{FrozenCover, TwoHopCover};
use proptest::prelude::*;

/// One step of a program: an operation selector and two operands.
type Op = (u32, u32, u32);

const OPS: u32 = 15;

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

/// Takes the journal and checks the contract; the patched cover becomes
/// the next base. Returns whether the patch path (not a fall-back) ran.
fn take_and_check(cover: &mut TwoHopCover, prev: &mut FrozenCover) -> Result<bool, TestCaseError> {
    let dirty = cover.take_journal();
    let patched = dirty.applies_to(prev);
    let next = FrozenCover::patched(prev, cover, &dirty);
    prop_assert_eq!(&next, &FrozenCover::from_cover(cover));
    *prev = next;
    Ok(patched)
}

fn apply(
    cover: &mut TwoHopCover,
    prev: &mut FrozenCover,
    (op, a, b): Op,
) -> Result<(), TestCaseError> {
    let n = cover.num_nodes() as u32;
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
        11 => cover.ensure_node(n + b % 3),
        12 => {
            // Lifting a partition's cover into the global one, which may
            // grow it.
            let mut local = TwoHopCover::with_nodes(3);
            local.add_out(0, 2);
            local.add_in(1, 2);
            cover.merge_remapped(&local, &[a, b, n + b % 3]);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn patched_equals_from_cover((n, ops) in arb_program(48, 60)) {
        let mut cover = TwoHopCover::with_nodes(n as usize);
        let mut prev = FrozenCover::default();
        take_and_check(&mut cover, &mut prev)?;
        for op in ops {
            apply(&mut cover, &mut prev, op)?;
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
            apply(&mut cover, &mut prev, op)?;
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
    let dirty = cover.take_journal();
    let patched = dirty.applies_to(prev);
    let next = FrozenCover::patched(prev, cover, &dirty);
    assert_eq!(next, FrozenCover::from_cover(cover));
    (next, patched)
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
