//! Seeded property tests for the logical-clock lattice, the lockset
//! algebra and the slice table locksets are interned in.
//!
//! These ran under `proptest` when the registry was reachable; they now run
//! in tier-1 on the vendored `rand` stub: each property is checked over a
//! few hundred cases drawn from a fixed-seed `StdRng`, so failures are
//! perfectly reproducible (the case index pins the inputs).

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grs_clock::{
    ClockOrder, Epoch, LockId, Lockset, LocksetInterner, SliceId, SliceTable, Tid, VectorClock,
};

const CASES: usize = 400;

fn gen_clock(rng: &mut StdRng) -> VectorClock {
    let n = rng.gen_range(0..8usize);
    (0..n)
        .map(|i| (Tid::new(i as u32), rng.gen_range(0..50u32)))
        .collect()
}

fn gen_lockset(rng: &mut StdRng) -> Lockset {
    let n = rng.gen_range(0..6usize);
    (0..n).map(|_| LockId::new(rng.gen_range(0..12u64))).collect()
}

/// Runs `body` over `CASES` cases from a per-property deterministic rng.
fn check(seed: u64, mut body: impl FnMut(usize, &mut StdRng)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..CASES {
        body(case, &mut rng);
    }
}

#[test]
fn join_is_commutative() {
    check(0xC0, |case, rng| {
        let (a, b) = (gen_clock(rng), gen_clock(rng));
        let ab = a.joined(&b);
        let ba = b.joined(&a);
        assert_eq!(ab.order(&ba), ClockOrder::Equal, "case {case}");
    });
}

#[test]
fn join_is_associative() {
    check(0xA5, |case, rng| {
        let (a, b, c) = (gen_clock(rng), gen_clock(rng), gen_clock(rng));
        let left = a.joined(&b).joined(&c);
        let right = a.joined(&b.joined(&c));
        assert_eq!(left.order(&right), ClockOrder::Equal, "case {case}");
    });
}

#[test]
fn join_is_idempotent() {
    check(0x1D, |case, rng| {
        let a = gen_clock(rng);
        assert_eq!(a.joined(&a).order(&a), ClockOrder::Equal, "case {case}");
    });
}

#[test]
fn join_is_upper_bound() {
    check(0x0B, |case, rng| {
        let (a, b) = (gen_clock(rng), gen_clock(rng));
        let j = a.joined(&b);
        assert!(a.le(&j) && b.le(&j), "case {case}");
    });
}

#[test]
fn join_is_monotone_in_both_arguments() {
    check(0x40, |case, rng| {
        let (a, b, c) = (gen_clock(rng), gen_clock(rng), gen_clock(rng));
        // a <= a' implies a.join(c) <= a'.join(c); a' := a.join(b) >= a.
        let bigger = a.joined(&b);
        assert!(a.joined(&c).le(&bigger.joined(&c)), "case {case}");
    });
}

#[test]
fn le_is_antisymmetric_up_to_order() {
    check(0xA2, |case, rng| {
        let (a, b) = (gen_clock(rng), gen_clock(rng));
        if a.le(&b) && b.le(&a) {
            assert_eq!(a.order(&b), ClockOrder::Equal, "case {case}");
        }
    });
}

#[test]
fn le_is_transitive() {
    check(0x7A, |case, rng| {
        let (a, b) = (gen_clock(rng), gen_clock(rng));
        // Random triples rarely chain, so construct b <= c via join.
        let c = b.joined(&gen_clock(rng));
        if a.le(&b) {
            assert!(a.le(&c), "case {case}");
        }
    });
}

#[test]
fn order_is_consistent_with_le() {
    check(0x0C, |case, rng| {
        let (a, b) = (gen_clock(rng), gen_clock(rng));
        match a.order(&b) {
            ClockOrder::Before => assert!(a.le(&b) && !b.le(&a), "case {case}"),
            ClockOrder::After => assert!(b.le(&a) && !a.le(&b), "case {case}"),
            ClockOrder::Equal => assert!(a.le(&b) && b.le(&a), "case {case}"),
            ClockOrder::Concurrent => assert!(!a.le(&b) && !b.le(&a), "case {case}"),
        }
    });
}

#[test]
fn tick_strictly_advances() {
    check(0x71, |case, rng| {
        let a = gen_clock(rng);
        let t = rng.gen_range(0..8u32);
        let mut after = a.clone();
        after.tick(Tid::new(t));
        assert!(a.happens_before(&after), "case {case}");
    });
}

/// FastTrack's O(1) epoch test must agree with the full VC comparison.
#[test]
fn epoch_fast_path_equals_vc_comparison() {
    check(0xE9, |case, rng| {
        let a = gen_clock(rng);
        let e = Epoch::new(Tid::new(rng.gen_range(0..8u32)), rng.gen_range(0..60u32));
        assert_eq!(e.le_clock(&a), e.to_clock().le(&a), "case {case}");
    });
}

#[test]
fn epoch_ordering_matches_clock_values() {
    check(0xE0, |case, rng| {
        let t = Tid::new(rng.gen_range(0..8u32));
        let (c1, c2) = (rng.gen_range(0..60u32), rng.gen_range(0..60u32));
        let (e1, e2) = (Epoch::new(t, c1), Epoch::new(t, c2));
        // Same-tid epochs are totally ordered by their clock component.
        assert_eq!(
            e1.to_clock().le(&e2.to_clock()),
            c1 <= c2,
            "case {case}"
        );
    });
}

#[test]
fn lockset_intersection_commutative() {
    check(0x11, |case, rng| {
        let (a, b) = (gen_lockset(rng), gen_lockset(rng));
        assert_eq!(a.intersection(&b), b.intersection(&a), "case {case}");
    });
}

#[test]
fn lockset_intersection_is_set_intersection() {
    check(0x15, |case, rng| {
        let (a, b) = (gen_lockset(rng), gen_lockset(rng));
        let model: BTreeSet<LockId> = a.iter().filter(|&l| b.iter().any(|m| m == l)).collect();
        let i = a.intersection(&b);
        assert!(i.iter().eq(model.iter().copied()), "case {case}");
        // Both sides contain it: intersecting again changes nothing.
        assert_eq!(a.intersection(&i), i, "case {case}");
        assert_eq!(b.intersection(&i), i, "case {case}");
    });
}

/// Eraser's refinement loop only ever shrinks the candidate set.
#[test]
fn repeated_intersection_monotonically_shrinks() {
    check(0x55, |case, rng| {
        let k = rng.gen_range(1..6usize);
        let sets: Vec<Lockset> = (0..k).map(|_| gen_lockset(rng)).collect();
        let mut candidate = sets[0].clone();
        for s in &sets[1..] {
            let next = candidate.intersection(s);
            assert_eq!(candidate.intersection(&next), next, "case {case}");
            candidate = next;
        }
    });
}

#[test]
fn shares_lock_agrees_with_intersection() {
    check(0x5A, |case, rng| {
        let (a, b) = (gen_lockset(rng), gen_lockset(rng));
        assert_eq!(
            a.shares_lock_with(&b),
            !a.intersection(&b).is_empty(),
            "case {case}"
        );
    });
}

/// One step of a [`SliceTable`] sequence. A `Make` builds on the slice at
/// a position of the model, so a replay rebuilds on the same slice.
#[derive(Debug, Clone)]
enum Op {
    Intern(Vec<u8>),
    Make { base: usize, add: u8 },
    Reset,
}

/// A small sorted set over a small alphabet, so contents repeat often.
fn gen_sorted(rng: &mut StdRng) -> Vec<u8> {
    let mut v: Vec<u8> = (0..rng.gen_range(0..4usize))
        .map(|_| rng.gen_range(0..6u8))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Runs `ops` on `table` against a model of its contents (one `Vec` per
/// id, in id order), checking every step, and returns the ids issued.
fn run_ops(table: &mut SliceTable<u8>, ops: &[Op], case: usize) -> Vec<SliceId<u8>> {
    let mut model: Vec<Vec<u8>> = vec![Vec::new()];
    let mut ids = vec![SliceId::EMPTY];
    let mut issued = Vec::new();
    for op in ops {
        let (id, want) = match op {
            Op::Intern(s) => (table.intern(s), s.clone()),
            Op::Make { base, add } => {
                let base = ids[base % ids.len()];
                let mut want = table.get(base).to_vec();
                if let Err(i) = want.binary_search(add) {
                    want.insert(i, *add);
                }
                let id = table.make(|t, buf| {
                    buf.extend_from_slice(t.get(base));
                    if let Err(i) = buf.binary_search(add) {
                        buf.insert(i, *add);
                    }
                });
                (id, want)
            }
            Op::Reset => {
                table.reset();
                model.truncate(1);
                ids.truncate(1);
                continue;
            }
        };
        match model.iter().position(|m| *m == want) {
            // Equal contents, equal ids.
            Some(k) => assert_eq!(id, ids[k], "case {case}: {want:?}"),
            // New contents, a new id after every earlier one.
            None => {
                assert!(ids.iter().all(|&old| old < id), "case {case}: {want:?}");
                model.push(want.clone());
                ids.push(id);
            }
        }
        assert_eq!(table.get(id), want.as_slice(), "case {case}");
        issued.push(id);
    }
    // Every id names its model slice, and the ids are the table's, in
    // first-intern order.
    assert_eq!(table.iter().collect::<Vec<_>>(), ids, "case {case}");
    for (k, &id) in ids.iter().enumerate() {
        assert_eq!(table.get(id), model[k].as_slice(), "case {case}");
    }
    issued
}

#[test]
fn slice_table_matches_its_model_and_reissues_ids_after_reset() {
    check(0x7AB1E, |case, rng| {
        let ops: Vec<Op> = (0..rng.gen_range(0..40usize))
            .map(|_| match rng.gen_range(0..10u32) {
                0 => Op::Reset,
                1..=4 => Op::Make {
                    base: rng.gen_range(0..8usize),
                    add: rng.gen_range(0..6u8),
                },
                _ => Op::Intern(gen_sorted(rng)),
            })
            .collect();
        let mut table = SliceTable::default();
        let first = run_ops(&mut table, &ops, case);
        table.reset();
        assert_eq!(run_ops(&mut table, &ops, case), first, "case {case}");
    });
}

/// The memoized intersection names the set `Lockset::intersection` builds
/// from the two materialized sets, in either order and on a memo hit.
#[test]
fn interned_intersection_equals_lockset_intersection() {
    check(0x1E75, |case, rng| {
        let mut sets = LocksetInterner::default();
        let ids: Vec<_> = (0..rng.gen_range(1..6usize))
            .map(|_| {
                let set = gen_lockset(rng);
                sets.make(|_, buf| buf.extend(set.iter()))
            })
            .collect();
        let lockset =
            |sets: &LocksetInterner, id| sets.get(id).iter().copied().collect::<Lockset>();
        for _ in 0..8 {
            let a = ids[rng.gen_range(0..ids.len())];
            let b = ids[rng.gen_range(0..ids.len())];
            let want = lockset(&sets, a).intersection(&lockset(&sets, b));
            for (x, y) in [(a, b), (b, a), (a, b)] {
                let met = sets.intersect(x, y);
                assert_eq!(lockset(&sets, met), want, "case {case}");
            }
        }
    });
}
