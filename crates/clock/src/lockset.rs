//! Eraser-style locksets.
//!
//! The lockset algorithm (Savage et al., TOCS 1997 — reference \[76\] of the
//! study) tracks, for every shared variable, the set of locks held on
//! *every* access so far. If the set ever becomes empty while more than one
//! thread has touched the variable, no single lock consistently protects it
//! and a potential race is reported. Locksets ignore happens-before, so
//! they over-approximate (flag races that ordered channel communication
//! would rule out) — which is exactly why ThreadSanitizer combines them
//! with vector clocks.

use std::fmt;

use grs_obs::hash::FnvMap;

use crate::table::{SliceId, SliceTable};

/// Identity of a lock object (mutex, rwlock) as seen by the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(u64);

impl LockId {
    /// Creates a lock identity from a raw id (typically an allocation
    /// counter in the runtime).
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        LockId(raw)
    }

    /// The raw id.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A set of locks, stored sorted for O(n) intersection.
///
/// Locksets in real programs are tiny (0–3 locks), so a sorted `Vec`
/// outperforms hash sets and keeps the type `Ord`-able for deterministic
/// reporting.
///
/// # Example
///
/// ```
/// use grs_clock::{LockId, Lockset};
///
/// let a = LockId::new(1);
/// let b = LockId::new(2);
/// let held: Lockset = [a, b].into_iter().collect();
/// let other: Lockset = [b].into_iter().collect();
/// let common = held.intersection(&other);
/// assert!(held.shares_lock_with(&other));
/// assert_eq!(common.iter().collect::<Vec<_>>(), [b]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lockset {
    locks: Vec<LockId>,
}

impl Lockset {
    /// Creates an empty lockset.
    #[must_use]
    pub fn new() -> Self {
        Lockset { locks: Vec::new() }
    }

    /// Inserts a lock; returns `true` if it was newly added.
    pub fn insert(&mut self, lock: LockId) -> bool {
        match self.locks.binary_search(&lock) {
            Ok(_) => false,
            Err(pos) => {
                self.locks.insert(pos, lock);
                true
            }
        }
    }

    /// True when no locks are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// The set intersection — Eraser's core refinement step.
    #[must_use]
    pub fn intersection(&self, other: &Lockset) -> Lockset {
        let mut locks = Vec::new();
        intersect_into(&self.locks, &other.locks, &mut locks);
        Lockset { locks }
    }

    /// True when the intersection with `other` is non-empty, i.e. at least
    /// one lock consistently protects both accesses.
    #[must_use]
    pub fn shares_lock_with(&self, other: &Lockset) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.locks.len() && j < other.locks.len() {
            match self.locks[i].cmp(&other.locks[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Iterates over the member locks in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = LockId> + '_ {
        self.locks.iter().copied()
    }
}

/// Appends the locks two sorted sets share to `out`, in order.
fn intersect_into(a: &[LockId], b: &[LockId], out: &mut Vec<LockId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

impl FromIterator<LockId> for Lockset {
    fn from_iter<I: IntoIterator<Item = LockId>>(iter: I) -> Self {
        let mut locks: Vec<LockId> = iter.into_iter().collect();
        locks.sort_unstable();
        locks.dedup();
        Lockset { locks }
    }
}

impl fmt::Display for Lockset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.locks.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

/// A lockset interned in a [`LocksetInterner`]: detectors store this `u32`
/// in their per-access shadow state instead of a set per event, so a set
/// is copied only on acquire/release (rare) and the first time it is seen.
/// [`SliceId::EMPTY`] names the empty set.
pub type LocksetId = SliceId<LockId>;

/// The locksets of one run, each a sorted slice in one [`SliceTable`],
/// with memoized intersection.
///
/// Real programs hold a handful of distinct lock combinations, so the table
/// stays tiny even across long runs; ids are assigned in first-intern order
/// (deterministic for a deterministic event stream).
///
/// # Example
///
/// ```
/// use grs_clock::{LockId, LocksetInterner};
///
/// let (a, b) = (LockId::new(1), LockId::new(2));
/// let mut sets = LocksetInterner::default();
/// let ab = sets.make(|_, buf| buf.extend([a, b]));
/// let just_b = sets.make(|_, buf| buf.push(b));
/// assert_eq!(sets.make(|_, buf| buf.extend([a, b])), ab); // deduplicated
/// assert_eq!(sets.intersect(ab, just_b), just_b); // {1,2} ∩ {2} = {2}
/// assert_eq!(sets.get(ab), [a, b]);
/// ```
#[derive(Debug, Default)]
pub struct LocksetInterner {
    sets: SliceTable<LockId>,
    /// `(smaller id, larger id) → intersection id`, so the per-access
    /// refinement path is a single hash probe with no allocation.
    intersect_memo: FnvMap<(LocksetId, LocksetId), LocksetId>,
}

impl LocksetInterner {
    /// The locks of set `id`, sorted.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not issued by this interner, or predates a
    /// [`LocksetInterner::reset`] and was not reissued since.
    #[must_use]
    #[inline]
    pub fn get(&self, id: LocksetId) -> &[LockId] {
        self.sets.get(id)
    }

    /// The id of the sorted set `fill` writes, which it may build from the
    /// interned sets ([`SliceTable::make`]).
    pub fn make(&mut self, fill: impl FnOnce(&SliceTable<LockId>, &mut Vec<LockId>)) -> LocksetId {
        self.sets.make(fill)
    }

    /// The id of `a ∩ b`, memoized: the first intersection of a given pair
    /// interns the set, every later one is a hash probe.
    #[inline]
    pub fn intersect(&mut self, a: LocksetId, b: LocksetId) -> LocksetId {
        if a == b {
            return a;
        }
        if a == LocksetId::EMPTY || b == LocksetId::EMPTY {
            return LocksetId::EMPTY;
        }
        let key = (a.min(b), a.max(b));
        match self.intersect_memo.get(&key) {
            Some(&id) => id,
            None => self.meet(key),
        }
    }

    /// Interns and memoizes the intersection of a pair not met before:
    /// kept out of line, so the probe above stays small where it inlines.
    fn meet(&mut self, (a, b): (LocksetId, LocksetId)) -> LocksetId {
        let id = self
            .sets
            .make(|t, buf| intersect_into(t.get(a), t.get(b), buf));
        self.intersect_memo.insert((a, b), id);
        id
    }

    /// Forgets every set but the empty one, keeping every allocation.
    /// Every non-empty id issued so far becomes void; detectors call this
    /// between runs.
    pub fn reset(&mut self) {
        self.sets.reset();
        self.intersect_memo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u64) -> LockId {
        LockId::new(i)
    }

    fn raw(s: &Lockset) -> Vec<u64> {
        s.iter().map(LockId::raw).collect()
    }

    #[test]
    fn insert_dedups_and_keeps_order() {
        let mut s = Lockset::new();
        assert!(s.insert(l(9)));
        assert!(s.insert(l(3)));
        assert!(!s.insert(l(9))); // duplicate
        assert!(s.insert(l(7)));
        assert_eq!(raw(&s), [3, 7, 9]);
        let collected: Lockset = [l(7), l(3), l(9), l(3)].into_iter().collect();
        assert_eq!(collected, s);
    }

    #[test]
    fn intersection_keeps_common_locks() {
        let a: Lockset = [l(1), l(2), l(3)].into_iter().collect();
        let b: Lockset = [l(2), l(4)].into_iter().collect();
        assert_eq!(raw(&a.intersection(&b)), [2]);
        assert!(a.shares_lock_with(&b));
    }

    #[test]
    fn empty_intersection_signals_potential_race() {
        let a: Lockset = [l(1)].into_iter().collect();
        let b: Lockset = [l(2)].into_iter().collect();
        assert!(a.intersection(&b).is_empty());
        assert!(!a.shares_lock_with(&b));
        // No locks held at all — Eraser's most common racy state.
        let none = Lockset::new();
        assert!(!none.shares_lock_with(&a));
    }

    #[test]
    fn display_formats() {
        let s: Lockset = [l(1), l(5)].into_iter().collect();
        assert_eq!(s.to_string(), "{L1,L5}");
        assert_eq!(Lockset::new().to_string(), "{}");
    }

    #[test]
    fn interner_dedups_and_intersects() {
        let mut it = LocksetInterner::default();
        let set = |it: &mut LocksetInterner, locks: &[u64]| {
            it.make(|_, buf| buf.extend(locks.iter().map(|&i| l(i))))
        };
        assert_eq!(set(&mut it, &[]), LocksetId::EMPTY);
        let ab_id = set(&mut it, &[1, 2]);
        let b_id = set(&mut it, &[2]);
        assert_ne!(ab_id, b_id);
        assert_eq!(set(&mut it, &[1, 2]), ab_id);
        assert_eq!(it.get(ab_id), [l(1), l(2)]);
        // Intersection is memoized and hits existing ids where possible.
        assert_eq!(it.intersect(ab_id, b_id), b_id);
        assert_eq!(it.intersect(b_id, ab_id), b_id);
        assert_eq!(it.intersect(ab_id, LocksetId::EMPTY), LocksetId::EMPTY);
        // Disjoint sets meet at the empty set.
        let c_id = set(&mut it, &[9]);
        assert_eq!(it.intersect(ab_id, c_id), LocksetId::EMPTY);
    }

    #[test]
    fn interner_reset_reissues_ids_deterministically() {
        let mut it = LocksetInterner::default();
        let ab = |it: &mut LocksetInterner| it.make(|_, buf| buf.extend([l(1), l(2)]));
        let first = ab(&mut it);
        it.reset();
        assert!(it.get(LocksetId::EMPTY).is_empty());
        assert_eq!(ab(&mut it), first);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn interner_get_of_a_pre_reset_id_panics() {
        let mut it = LocksetInterner::default();
        let ab = it.make(|_, buf| buf.extend([l(1), l(2)]));
        it.reset();
        let _ = it.get(ab);
    }
}
