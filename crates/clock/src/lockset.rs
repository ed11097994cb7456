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
use std::hash::{Hash, Hasher};

use grs_obs::hash::{FnvHasher, FnvMap};

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
/// assert!(!common.is_empty());
/// assert!(common.contains(b));
/// ```
#[derive(Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lockset {
    locks: Vec<LockId>,
}

/// `clone_from` copies into the existing allocation, which the derived
/// impl would drop.
impl Clone for Lockset {
    fn clone(&self) -> Self {
        Lockset {
            locks: self.locks.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.locks.clone_from(&source.locks);
    }
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

    /// Removes every lock, keeping the allocation.
    pub fn clear(&mut self) {
        self.locks.clear();
    }

    /// Removes a lock; returns `true` if it was present.
    pub fn remove(&mut self, lock: LockId) -> bool {
        match self.locks.binary_search(&lock) {
            Ok(pos) => {
                self.locks.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// True when `lock` is a member.
    #[must_use]
    pub fn contains(&self, lock: LockId) -> bool {
        self.locks.binary_search(&lock).is_ok()
    }

    /// Number of locks held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// True when no locks are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// The set intersection — Eraser's core refinement step.
    #[must_use]
    pub fn intersection(&self, other: &Lockset) -> Lockset {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.locks.len() && j < other.locks.len() {
            match self.locks[i].cmp(&other.locks[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.locks[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Lockset { locks: out }
    }

    /// Intersects `other` into `self` in place.
    pub fn intersect_with(&mut self, other: &Lockset) {
        *self = self.intersection(other);
    }

    /// True when every member of `self` is also in `other` (in which case
    /// `self.intersection(other) == *self` — used to skip allocating the
    /// intersection on the detectors' steady-state path).
    #[must_use]
    pub fn is_subset_of(&self, other: &Lockset) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.locks.len() {
            if j >= other.locks.len() {
                return false;
            }
            match self.locks[i].cmp(&other.locks[j]) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        true
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

impl FromIterator<LockId> for Lockset {
    fn from_iter<I: IntoIterator<Item = LockId>>(iter: I) -> Self {
        let mut s = Lockset::new();
        for l in iter {
            s.insert(l);
        }
        s
    }
}

impl Extend<LockId> for Lockset {
    fn extend<I: IntoIterator<Item = LockId>>(&mut self, iter: I) {
        for l in iter {
            self.insert(l);
        }
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

/// A compact reference to a lockset interned in a [`LocksetInterner`].
///
/// `LocksetId::EMPTY` (0) always names the empty set. Detectors store this
/// `u32` in their per-access shadow state instead of cloning a `Lockset`
/// per event; the clone cost moves to acquire/release (rare) and to the
/// first time a distinct set is seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LocksetId(u32);

impl LocksetId {
    /// The empty lockset (no locks held).
    pub const EMPTY: LocksetId = LocksetId(0);

    /// The raw id.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for LocksetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ls{}", self.0)
    }
}

/// Interns [`Lockset`]s as dense `u32` ids with memoized intersection.
///
/// Real programs hold a handful of distinct lock combinations, so the table
/// stays tiny even across long runs; ids are assigned in first-intern order
/// (deterministic for a deterministic event stream).
///
/// # Example
///
/// ```
/// use grs_clock::{LockId, Lockset, LocksetId, LocksetInterner};
///
/// let mut interner = LocksetInterner::new();
/// let ab: Lockset = [LockId::new(1), LockId::new(2)].into_iter().collect();
/// let b: Lockset = [LockId::new(2)].into_iter().collect();
/// let ab_id = interner.intern(&ab);
/// let b_id = interner.intern(&b);
/// assert_eq!(interner.intern(&ab), ab_id); // deduplicated
/// assert_eq!(interner.intersect(ab_id, b_id), b_id); // {1,2} ∩ {2} = {2}
/// ```
#[derive(Debug, Clone)]
pub struct LocksetInterner {
    /// `sets[i]` is the set with id `i` for `i < live`; `sets[0]` is always
    /// the empty set. Entries from `live` on are sets of an earlier run,
    /// kept for their allocations and overwritten by the next interns.
    sets: Vec<Lockset>,
    live: usize,
    /// Content hash → the first live set with that hash. The empty set is
    /// never looked up here.
    by_hash: FnvMap<u64, LocksetId>,
    /// `(smaller id, larger id) → intersection id`, so the per-access
    /// refinement path is a single hash probe with no allocation.
    intersect_memo: FnvMap<(u32, u32), LocksetId>,
}

impl Default for LocksetInterner {
    fn default() -> Self {
        LocksetInterner {
            sets: vec![Lockset::new()],
            live: 1,
            by_hash: FnvMap::default(),
            intersect_memo: FnvMap::default(),
        }
    }
}

/// The hash [`LocksetInterner`] indexes a set's contents by.
fn content_hash(set: &Lockset) -> u64 {
    let mut h = FnvHasher::default();
    set.hash(&mut h);
    h.finish()
}

impl LocksetInterner {
    /// Creates an interner holding only the empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `set`, returning the existing id when this exact set was
    /// seen before (copies only on a miss, into a kept set when there is
    /// one).
    pub fn intern(&mut self, set: &Lockset) -> LocksetId {
        if set.is_empty() {
            return LocksetId::EMPTY;
        }
        let hash = content_hash(set);
        if let Some(&first) = self.by_hash.get(&hash) {
            // Another set with this hash is all but impossible; when there
            // is one, the live sets are searched whole.
            let found = std::iter::once(first.0 as usize)
                .chain(1..self.live)
                .find(|&i| self.sets[i] == *set);
            if let Some(i) = found {
                return LocksetId(i as u32);
            }
        }
        let id = LocksetId(self.live as u32);
        match self.sets.get_mut(self.live) {
            Some(kept) => kept.clone_from(set),
            None => self.sets.push(set.clone()),
        }
        self.live += 1;
        self.by_hash.entry(hash).or_insert(id);
        id
    }

    /// The set `id` names.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not issued by this interner (or predates a
    /// [`LocksetInterner::reset`]).
    #[must_use]
    pub fn get(&self, id: LocksetId) -> &Lockset {
        &self.sets[..self.live][id.0 as usize]
    }

    /// The id of `a ∩ b`, memoized: the first intersection of a given pair
    /// materializes the set, every later one is a hash probe.
    pub fn intersect(&mut self, a: LocksetId, b: LocksetId) -> LocksetId {
        if a == b {
            return a;
        }
        if a == LocksetId::EMPTY || b == LocksetId::EMPTY {
            return LocksetId::EMPTY;
        }
        let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if let Some(&id) = self.intersect_memo.get(&key) {
            return id;
        }
        let meet = self.sets[a.0 as usize].intersection(&self.sets[b.0 as usize]);
        let id = self.intern(&meet);
        self.intersect_memo.insert(key, id);
        id
    }

    /// True when the two sets share at least one lock (no allocation).
    #[must_use]
    pub fn shares_lock(&self, a: LocksetId, b: LocksetId) -> bool {
        self.sets[a.0 as usize].shares_lock_with(&self.sets[b.0 as usize])
    }

    /// Number of distinct interned sets (≥ 1: the empty set is always in).
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True only for a hypothetical empty interner; always `false` (the
    /// empty set is always present), provided to satisfy the `len`/
    /// `is_empty` convention.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Forgets every interned set except the empty set, keeping every
    /// allocation: both maps' tables and each forgotten set's storage,
    /// which the next run's interns overwrite. All previously issued
    /// non-empty ids become invalid; detectors call this from their
    /// `reset()` between runs.
    pub fn reset(&mut self) {
        self.live = 1;
        self.by_hash.clear();
        self.intersect_memo.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u64) -> LockId {
        LockId::new(i)
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = Lockset::new();
        assert!(s.insert(l(2)));
        assert!(s.insert(l(1)));
        assert!(!s.insert(l(2))); // duplicate
        assert!(s.contains(l(1)));
        assert!(s.contains(l(2)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(l(1)));
        assert!(!s.remove(l(1)));
        assert!(!s.contains(l(1)));
    }

    #[test]
    fn intersection_keeps_common_locks() {
        let a: Lockset = [l(1), l(2), l(3)].into_iter().collect();
        let b: Lockset = [l(2), l(4)].into_iter().collect();
        let c = a.intersection(&b);
        assert_eq!(c.len(), 1);
        assert!(c.contains(l(2)));
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
    fn iteration_is_sorted() {
        let s: Lockset = [l(9), l(3), l(7)].into_iter().collect();
        let order: Vec<u64> = s.iter().map(LockId::raw).collect();
        assert_eq!(order, vec![3, 7, 9]);
    }

    #[test]
    fn display_formats() {
        let s: Lockset = [l(1), l(5)].into_iter().collect();
        assert_eq!(s.to_string(), "{L1,L5}");
        assert_eq!(Lockset::new().to_string(), "{}");
    }

    #[test]
    fn intersect_with_mutates_in_place() {
        let mut a: Lockset = [l(1), l(2)].into_iter().collect();
        let b: Lockset = [l(2), l(3)].into_iter().collect();
        a.intersect_with(&b);
        assert_eq!(a, [l(2)].into_iter().collect());
    }

    #[test]
    fn subset_checks() {
        let ab: Lockset = [l(1), l(2)].into_iter().collect();
        let a: Lockset = [l(1)].into_iter().collect();
        let c: Lockset = [l(3)].into_iter().collect();
        assert!(a.is_subset_of(&ab));
        assert!(!ab.is_subset_of(&a));
        assert!(!c.is_subset_of(&ab));
        assert!(Lockset::new().is_subset_of(&a));
        assert!(ab.is_subset_of(&ab));
    }

    #[test]
    fn interner_dedups_and_intersects() {
        let mut it = LocksetInterner::new();
        assert_eq!(it.intern(&Lockset::new()), LocksetId::EMPTY);
        let ab: Lockset = [l(1), l(2)].into_iter().collect();
        let b: Lockset = [l(2)].into_iter().collect();
        let ab_id = it.intern(&ab);
        let b_id = it.intern(&b);
        assert_ne!(ab_id, b_id);
        assert_eq!(it.intern(&ab), ab_id);
        assert_eq!(it.get(ab_id), &ab);
        // Intersection is memoized and hits existing ids where possible.
        assert_eq!(it.intersect(ab_id, b_id), b_id);
        assert_eq!(it.intersect(b_id, ab_id), b_id);
        assert_eq!(it.intersect(ab_id, LocksetId::EMPTY), LocksetId::EMPTY);
        assert!(it.shares_lock(ab_id, b_id));
        // Disjoint sets meet at the empty set.
        let c: Lockset = [l(9)].into_iter().collect();
        let c_id = it.intern(&c);
        assert_eq!(it.intersect(ab_id, c_id), LocksetId::EMPTY);
        assert!(!it.shares_lock(ab_id, c_id));
    }

    #[test]
    fn interner_reset_reissues_ids_deterministically() {
        let mut it = LocksetInterner::new();
        let ab: Lockset = [l(1), l(2)].into_iter().collect();
        let first = it.intern(&ab);
        it.reset();
        assert_eq!(it.len(), 1);
        assert_eq!(it.intern(&Lockset::new()), LocksetId::EMPTY);
        let again = it.intern(&ab);
        assert_eq!(first, again);
    }
}
