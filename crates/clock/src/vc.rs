//! Vector clocks over a dense, growable index space of goroutines.

use std::fmt;
use std::ops::Index;

use crate::ClockOrder;

/// Identity of a goroutine (or OS thread) in logical-clock space.
///
/// `Tid` is a dense index: the detector assigns `0, 1, 2, ...` in spawn
/// order, which keeps [`VectorClock`] a flat vector rather than a map.
///
/// # Example
///
/// ```
/// use grs_clock::Tid;
/// let t = Tid::new(3);
/// assert_eq!(t.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tid(u32);

impl Tid {
    /// Creates a `Tid` from a dense index.
    #[must_use]
    #[inline]
    pub const fn new(index: u32) -> Self {
        Tid(index)
    }

    /// The dense index of this goroutine.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` value.
    #[must_use]
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Tid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for Tid {
    fn from(v: u32) -> Self {
        Tid(v)
    }
}

/// How many components live inline before the clock spills to the heap.
/// The study's patterns run a handful of goroutines, so nearly every clock
/// in a campaign stays inline (zero heap allocations on the detector's
/// per-access path).
const INLINE_SLOTS: usize = 8;

/// Small-vector storage for clock components.
///
/// Invariant: in the `Inline` form, `buf[len..]` is always zero, so reads
/// past `len` need no masking and growing inline is just raising `len`.
#[derive(Debug)]
enum Slots {
    Inline { len: u8, buf: [u32; INLINE_SLOTS] },
    Heap(Vec<u32>),
}

impl Clone for Slots {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Slots::Inline { len, buf } => Slots::Inline {
                len: *len,
                buf: *buf,
            },
            Slots::Heap(v) => Slots::Heap(v.clone()),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        // Keep an existing heap allocation instead of reallocating — this is
        // what makes `VectorClock::clone_from` free for recycled clocks.
        if let Slots::Heap(dst) = self {
            dst.clear();
            dst.extend_from_slice(source.as_slice());
        } else {
            *self = source.clone();
        }
    }
}

impl Slots {
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Slots::Inline { len, buf } => &buf[..*len as usize],
            Slots::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u32] {
        match self {
            Slots::Inline { len, buf } => &mut buf[..*len as usize],
            Slots::Heap(v) => v,
        }
    }

    /// Grows to at least `n` zero-filled components.
    #[inline]
    fn grow_to(&mut self, n: usize) {
        match self {
            Slots::Inline { len, buf } => {
                if n <= INLINE_SLOTS {
                    if n > *len as usize {
                        *len = n as u8;
                    }
                } else {
                    let mut v = Vec::with_capacity(n.max(2 * INLINE_SLOTS));
                    v.extend_from_slice(&buf[..*len as usize]);
                    v.resize(n, 0);
                    *self = Slots::Heap(v);
                }
            }
            Slots::Heap(v) => {
                if n > v.len() {
                    v.resize(n, 0);
                }
            }
        }
    }

    /// Zeroes the clock in place, keeping a heap allocation if one exists.
    fn clear(&mut self) {
        match self {
            Slots::Inline { len, buf } => {
                buf[..*len as usize].fill(0);
                *len = 0;
            }
            Slots::Heap(v) => v.clear(),
        }
    }
}

impl Default for Slots {
    fn default() -> Self {
        Slots::Inline {
            len: 0,
            buf: [0; INLINE_SLOTS],
        }
    }
}

/// A Mattern/Fidge vector clock.
///
/// Component `i` holds the most recent logical time of goroutine `i` that
/// the owner of the clock has synchronized with. Missing trailing components
/// are implicitly zero, so clocks over different numbers of goroutines
/// compare correctly.
///
/// The happens-before relation of the Go memory model is tracked by joining
/// clocks at synchronization events (channel send→receive, mutex
/// unlock→lock, `WaitGroup` done→wait, goroutine spawn and join).
///
/// Storage is a small-vector: up to eight components live inline
/// (no heap allocation), and [`VectorClock::clear`] / `clone_from` recycle
/// existing allocations so detectors can reuse clocks across runs.
/// Equality and hashing are over the stored component slice, exactly as if
/// the components were a `Vec<u32>` (trailing explicit zeros participate).
///
/// # Example
///
/// ```
/// use grs_clock::{Tid, VectorClock};
/// let mut c = VectorClock::new();
/// c.tick(Tid::new(2));
/// assert_eq!(c.get(Tid::new(2)), 1);
/// assert_eq!(c.get(Tid::new(7)), 0); // implicit zero
/// ```
#[derive(Debug, Default)]
pub struct VectorClock {
    slots: Slots,
}

impl Clone for VectorClock {
    #[inline]
    fn clone(&self) -> Self {
        VectorClock {
            slots: self.slots.clone(),
        }
    }

    /// Keeps `self`'s heap allocation, if it has one: the derived
    /// `clone_from` would replace it with a fresh clone.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.slots.as_slice() == other.slots.as_slice()
    }
}

impl Eq for VectorClock {}

impl std::hash::Hash for VectorClock {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.slots.as_slice().hash(state);
    }
}

impl VectorClock {
    /// Creates the zero clock (no events observed).
    #[must_use]
    pub fn new() -> Self {
        VectorClock::default()
    }

    /// Creates a clock with room for `n` components. Up to eight
    /// components need no heap storage regardless of `n`.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        if n <= INLINE_SLOTS {
            VectorClock::default()
        } else {
            VectorClock {
                slots: Slots::Heap(Vec::with_capacity(n)),
            }
        }
    }

    /// The component for `tid` (zero if never observed).
    #[must_use]
    #[inline]
    pub fn get(&self, tid: Tid) -> u32 {
        self.slots.as_slice().get(tid.index()).copied().unwrap_or(0)
    }

    /// Sets the component for `tid`, growing the clock as needed.
    #[inline]
    pub fn set(&mut self, tid: Tid, value: u32) {
        let i = tid.index();
        self.slots.grow_to(i + 1);
        self.slots.as_mut_slice()[i] = value;
    }

    /// Zeroes every component in place, keeping the heap allocation (if the
    /// clock ever spilled) so the clock can be recycled without
    /// reallocating.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Increments the component for `tid` and returns the new value.
    ///
    /// This is the local-step rule: a goroutine ticks its own component at
    /// each release operation.
    #[inline]
    pub fn tick(&mut self, tid: Tid) -> u32 {
        let v = self.get(tid) + 1;
        self.set(tid, v);
        v
    }

    /// Joins `other` into `self`: the component-wise maximum.
    ///
    /// This is the acquire rule: after `a.join(&b)`, everything ordered
    /// before `b` is ordered before subsequent events of `a`'s owner.
    #[inline]
    pub fn join(&mut self, other: &VectorClock) {
        let olen = other.slots.as_slice().len();
        self.slots.grow_to(olen);
        for (s, &o) in self
            .slots
            .as_mut_slice()
            .iter_mut()
            .zip(other.slots.as_slice().iter())
        {
            if o > *s {
                *s = o;
            }
        }
    }

    /// Returns the component-wise maximum of two clocks without mutating
    /// either.
    #[must_use]
    pub fn joined(&self, other: &VectorClock) -> VectorClock {
        let mut r = self.clone();
        r.join(other);
        r
    }

    /// True when every component of `self` is `<=` the corresponding
    /// component of `other` (reflexive happens-before: `self ⊑ other`).
    #[must_use]
    #[inline]
    pub fn le(&self, other: &VectorClock) -> bool {
        let o = other.slots.as_slice();
        for (i, &s) in self.slots.as_slice().iter().enumerate() {
            if s > o.get(i).copied().unwrap_or(0) {
                return false;
            }
        }
        true
    }

    /// True when `self` strictly happens-before `other`.
    #[must_use]
    pub fn happens_before(&self, other: &VectorClock) -> bool {
        self.le(other) && self != other
    }

    /// True when neither clock happens-before the other and they differ.
    #[must_use]
    pub fn concurrent_with(&self, other: &VectorClock) -> bool {
        self.order(other) == ClockOrder::Concurrent
    }

    /// Classifies the relation between two clocks.
    #[must_use]
    pub fn order(&self, other: &VectorClock) -> ClockOrder {
        let le = self.le(other);
        let ge = other.le(self);
        match (le, ge) {
            (true, true) => ClockOrder::Equal,
            (true, false) => ClockOrder::Before,
            (false, true) => ClockOrder::After,
            (false, false) => ClockOrder::Concurrent,
        }
    }

    /// Number of explicitly stored components (trailing zeros may be
    /// omitted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.as_slice().len()
    }

    /// True when no component has ever been set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.as_slice().iter().all(|&v| v == 0)
    }

    /// Iterates over `(Tid, value)` pairs with non-zero values.
    pub fn iter(&self) -> impl Iterator<Item = (Tid, u32)> + '_ {
        self.slots
            .as_slice()
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(i, &v)| (Tid::new(i as u32), v))
    }
}

impl Index<Tid> for VectorClock {
    type Output = u32;

    fn index(&self, tid: Tid) -> &u32 {
        self.slots.as_slice().get(tid.index()).unwrap_or(&0)
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.slots.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ">")
    }
}

impl FromIterator<(Tid, u32)> for VectorClock {
    fn from_iter<I: IntoIterator<Item = (Tid, u32)>>(iter: I) -> Self {
        let mut c = VectorClock::new();
        for (t, v) in iter {
            c.set(t, v);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> Tid {
        Tid::new(i)
    }

    #[test]
    fn zero_clock_is_le_everything() {
        let z = VectorClock::new();
        let mut c = VectorClock::new();
        c.tick(t(0));
        assert!(z.le(&c));
        assert!(z.le(&z));
        assert!(z.happens_before(&c));
        assert!(!c.happens_before(&z));
    }

    #[test]
    fn tick_increments() {
        let mut c = VectorClock::new();
        assert_eq!(c.tick(t(3)), 1);
        assert_eq!(c.tick(t(3)), 2);
        assert_eq!(c.get(t(3)), 2);
        assert_eq!(c.get(t(0)), 0);
    }

    #[test]
    fn join_is_componentwise_max() {
        let mut a = VectorClock::new();
        a.set(t(0), 5);
        a.set(t(1), 1);
        let mut b = VectorClock::new();
        b.set(t(0), 2);
        b.set(t(2), 7);
        a.join(&b);
        assert_eq!(a.get(t(0)), 5);
        assert_eq!(a.get(t(1)), 1);
        assert_eq!(a.get(t(2)), 7);
    }

    #[test]
    fn concurrent_detection() {
        let mut a = VectorClock::new();
        let mut b = VectorClock::new();
        a.tick(t(0));
        b.tick(t(1));
        assert_eq!(a.order(&b), ClockOrder::Concurrent);
        assert!(a.concurrent_with(&b));
        b.join(&a);
        assert_eq!(a.order(&b), ClockOrder::Before);
        assert_eq!(b.order(&a), ClockOrder::After);
    }

    #[test]
    fn equality_ignores_trailing_zeros() {
        let mut a = VectorClock::new();
        a.set(t(0), 1);
        let mut b = VectorClock::new();
        b.set(t(0), 1);
        b.set(t(5), 0);
        // Structural equality differs, but ordering treats them the same.
        assert_eq!(a.order(&b), ClockOrder::Equal);
        assert!(a.le(&b) && b.le(&a));
    }

    #[test]
    fn display_formats() {
        let mut c = VectorClock::new();
        c.set(t(0), 1);
        c.set(t(2), 3);
        assert_eq!(c.to_string(), "<1,0,3>");
        assert_eq!(t(4).to_string(), "g4");
    }

    #[test]
    fn from_iterator_collects() {
        let c: VectorClock = vec![(t(1), 4), (t(3), 2)].into_iter().collect();
        assert_eq!(c.get(t(1)), 4);
        assert_eq!(c.get(t(3)), 2);
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn index_operator() {
        let mut c = VectorClock::new();
        c.set(t(1), 9);
        assert_eq!(c[t(1)], 9);
        assert_eq!(c[t(42)], 0);
    }

    #[test]
    fn spills_to_heap_past_inline_capacity() {
        let mut c = VectorClock::new();
        for i in 0..20 {
            c.set(t(i), i + 1);
        }
        assert_eq!(c.len(), 20);
        for i in 0..20 {
            assert_eq!(c.get(t(i)), i + 1);
        }
        // Semantics are identical on either side of the spill boundary.
        let mut inline = VectorClock::new();
        inline.set(t(3), 5);
        let mut spilled = VectorClock::new();
        spilled.set(t(15), 1);
        spilled.set(t(3), 5);
        assert!(inline.le(&spilled));
    }

    #[test]
    fn clear_recycles_in_place() {
        let mut c = VectorClock::new();
        for i in 0..12 {
            c.set(t(i), 7);
        }
        c.clear();
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
        assert_eq!(c, VectorClock::new());
        c.set(t(0), 1);
        assert_eq!(c.get(t(0)), 1);
        assert_eq!(c.get(t(11)), 0);
    }

    #[test]
    fn equality_and_hash_match_slice_semantics() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a = VectorClock::new();
        a.set(t(9), 3); // spilled
        let mut b = VectorClock::new();
        b.set(t(9), 3); // built the same way, stays comparable
        assert_eq!(a, b);
        let hash = |c: &VectorClock| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        // clone_from reuses the destination's heap buffer.
        let mut dst = VectorClock::new();
        dst.set(t(20), 1);
        let buffer = |c: &VectorClock| match &c.slots {
            Slots::Heap(v) => v.as_ptr(),
            Slots::Inline { .. } => panic!("a spilled clock is on the heap"),
        };
        let before = buffer(&dst);
        dst.clone_from(&a);
        assert_eq!(dst, a);
        assert_eq!(buffer(&dst), before, "clone_from reallocated");
    }
}
