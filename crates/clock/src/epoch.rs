//! FastTrack epochs: a `tid@clock` pair standing in for a full vector clock.
//!
//! FastTrack (Flanagan & Freund, PLDI 2009 — reference \[44\] of the study)
//! observes that the vast majority of variables are accessed by one thread
//! at a time, in which case the access history is totally ordered and can be
//! summarized by its maximal element: a single `(tid, clock)` pair. Only
//! when concurrent reads are observed does the detector inflate the read
//! history back into a full [`VectorClock`].

use std::fmt;

use crate::vc::{Tid, VectorClock};

/// A FastTrack epoch `c@t`: logical time `c` of goroutine `t`.
///
/// # Example
///
/// ```
/// use grs_clock::{Epoch, Tid, VectorClock};
///
/// let t0 = Tid::new(0);
/// let e = Epoch::new(t0, 3);
/// let mut now = VectorClock::new();
/// now.set(t0, 5);
/// assert!(e.le_clock(&now)); // 3 <= now[t0]
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Epoch {
    tid: Tid,
    clock: u32,
}

impl Epoch {
    /// The zero epoch `0@g0`, ordered before everything.
    pub const ZERO: Epoch = Epoch {
        tid: Tid::new(0),
        clock: 0,
    };

    /// Creates an epoch for logical time `clock` of goroutine `tid`.
    #[must_use]
    #[inline]
    pub const fn new(tid: Tid, clock: u32) -> Self {
        Epoch { tid, clock }
    }

    /// The epoch summarizing `tid`'s current position in `clock`.
    #[must_use]
    #[inline]
    pub fn of(tid: Tid, clock: &VectorClock) -> Self {
        Epoch::new(tid, clock.get(tid))
    }

    /// The goroutine component of the epoch.
    #[must_use]
    #[inline]
    pub fn tid(self) -> Tid {
        self.tid
    }

    /// The logical-time component of the epoch.
    #[must_use]
    #[inline]
    pub fn clock(self) -> u32 {
        self.clock
    }

    /// True for the zero epoch (no access recorded yet).
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.clock == 0
    }

    /// FastTrack's `e ⊑ C` test: does the event summarized by this epoch
    /// happen before (or equal) the point described by `clock`?
    ///
    /// This is the O(1) fast path replacing a full vector-clock comparison:
    /// `c@t ⊑ C  ⇔  c <= C[t]`.
    #[must_use]
    #[inline]
    pub fn le_clock(self, clock: &VectorClock) -> bool {
        self.clock <= clock.get(self.tid)
    }

    /// Expands the epoch into the minimal vector clock containing it.
    #[must_use]
    pub fn to_clock(self) -> VectorClock {
        let mut c = VectorClock::new();
        c.set(self.tid, self.clock);
        c
    }
}

impl Default for Epoch {
    fn default() -> Self {
        Epoch::ZERO
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.clock, self.tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> Tid {
        Tid::new(i)
    }

    #[test]
    fn zero_epoch_precedes_everything() {
        let c = VectorClock::new();
        assert!(Epoch::ZERO.le_clock(&c));
        assert!(Epoch::ZERO.is_zero());
        let mut c2 = VectorClock::new();
        c2.tick(t(5));
        assert!(Epoch::ZERO.le_clock(&c2));
    }

    #[test]
    fn le_clock_matches_vc_comparison() {
        let e = Epoch::new(t(1), 4);
        let mut before = VectorClock::new();
        before.set(t(1), 3);
        let mut after = VectorClock::new();
        after.set(t(1), 4);
        assert!(!e.le_clock(&before));
        assert!(e.le_clock(&after));
        // Equivalent full-VC comparison agrees:
        assert!(!e.to_clock().le(&before));
        assert!(e.to_clock().le(&after));
    }

    #[test]
    fn of_reads_the_owner_component() {
        let mut c = VectorClock::new();
        c.set(t(2), 9);
        c.set(t(0), 1);
        let e = Epoch::of(t(2), &c);
        assert_eq!(e.tid(), t(2));
        assert_eq!(e.clock(), 9);
    }

    #[test]
    fn display_is_clock_at_tid() {
        assert_eq!(Epoch::new(t(3), 7).to_string(), "7@g3");
    }
}
