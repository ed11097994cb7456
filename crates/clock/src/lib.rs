//! Logical-time substrate for dynamic data-race detection.
//!
//! This crate provides the three algorithmic building blocks that
//! ThreadSanitizer-style detectors (and hence Go's built-in `-race` detector,
//! which the PLDI'22 study deploys) are composed of:
//!
//! * [`VectorClock`] — classic Mattern/Fidge vector clocks establishing the
//!   happens-before partial order between goroutines,
//! * [`Epoch`] — FastTrack's `tid@clock` compressed representation of a
//!   vector clock that is known to be maximal in one component, and
//! * [`Lockset`] — Eraser-style sets of locks held at an access, and
//!   [`LocksetInterner`], which hash-conses a run's sets into a
//!   [`SliceTable`] with memoized intersection.
//!
//! [`SliceTable`] is the workspace's one hash-consing table of sorted
//! slices: the dynamic detectors keep their locksets in it, and
//! `grs-golite`'s static lockset analysis its locksets, released-lock sets
//! and call chains.
//!
//! The types are deliberately independent of any particular runtime: thread
//! identity is a plain [`Tid`] index, lock identity a [`LockId`]. The
//! `grs-detector` crate layers the FastTrack and Eraser state machines on
//! top.
//!
//! # Example
//!
//! ```
//! use grs_clock::{Tid, VectorClock};
//!
//! let a = Tid::new(0);
//! let b = Tid::new(1);
//! let mut ca = VectorClock::new();
//! let mut cb = VectorClock::new();
//! ca.tick(a); // a: <1,0>
//! cb.tick(b); // b: <0,1>
//! assert!(!ca.happens_before(&cb));
//! assert!(!cb.happens_before(&ca)); // concurrent
//!
//! // b receives a message from a (release/acquire): b joins a's clock.
//! cb.join(&ca);
//! assert!(ca.happens_before(&cb));
//! ```

#![forbid(unsafe_code)]

pub mod epoch;
pub mod lockset;
pub mod table;
pub mod vc;

pub use epoch::Epoch;
pub use lockset::{LockId, Lockset, LocksetId, LocksetInterner};
pub use table::{SliceId, SliceTable};
pub use vc::{Tid, VectorClock};

/// Ordering between two points in logical time.
///
/// Unlike [`std::cmp::Ordering`] this is a *partial* order: two clocks can be
/// [`ClockOrder::Concurrent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockOrder {
    /// Left strictly happens-before right.
    Before,
    /// Right strictly happens-before left.
    After,
    /// The clocks are identical.
    Equal,
    /// Neither ordering holds: the events are concurrent (a race window).
    Concurrent,
}
