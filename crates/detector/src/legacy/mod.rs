//! The legacy HashMap-backed shadow state, frozen as the equivalence
//! oracle for the flat rewrite.
//!
//! These modules are byte-for-byte copies of the detector cores as they
//! stood before the flat shadow-memory refactor (`fasttrack.rs`,
//! `eraser.rs`, `tsan.rs` with `HashMap<u64, _>` variable/lock/channel
//! tables and a `HashMap` shared-read history). They exist for exactly one
//! purpose: differential testing. The equivalence suite runs the same
//! programs and traces through both implementations and pins the flat
//! path's reports, fingerprints, shadow-word accounting, and campaign
//! digests bit-identical to this oracle.
//!
//! The module is always compiled, but nothing outside the equivalence
//! suites runs it: the only ways in are
//! [`DetectorArena::new_oracle`](crate::DetectorArena::new_oracle) and the
//! campaign switch `oracle_shadow` built on it.

pub mod eraser;
pub mod fasttrack;
pub mod tsan;

pub use eraser::Eraser as LegacyEraser;
pub use fasttrack::{FastTrack as LegacyFastTrack, FastTrackConfig as LegacyFastTrackConfig};
pub use tsan::Tsan as LegacyTsan;

use crate::replay::Detector;
use crate::report::RaceReport;

// The reference set joins the detector seam with the trait's defaults:
// batch input is materialized one event at a time through `on_event`.

impl Detector for fasttrack::FastTrack {
    fn take_reports(&mut self) -> Vec<RaceReport> {
        fasttrack::FastTrack::take_reports(self)
    }
}

impl Detector for eraser::Eraser {
    fn take_reports(&mut self) -> Vec<RaceReport> {
        eraser::Eraser::take_reports(self)
    }
}

impl Detector for tsan::Tsan {
    fn take_reports(&mut self) -> Vec<RaceReport> {
        tsan::Tsan::take_reports(self)
    }
}
