//! Dynamic data-race detectors for the `grs-runtime` substrate.
//!
//! Go's built-in race detector is ThreadSanitizer, which the paper describes
//! as combining two published algorithms (§3.1):
//!
//! * a **happens-before** detector using vector clocks — implemented here as
//!   [`FastTrack`] (Flanagan & Freund's epoch optimization, reference \[44\]),
//!   with a pure-vector-clock variant ([`fasttrack::FastTrackConfig`]'s
//!   `pure_vc`) for the ablation benchmark;
//! * a **lockset** detector — implemented here as [`Eraser`] (Savage et
//!   al., reference \[76\]), which over-approximates by ignoring
//!   happens-before.
//!
//! [`Tsan`] composes FastTrack's precise verdicts with lockset bookkeeping so
//! race reports also say which locks each side held — the shape of report
//! the paper's deployment files as bugs (§3.3: two stacks, access types,
//! conflicting address).
//!
//! [`Explorer`] reruns a [`Program`](grs_runtime::Program) across many seeds
//! and strategies, deduplicates the races found, and measures per-run
//! detection probability — the "flakiness" that drives the paper's entire
//! deployment design (§3.2: a dynamic detector cannot gate a pull request
//! because detection is schedule-dependent).
//!
//! # Example
//!
//! ```
//! use grs_detector::{ExploreConfig, Explorer};
//! use grs_runtime::Program;
//!
//! // Listing 1: loop index variable captured by reference.
//! let program = Program::new("loop_capture", |ctx| {
//!     let job = ctx.cell("job", 0i64);
//!     for i in 0..3 {
//!         ctx.write(&job, i);
//!         let job = job.clone();
//!         ctx.go("worker", move |ctx| {
//!             let _ = ctx.read(&job);
//!         });
//!     }
//! });
//! let result = Explorer::new(ExploreConfig::quick()).explore(&program);
//! assert!(result.found_race(), "the capture race must be detected");
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod eraser;
pub mod explorer;
pub mod fasttrack;
pub mod reference;
pub mod replay;
pub mod report;
pub mod tsan;

pub use arena::DetectorArena;
pub use eraser::Eraser;
pub use explorer::{default_workers, DetectorChoice, ExploreConfig, ExploreResult, Explorer};
pub use fasttrack::{FastTrack, FastTrackConfig};
pub use replay::{replay_decoded, replay_decoded_prepared, replay_trace, Detector, ReplayOutcome};
pub use report::{DetectorKind, RaceAccess, RaceReport};
pub use tsan::Tsan;
