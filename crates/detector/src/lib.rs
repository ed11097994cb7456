//! Dynamic data-race detectors for the `grs-runtime` substrate.
//!
//! Go's built-in race detector is ThreadSanitizer, which the paper describes
//! as combining two published algorithms (§3.1):
//!
//! * a **happens-before** detector using vector clocks — implemented here as
//!   [`FastTrack`] (Flanagan & Freund's epoch optimization, reference \[44\]),
//!   with a pure-vector-clock variant ([`FastTrack::pure_vc`]) for the
//!   ablation benchmark;
//! * a **lockset** detector — implemented here as [`Eraser`] (Savage et
//!   al., reference \[76\]), which over-approximates by ignoring
//!   happens-before.
//!
//! The hybrid, [`FastTrack::hybrid`], composes FastTrack's precise verdicts
//! with lockset bookkeeping so race reports also say which locks each side
//! held — the shape of report the paper's deployment files as bugs (§3.3:
//! two stacks, access types, conflicting address).
//!
//! The three happens-before detectors are one engine: an execution's
//! vector clocks are kept once, however many of them watch it, and each
//! keeps only its own variable shadow. [`DetectorArena`] fans an execution
//! out to its detectors in one pass, live or replayed.
//!
//! A detector keeps each race as a `Copy` [`Race`] of ids and resolves
//! nothing while the run goes on; a [`RaceReport`] is built from one on
//! request ([`DetectorArena::report`]), or for every race by the
//! report-returning APIs.
//!
//! [`DetectorChoice`] names one of the four algorithms and runs a
//! [`Program`](grs_runtime::Program) under it. Detection is
//! schedule-dependent — the "flakiness" that drives the paper's entire
//! deployment design (§3.2: a dynamic detector cannot gate a pull request)
//! — so a race is looked for across seeds; the driver that reruns whole
//! corpora across seeds and strategies and deduplicates what they find is
//! the campaign engine in `grs-fleet`.
//!
//! # Example
//!
//! ```
//! use grs_detector::DetectorChoice;
//! use grs_runtime::{Program, RunConfig};
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
//! let run = |seed| DetectorChoice::Hybrid.run(&program, RunConfig::with_seed(seed));
//! assert!((1..=30).any(|seed| !run(seed).1.is_empty()), "the capture race must be detected");
//! ```

#![forbid(unsafe_code)]

pub mod arena;
pub mod eraser;
pub mod fasttrack;
mod hb;
pub mod reference;
pub mod replay;
pub mod report;

pub use arena::{DetectorArena, DetectorChoice};
pub use eraser::Eraser;
pub use fasttrack::{FastTrack, MAX_REPORTS};
pub use replay::{replay_decoded, replay_trace, Detector, ReplayOutcome};
pub use report::{AccessRecord, DetectorKind, Race, RaceAccess, RaceReport};
