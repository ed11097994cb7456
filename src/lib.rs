//! Root package: hosts the workspace examples and integration tests.

#![forbid(unsafe_code)]

pub use grs;

/// README.md's Rust blocks, compiled (and, but for the 100K-unit
/// campaign, run) as this package's doctests, so they keep to the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
