//! Root package: hosts the workspace examples and integration tests.

#![forbid(unsafe_code)]

pub use grs;
