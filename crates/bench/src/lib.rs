//! # pmkm-bench — experiment harnesses
//!
//! Library support for the `src/bin/*` harness binaries that regenerate
//! every table and figure of the paper. See DESIGN.md §4 for the
//! experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ecvq;
pub mod experiments;
pub mod report;

/// The README, whose Rust snippets `cargo test` compiles and runs as this
/// crate's doctests, so they cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct Readme;
