//! # pmkm-bench — experiment harnesses
//!
//! Library support for the `src/bin/*` harness binaries that regenerate
//! every table and figure of the paper. See DESIGN.md §4 for the
//! experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
