//! # pmkm-cli — command-line front end
//!
//! The `pmkm` tool: the acquisition → binning → clustering → compression
//! workflow of the paper as composable subcommands. [`COMMANDS`] is the one
//! list of them; each row's flag table drives parsing, defaults and the
//! help that `pmkm help <command>` prints.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args, Flag, Kind};
pub use commands::{dispatch, find, overview, usage_hint, CliError, Command, COMMANDS};
