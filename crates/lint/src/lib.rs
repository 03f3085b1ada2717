//! `vlint` — the workspace checks that rustc and clippy cannot make.
//!
//! The headline claims of this reproduction (sub-second freeze times,
//! identical-trace replay, the 32-seed chaos soak) rest on the
//! simulation being bit-for-bit deterministic and on the telemetry
//! surface staying coherent across its many copies. The toolchain
//! guards the first: `clippy.toml` bans hash-ordered collections, host
//! time, threads and the environment in simulation crates, the library
//! crate roots deny `unwrap`/`expect`/`panic!` outside sanctioned
//! `#[allow]`s, and `vsim`/`vnet`/`vcluster` deny lossy casts and
//! wildcard arms (DESIGN.md §6). `vlint` keeps only what those tools
//! cannot express, with a hand-rolled tokenizer ([`lexer`]), an
//! item-level AST-lite ([`ast`]), and zero external crates, in the
//! spirit of `vsim::json`.
//!
//! Rule families, configured by `lint.toml` at the workspace root:
//!
//! * **layering** (`layering-dep`) — every crate's `Cargo.toml`
//!   dependencies must follow the intended DAG in `[layering]`.
//! * **bench emit** (`bench-emit`) — every experiment binary must route
//!   results through `vbench::emit`.
//! * **schema drift** (`schema-undocumented`, `schema-stale-doc`,
//!   `schema-snake-case`, `schema-kind-conflict`, `schema-series-ref`,
//!   `schema-plan-unknown`, `schema-fault-matrix`) — the metric and
//!   time-series names registered in code are the source of truth; the
//!   documented schema table, sweep plan axes, series references, and
//!   the fault-matrix test are all cross-checked against them
//!   ([`schema`]).
//!
//! The binary (`cargo run -p vlint`) exits non-zero on any violation and
//! `--json` writes a `results/vlint.json` artifact (schema version 2)
//! for CI and `vrun lint`.

pub mod ast;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod schema;
pub mod toml;

use std::path::Path;

pub use config::Config;
pub use report::{Report, Violation};

/// Runs the full lint pass over the workspace rooted at `root`.
///
/// `root` must contain a `lint.toml` and a `Cargo.toml`; member crates are
/// discovered under `root/crates/*/Cargo.toml` plus the root package
/// itself (if the root manifest has a `[package]` section).
///
/// # Errors
///
/// Returns a human-readable message when `lint.toml` is missing or
/// malformed, or when the crate tree cannot be read.
pub fn run(root: &Path) -> Result<Report, String> {
    let cfg = Config::load(root)?;
    let crates = rules::discover_crates(root)?;
    rules::check_workspace(root, &cfg, &crates)
}
