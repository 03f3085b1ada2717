//! The determinism, panic, cast and dispatch rules clippy enforces,
//! proved on miniature workspaces.
//!
//! Each fixture under `tests/fixtures/` carries its own `clippy.toml`
//! and crate-root lint attributes, mirroring the workspace's, so it does
//! not depend on the repository's config. Every known-bad fixture must
//! fail `cargo clippy -- -D warnings` with the expected lint at the
//! expected `file:line`; the clean fixture must pass.

use std::path::PathBuf;
use std::process::Command;

/// Runs clippy on a fixture; returns its exit status and the rendered
/// diagnostics as `(lint, "file:line")` pairs.
fn clippy(name: &str) -> (bool, Vec<(String, String)>) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("clippy-{name}"));
    let out = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--message-format=json",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .args(["--", "-D", "warnings"])
        .output()
        .expect("spawn cargo clippy");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command"),
        "clippy is not installed (rustup component add clippy):\n{stderr}"
    );
    let diags = stdout
        .lines()
        .filter_map(|line| {
            let code = field(line, "\"code\":{\"code\":\"")?;
            let at = field(line, "--> ")?;
            // `file:line:col` → `file:line`.
            let at = at.rsplit_once(':').map_or(at, |(fl, _)| fl);
            Some((code.to_string(), at.to_string()))
        })
        .collect();
    (out.status.success(), diags)
}

/// The text after `key` up to the next `"` or `\`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find(['"', '\\'])?])
}

/// Asserts the fixture fails clippy and reports each `(lint, file:line)`.
fn fails_with(name: &str, expected: &[(&str, &str)]) -> Vec<(String, String)> {
    let (ok, diags) = clippy(name);
    assert!(!ok, "fixture {name} must fail clippy, got {diags:?}");
    for (lint, at) in expected {
        let hit = diags
            .iter()
            .any(|(l, a)| l == &format!("clippy::{lint}") && a == at);
        assert!(
            hit,
            "fixture {name}: expected {lint} at {at}, got {diags:?}"
        );
    }
    diags
}

#[test]
fn hash_violation_fails_disallowed_types() {
    let diags = fails_with(
        "hash_violation",
        &[
            ("disallowed_types", "crates/alpha/src/lib.rs:2"),
            ("disallowed_types", "crates/alpha/src/lib.rs:8"),
        ],
    );
    // Not the comment or the string.
    assert_eq!(diags.len(), 2, "{diags:?}");
}

#[test]
fn nondet_runtime_fails_disallowed_types_and_methods() {
    fails_with(
        "nondet_runtime",
        &[
            ("disallowed_types", "crates/omega/src/lib.rs:5"),
            ("disallowed_methods", "crates/omega/src/lib.rs:6"),
            ("disallowed_methods", "crates/omega/src/lib.rs:7"),
        ],
    );
}

#[test]
fn taint_flow_fails_at_the_clock_read() {
    let diags = fails_with(
        "taint_flow",
        &[("disallowed_methods", "crates/tau/src/lib.rs:21")],
    );
    assert_eq!(diags.len(), 1, "the sim-time path must not fire: {diags:?}");
}

#[test]
fn panic_budget_fails_each_unsanctioned_site() {
    let diags = fails_with(
        "panic_budget",
        &[
            ("unwrap_used", "crates/eps/src/lib.rs:6"),
            ("expect_used", "crates/eps/src/lib.rs:11"),
            ("panic", "crates/eps/src/lib.rs:18"),
        ],
    );
    assert_eq!(
        diags.len(),
        3,
        "the #[allow]ed guard must not fire: {diags:?}"
    );
}

#[test]
fn lossy_cast_fails_on_narrowing_only() {
    let diags = fails_with(
        "lossy_cast",
        &[("cast_possible_truncation", "crates/delta/src/lib.rs:6")],
    );
    assert_eq!(diags.len(), 1, "widening u64::from is clean: {diags:?}");
}

#[test]
fn dispatch_missing_fails_on_catch_all_arms() {
    fails_with(
        "dispatch_missing",
        &[
            ("wildcard_enum_match_arm", "crates/disp/src/lib.rs:22"),
            (
                "match_wildcard_for_single_variants",
                "crates/disp/src/lib.rs:31",
            ),
        ],
    );
}

#[test]
fn clean_fixture_passes_clippy() {
    let (ok, diags) = clippy("clean");
    assert!(ok && diags.is_empty(), "expected clean, got {diags:?}");
}
