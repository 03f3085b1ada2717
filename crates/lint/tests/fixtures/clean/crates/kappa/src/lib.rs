//! Clean fixture: ordered collections, no panics, no narrowing casts,
//! exhaustive dispatch. Every rule the workspace hands to clippy is on.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::cast_possible_truncation)]
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

use std::collections::BTreeMap;

/// Mentions of HashMap, Instant::now(), and x.unwrap() in comments or
/// "strings: HashMap panic! as u32" must not trip any rule.
pub fn sum(values: &BTreeMap<String, u64>) -> u64 {
    values.values().sum()
}

/// A watched enum.
pub enum Phase {
    /// Pre-copying.
    Precopy,
    /// Frozen for the final copy.
    Frozen,
}

/// An exhaustive dispatch surface.
pub fn label(p: &Phase) -> &'static str {
    match p {
        Phase::Precopy => "precopy",
        Phase::Frozen => "frozen",
    }
}

/// Widening is lossless.
pub fn widen(x: u16) -> u64 {
    u64::from(x)
}
