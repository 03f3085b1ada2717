//! Known-bad fixture: hash-ordered collections in library code.
use std::collections::HashMap;

/// A registry iterated in a different order on every run. Mentions of
/// HashSet in a comment or in a string must not trip the rule.
pub struct Registry {
    /// The hash-ordered field.
    pub by_name: HashMap<String, u32>,
}

/// "HashSet here is fine".
pub const NOTE: &str = "HashSet here is fine";
