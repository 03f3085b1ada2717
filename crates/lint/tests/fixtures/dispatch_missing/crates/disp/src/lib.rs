//! Dispatch fixture: catch-all arms rustc accepts hide the variants a
//! dispatcher forgot. `label` leaves two variants to `_`, `is_warm` one.
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

/// A watched enum.
pub enum Color {
    /// Red.
    Red,
    /// Green.
    Green,
    /// Blue.
    Blue,
    /// Violet.
    Violet,
}

/// A dispatch surface that never names `Blue` or `Violet`.
pub fn label(c: &Color) -> &'static str {
    match c {
        Color::Red => "red",
        Color::Green => "green",
        _ => "other",
    }
}

/// A dispatch surface that never names `Violet`.
pub fn is_warm(c: &Color) -> bool {
    match c {
        Color::Red => true,
        Color::Green | Color::Blue => false,
        _ => false,
    }
}
