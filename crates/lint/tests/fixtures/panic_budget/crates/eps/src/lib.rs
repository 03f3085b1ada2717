//! Known-bad fixture: three panic sites, plus one sanctioned guard.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// Unwraps.
pub fn first(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Expects.
pub fn second(x: Option<u32>) -> u32 {
    x.expect("second")
}

/// Panics.
pub fn third(x: Option<u32>) -> u32 {
    match x {
        Some(v) => v,
        None => panic!("third"),
    }
}

/// An invariant guard: the allowance sits on the narrowest item.
#[allow(clippy::expect_used)]
pub fn guarded(x: Option<u32>) -> u32 {
    x.expect("callers pass Some")
}
