//! Cell identity: a 64-bit FNV-1a content hash ([`vsim::Fnv`]) over
//! everything that can change a cell's output — the schema version, the binary name, the
//! binary's executable bytes, and the canonical config JSON.
//!
//! The simulation is deterministic, so this hash *is* the result
//! identity: same binary + same config ⇒ same artifact. A rebuilt
//! binary (new code) or an edited axis value changes the hash and the
//! cell re-runs; anything else is a cache hit. Seeds live inside the
//! config text, so they need no special casing.

use vsim::Fnv;

/// Bump when the cache-entry layout changes incompatibly; every old
/// entry then misses and the sweep re-runs cleanly.
pub const SCHEMA_VERSION: u32 = 1;

/// The cache key for one cell. Sections are length-prefixed so
/// `("ab", "c")` and `("a", "bc")` cannot collide.
#[must_use]
pub fn cell_key(bin_name: &str, bin_bytes: &[u8], config_json: &str) -> u64 {
    let mut h = Fnv::new();
    for section in [
        &SCHEMA_VERSION.to_le_bytes()[..],
        bin_name.as_bytes(),
        bin_bytes,
        config_json.as_bytes(),
    ] {
        h.write(&(section.len() as u64).to_le_bytes());
        h.write(section);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_input_component_matters() {
        let base = cell_key("exp", b"bytes", "{}\n");
        assert_ne!(base, cell_key("exp2", b"bytes", "{}\n"));
        assert_ne!(base, cell_key("exp", b"bytes2", "{}\n"));
        assert_ne!(base, cell_key("exp", b"bytes", "{\"seed\": 1}\n"));
        // Length prefixing: shifting a byte across a boundary changes it.
        assert_ne!(cell_key("ab", b"c", "{}"), cell_key("a", b"bc", "{}"));
        // And it is a pure function.
        assert_eq!(base, cell_key("exp", b"bytes", "{}\n"));
    }

    #[test]
    fn keys_are_stable_across_builds() {
        // A cached cell stays a hit only while its key is reproduced: a
        // change here re-runs every cached sweep, so it must be a
        // `SCHEMA_VERSION` bump, never a side effect.
        assert_eq!(cell_key("exp", b"bytes", "{}\n"), 0xb450_30f9_09a1_0f31);
    }
}
