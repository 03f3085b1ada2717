//! FNV-1a, the one 64-bit content hash of the workspace: test digests of
//! traces and counters, and `vrun`'s cache keys. It names content the same
//! on every host; it is not keyed, so it is no defence against chosen
//! collisions.
//!
//! # Examples
//!
//! ```
//! use vsim::Fnv;
//!
//! let mut h = Fnv::new();
//! h.write(b"foo");
//! h.write(b"bar");
//! assert_eq!(h.finish(), vsim::fnv1a(b"foobar"));
//!
//! // A value's `Debug` form, hashed without building the string.
//! let mut d = Fnv::new();
//! d.write_debug(&(1, "two"));
//! assert_eq!(d.finish(), vsim::fnv1a(format!("{:?}", (1, "two")).as_bytes()));
//! ```

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs the bytes of `value`'s `Debug` form (`{:?}`), streamed
    /// through the hasher rather than collected into a string.
    pub fn write_debug(&mut self, value: &impl fmt::Debug) {
        // Writing to the hasher never fails; only a `Debug` impl that
        // reports an error could stop it early.
        let _ = fmt::Write::write_fmt(self, format_args!("{value:?}"));
    }

    /// The current hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of `bytes`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values for the standard 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
