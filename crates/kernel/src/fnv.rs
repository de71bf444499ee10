//! FNV-1a, 64-bit: the one pinned hash behind every persisted identity
//! (config and fault-plan fingerprints, run-key fingerprints and cache
//! file names, disk-cache and trace-store checksums).
//!
//! The standard library's `DefaultHasher` is explicitly not specified to
//! stay the same across Rust releases, which would silently re-key every
//! persisted entry; FNV-1a is fixed by its reference (offset basis and
//! prime below).

use std::fmt;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes` in one shot.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Incremental FNV-1a 64: feeding the bytes in any number of pieces
/// gives the same hash as [`fnv1a`] over their concatenation. As a
/// [`fmt::Write`] it hashes formatted text without building a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes.
    #[must_use]
    pub const fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Folds `bytes` into the hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash of every byte fed so far.
    #[must_use]
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // From the FNV reference test suite (FNV-1a, 64-bit).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_and_formatted_match_one_shot() {
        use std::fmt::Write;
        let mut h = Fnv1a::new();
        h.update(b"foo");
        h.update(b"");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut f = Fnv1a::default();
        write!(f, "foo{:?}", 42u8).unwrap();
        assert_eq!(f.finish(), fnv1a(b"foo42"));
    }
}
