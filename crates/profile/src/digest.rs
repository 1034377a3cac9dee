//! A stable 64-bit content hasher for profile/planner memo keys.
//!
//! The incremental replanner keys its per-line memo entries by a digest of
//! everything a line's plan depends on (miss stats, dynamic CFG, planner
//! config). That digest must be *stable*: independent of `HashMap` iteration
//! order, pointer values, or the std hasher's per-process random seed —
//! otherwise a memo could never be compared across plans. This module
//! provides a plain FNV-1a 64 accumulator with typed `write_*` helpers
//! (callers feed fields in a canonical order), plus the splitmix64 mixer
//! `mix64` for order-independent multiset digests (a wrapping sum of
//! per-entry mixes needs no sort).

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64 content hasher.
///
/// # Examples
///
/// ```
/// use ispy_profile::digest::ContentHasher;
///
/// let mut a = ContentHasher::new();
/// a.write_u64(42);
/// let mut b = ContentHasher::new();
/// b.write_u64(42);
/// assert_eq!(a.finish(), b.finish());
/// b.write_u64(7);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        ContentHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` (widened to `u64` so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` via its bit pattern (exact, including -0.0 vs 0.0).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The current digest.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// The splitmix64 step: a bijective 64-bit mixer whose output bits each
/// depend on every input bit. A wrapping sum of `mix64` over a collection's
/// entries digests it as a multiset, independent of iteration order.
pub(crate) fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Digests one `u64` sequence in order — a convenience for one-shot keys.
///
/// # Examples
///
/// ```
/// use ispy_profile::digest::digest_words;
///
/// assert_eq!(digest_words(&[1, 2]), digest_words(&[1, 2]));
/// assert_ne!(digest_words(&[1, 2]), digest_words(&[2, 1]));
/// ```
pub fn digest_words(words: &[u64]) -> u64 {
    let mut h = ContentHasher::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vector() {
        // FNV-1a 64 of the empty input is the offset basis; of "a" it is a
        // published constant.
        assert_eq!(ContentHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = ContentHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn order_sensitivity() {
        let mut a = ContentHasher::new();
        a.write_u32(1);
        a.write_u32(2);
        let mut b = ContentHasher::new();
        b.write_u32(2);
        b.write_u32(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_is_bit_exact() {
        let mut a = ContentHasher::new();
        a.write_f64(0.0);
        let mut b = ContentHasher::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "digest must distinguish bit patterns");
    }
}
