//! Deterministic per-lane random number generation, and the workspace's
//! two hashes.
//!
//! Workload kernels need per-thread random streams (e.g. the random-array
//! micro-benchmark picks random indices per transaction). [`WarpRng`] keeps
//! one xorshift state per lane, seeded from a splitmix64 hash of
//! `(seed, thread_id)`, so every run of a given seed is bit-identical —
//! a property the evaluation harness relies on. [`mix64`] is the one
//! 64-bit mixer and [`Fnv`] the one fingerprint fold.

use crate::mask::WARP_SIZE;

/// One independent xorshift32 stream per lane of a warp.
#[derive(Clone, Debug)]
pub struct WarpRng {
    states: [u32; WARP_SIZE],
}

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 hash of `x`: the one 64-bit mixer every crate uses for
/// key hashing and seed derivation.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the splitmix64 stream held in `state`: the generator
/// behind every seeded fault, crash and test-case stream.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    let out = mix64(*state);
    *state = state.wrapping_add(GAMMA);
    out
}

/// Incremental 64-bit FNV-1a: the one fingerprint fold every crate uses
/// for history, store, trace and schedule hashes. `byte`, `u32`, `u64`
/// and `str` are standard FNV-1a over little-endian bytes; the `_wide`
/// folds are the serving layer's on-store format, where every value is
/// folded as a zero-extended `u64`.
#[derive(Copy, Clone, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs one byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
    }

    /// Absorbs the 4 little-endian bytes of `v`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Absorbs the 8 little-endian bytes of `v`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Absorbs a string, length-prefixed (`u64` length, then its bytes).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.byte(b);
        }
    }

    /// Absorbs `v` zero-extended to a `u64` (8 bytes).
    #[inline]
    pub fn u32_wide(&mut self, v: u32) {
        self.u64(v as u64);
    }

    /// Absorbs a byte string, each byte as its own zero-extended word
    /// (`u64(b as u64)`) — the fold behind every serving-layer frame
    /// checksum and store fingerprint. The seven zero bytes of a word
    /// only multiply by the prime, so one word is `(h ^ b) · PRIME⁸`.
    #[inline]
    pub fn bytes_wide(&mut self, bytes: &[u8]) {
        const PRIME_8: u64 = Fnv::PRIME.wrapping_pow(8);
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME_8);
        }
    }

    /// The digest.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl WarpRng {
    /// Creates per-lane streams for a warp whose lane `l` has global thread
    /// id `base_tid + l`.
    pub fn new(seed: u64, base_tid: u32) -> Self {
        let states = std::array::from_fn(|l| {
            let mixed = mix64(seed ^ mix64(base_tid as u64 + l as u64));
            // xorshift32 state must be nonzero.
            (mixed as u32) | 1
        });
        WarpRng { states }
    }

    /// Next 32-bit value for `lane`.
    #[inline]
    pub fn next_u32(&mut self, lane: usize) -> u32 {
        let mut x = self.states[lane];
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.states[lane] = x;
        x
    }

    /// Uniform value in `0..n` for `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, lane: usize, n: u32) -> u32 {
        assert!(n > 0, "range must be nonempty");
        // Multiply-shift range reduction (Lemire); slight bias is fine for
        // workload generation.
        ((self.next_u32(lane) as u64 * n as u64) >> 32) as u32
    }

    /// Bernoulli draw with probability `num/den` for `lane`.
    #[inline]
    pub fn chance(&mut self, lane: usize, num: u32, den: u32) -> bool {
        self.below(lane, den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = WarpRng::new(7, 32);
        let mut b = WarpRng::new(7, 32);
        for lane in 0..WARP_SIZE {
            assert_eq!(a.next_u32(lane), b.next_u32(lane));
        }
    }

    #[test]
    fn lanes_differ() {
        let mut r = WarpRng::new(1, 0);
        let v0 = r.next_u32(0);
        let v1 = r.next_u32(1);
        assert_ne!(v0, v1);
    }

    #[test]
    fn seeds_differ() {
        let mut a = WarpRng::new(1, 0);
        let mut b = WarpRng::new(2, 0);
        assert_ne!(a.next_u32(0), b.next_u32(0));
    }

    #[test]
    fn below_in_range() {
        let mut r = WarpRng::new(42, 64);
        for i in 0..1000 {
            let v = r.below(i % WARP_SIZE, 10);
            assert!(v < 10);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = WarpRng::new(3, 0);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.below(0, 8) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all buckets hit: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn below_zero_panics() {
        WarpRng::new(0, 0).below(0, 0);
    }

    fn fnv(fold: impl FnOnce(&mut Fnv)) -> u64 {
        let mut h = Fnv::new();
        fold(&mut h);
        h.finish()
    }

    #[test]
    fn fnv_new_is_the_offset_basis() {
        assert_eq!(fnv(|_| {}), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().finish(), Fnv::new().finish());
    }

    #[test]
    fn fnv_byte_matches_the_reference_vectors() {
        assert_eq!(fnv(|h| h.byte(b'a')), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(|h| b"foobar".iter().for_each(|&b| h.byte(b))), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_u32_folds_four_bytes() {
        assert_eq!(fnv(|h| h.u32(0xdead_beef)), 0xa44e_2de0_7150_f42b);
    }

    #[test]
    fn fnv_u64_folds_eight_bytes() {
        assert_eq!(fnv(|h| h.u64(0x0123_4567_89ab_cdef)), 0x37eb_3f33_4776_1c55);
    }

    #[test]
    fn fnv_str_is_length_prefixed() {
        assert_eq!(fnv(|h| h.str("abc")), 0xc11a_b6d2_519b_c2b2);
    }

    #[test]
    fn fnv_u32_wide_folds_a_zero_extended_word() {
        assert_eq!(fnv(|h| h.u32_wide(0xdead_beef)), 0x7513_fc78_a110_e05b);
        assert_eq!(fnv(|h| h.u32_wide(0xdead_beef)), fnv(|h| h.u64(0xdead_beef)));
    }

    #[test]
    fn fnv_bytes_wide_folds_one_word_per_byte() {
        assert_eq!(fnv(|h| h.bytes_wide(b"abc")), 0x3153_c633_8eeb_96a5);
        assert_eq!(
            fnv(|h| h.bytes_wide(b"abc")),
            fnv(|h| b"abc".iter().for_each(|&b| h.u64(b as u64)))
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = WarpRng::new(5, 0);
        assert!(!r.chance(0, 0, 10));
        assert!(r.chance(0, 10, 10));
    }
}
