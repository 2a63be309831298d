//! Deterministic per-lane random number generation.
//!
//! Workload kernels need per-thread random streams (e.g. the random-array
//! micro-benchmark picks random indices per transaction). [`WarpRng`] keeps
//! one xorshift state per lane, seeded from a splitmix64 hash of
//! `(seed, thread_id)`, so every run of a given seed is bit-identical —
//! a property the evaluation harness relies on.

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

    #[test]
    fn chance_extremes() {
        let mut r = WarpRng::new(5, 0);
        assert!(!r.chance(0, 0, 10));
        assert!(r.chance(0, 10, 10));
    }
}
