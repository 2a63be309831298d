//! Memory-access coalescing model.
//!
//! GPU load/store units merge the 32 lane addresses of a warp instruction
//! into as few 128-byte memory transactions as possible: consecutive
//! accesses that fall in the same 128-byte segment become a single
//! transaction (Section 2.1 of the paper). GPU-STM's coalesced
//! read-/write-set organisation exists precisely to keep this number low.
//!
//! This module computes, for a masked warp access, the distinct segments
//! touched — the number of memory transactions the instruction issues.
//! It runs once per simulated memory instruction, so everything here
//! lives on the stack and is linear in the active-lane count.

use crate::mask::{LaneMask, WARP_SIZE};
use crate::memory::Addr;

/// Words per coalescing segment: 128 bytes = 32 × 4-byte words.
pub const SEGMENT_WORDS: u32 = 32;

/// Result of coalescing one warp-wide access.
#[derive(Copy, Clone, Debug)]
pub struct Coalesced {
    segments: [u32; WARP_SIZE],
    len: usize,
}

impl Coalesced {
    /// Distinct 128-byte segments touched, in first-touch order.
    pub fn segments(&self) -> &[u32] {
        &self.segments[..self.len]
    }

    /// Number of memory transactions this access costs.
    pub fn transactions(&self) -> u32 {
        self.len as u32
    }
}

impl PartialEq for Coalesced {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl Eq for Coalesced {}

/// Slots of [`distinct_keys`]'s open-addressed index: twice the most keys
/// it can hold.
const INDEX_SLOTS: usize = 2 * WARP_SIZE;

/// Where the probe for `key` starts: Fibonacci hashing, the top six bits
/// of the product.
fn home_slot(key: u32) -> usize {
    (key.wrapping_mul(0x9e37_79b9) >> 26) as usize
}

/// Groups the lanes of `mask` by `key(lane)` — a segment, or a word — in
/// time linear in the lane count and without leaving the stack. Writes
/// the distinct keys to the front of `keys` in first-touch order and
/// returns how many there are; `on_lanes(position, n)` hears of `n` more
/// lanes on the key at `position`.
#[inline]
fn distinct_keys(
    mask: LaneMask,
    keys: &mut [u32; WARP_SIZE],
    key: impl Fn(usize) -> u32,
    mut on_lanes: impl FnMut(usize, u32),
) -> usize {
    let Some(leader) = mask.leader() else {
        return 0;
    };
    let first = key(leader);
    // The lanes that do not share the leader's key: none in a coalesced or
    // broadcast access, the case the paper's layouts aim for. A branch-free
    // pass over all 32 lanes, so that it vectorises.
    let mut others = 0u32;
    for lane in 0..WARP_SIZE {
        others |= u32::from(key(lane) != first) << lane;
    }
    let others = LaneMask::from_bits(others) & mask;
    keys[0] = first;
    let mut len = 1;
    on_lanes(0, mask.count() - others.count());
    if others.none() {
        return len;
    }
    // `index[h]` is 1 + the position in `keys` of the key whose probe ended
    // at slot `h`, or 0 for an empty slot.
    let mut index = [0u8; INDEX_SLOTS];
    index[home_slot(first)] = 1;
    // Neighbouring lanes mostly repeat a key, which then needs no probe.
    let (mut prev, mut at) = (first, 0);
    for lane in others.iter() {
        let k = key(lane);
        if k != prev {
            prev = k;
            let mut h = home_slot(k);
            at = loop {
                match index[h] {
                    0 => {
                        keys[len] = k;
                        len += 1;
                        index[h] = len as u8;
                        break len - 1;
                    }
                    p if keys[p as usize - 1] == k => break p as usize - 1,
                    _ => h = (h + 1) % INDEX_SLOTS,
                }
            };
        }
        on_lanes(at, 1);
    }
    len
}

/// Coalesces the addresses of the active lanes of one warp instruction.
///
/// Returns the distinct segments in the order first touched by ascending
/// lane id (the order the hardware's address-divergence serialiser would
/// replay them).
///
/// # Examples
///
/// ```
/// use gpu_sim::{coalesce::coalesce, Addr, LaneMask};
///
/// // 32 consecutive words starting at a segment boundary: one transaction.
/// let mut addrs = [Addr(0); 32];
/// for (i, a) in addrs.iter_mut().enumerate() {
///     *a = Addr(64 + i as u32);
/// }
/// assert_eq!(coalesce(LaneMask::FULL, &addrs).transactions(), 1);
/// ```
pub fn coalesce(mask: LaneMask, addrs: &[Addr; WARP_SIZE]) -> Coalesced {
    let mut c = Coalesced { segments: [0; WARP_SIZE], len: 0 };
    c.len = distinct_keys(mask, &mut c.segments, |lane| addrs[lane].segment(), |_, _| {});
    c
}

/// Coalesces a single-address access (every active lane hits `addr`).
///
/// GPU hardware broadcasts such accesses in one transaction; atomics to the
/// same word instead serialise, which the timing model charges separately.
pub fn coalesce_uniform(mask: LaneMask, addr: Addr) -> Coalesced {
    let mut segments = [0; WARP_SIZE];
    segments[0] = addr.segment();
    Coalesced { segments, len: usize::from(mask.any()) }
}

/// Counts, for an atomic warp instruction, how many lanes target each
/// distinct word. Same-word atomics serialise in hardware; the worst-case
/// depth (max lanes on one word) bounds the serialisation latency.
pub fn atomic_conflict_depth(mask: LaneMask, addrs: &[Addr; WARP_SIZE]) -> u32 {
    let mut lanes_on = [0u32; WARP_SIZE];
    let mut depth = 0;
    distinct_keys(
        mask,
        &mut [0; WARP_SIZE],
        |lane| addrs[lane].0,
        |word, n| {
            lanes_on[word] += n;
            depth = depth.max(lanes_on[word]);
        },
    );
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs_from(f: impl Fn(u32) -> u32) -> [Addr; WARP_SIZE] {
        std::array::from_fn(|i| Addr(f(i as u32)))
    }

    #[test]
    fn consecutive_words_coalesce_to_one() {
        let addrs = addrs_from(|i| 128 + i);
        let c = coalesce(LaneMask::FULL, &addrs);
        assert_eq!(c.transactions(), 1);
        assert_eq!(c.segments(), [4]);
    }

    #[test]
    fn strided_access_explodes() {
        // Stride of one segment per lane: 32 transactions.
        let addrs = addrs_from(|i| i * SEGMENT_WORDS);
        assert_eq!(coalesce(LaneMask::FULL, &addrs).transactions(), 32);
    }

    #[test]
    fn unaligned_but_contiguous_spans_two() {
        let addrs = addrs_from(|i| 16 + i); // crosses a segment boundary
        assert_eq!(coalesce(LaneMask::FULL, &addrs).transactions(), 2);
    }

    #[test]
    fn mask_restricts_lanes() {
        let addrs = addrs_from(|i| i * SEGMENT_WORDS);
        let m = LaneMask::first_n(4);
        assert_eq!(coalesce(m, &addrs).transactions(), 4);
        assert_eq!(coalesce(LaneMask::EMPTY, &addrs).transactions(), 0);
    }

    #[test]
    fn duplicate_segments_merge() {
        let addrs = addrs_from(|i| (i % 2) * SEGMENT_WORDS);
        let c = coalesce(LaneMask::FULL, &addrs);
        assert_eq!(c.transactions(), 2);
        // First-touch order: lane 0 touches segment 0 first.
        assert_eq!(c.segments(), [0, 1]);
    }

    #[test]
    fn colliding_keys_probe_past_the_table_end() {
        // 32 distinct keys that all start their probe in the last slot.
        let mut colliding = (0u32..).filter(|&k| home_slot(k) == INDEX_SLOTS - 1);
        let keys: [u32; WARP_SIZE] = std::array::from_fn(|_| colliding.next().unwrap());
        // As segments, each touched by two lanes 16 apart.
        let addrs = addrs_from(|i| keys[(i % 16) as usize] * SEGMENT_WORDS + i);
        assert_eq!(coalesce(LaneMask::FULL, &addrs).segments(), &keys[..16]);
        // As words: all distinct, except that lane 31 repeats lane 0.
        let words = addrs_from(|i| keys[(i % 31) as usize]);
        assert_eq!(atomic_conflict_depth(LaneMask::FULL, &words), 2);
    }

    #[test]
    fn uniform_access_is_single_transaction() {
        assert_eq!(coalesce_uniform(LaneMask::FULL, Addr(77)).transactions(), 1);
        assert_eq!(coalesce_uniform(LaneMask::EMPTY, Addr(77)).transactions(), 0);
    }

    #[test]
    fn conflict_depth_counts_same_word_lanes() {
        let addrs = addrs_from(|i| if i < 8 { 5 } else { 100 + i });
        assert_eq!(atomic_conflict_depth(LaneMask::FULL, &addrs), 8);
        assert_eq!(atomic_conflict_depth(LaneMask::EMPTY, &addrs), 0);
        let distinct = addrs_from(|i| i);
        assert_eq!(atomic_conflict_depth(LaneMask::FULL, &distinct), 1);
    }
}
