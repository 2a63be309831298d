//! The executor's ready queue: which warp issues next.
//!
//! Warps issue in `(ready_cycle, key, slot)` order, where `key` is the
//! push sequence number (FIFO among warps ready at the same cycle) or a
//! seeded-random draw (a [`FaultPlan`](crate::FaultPlan) schedule shuffle).
//! The event loop pops one warp and pushes it back per simulated
//! instruction, and simulated time never runs backwards: nothing is pushed
//! with a ready cycle before that of the last pop. A *timing wheel* turns
//! that into constant work per push and per pop, where a binary heap pays
//! `log(warps)` three-field comparisons for each.
//!
//! A warp ready at the cycle of the last pop joins the group issuing now,
//! sorted by key. One ready less than [`SPAN`] cycles later is appended to
//! the wheel's list for its cycle (`ready % SPAN`); a two-level occupancy
//! bitmap finds the next non-empty list in two word scans. One ready
//! further ahead waits in a binary heap, the overflow. When the group
//! issuing now runs dry, time moves to the soonest cycle either tier
//! holds and that cycle's warps become the group: the overflow's first,
//! then the wheel's.
//!
//! That order is FIFO across the tiers. A warp goes to the overflow only
//! when its cycle lies at least `SPAN` past the last pop, and to the wheel
//! only when it lies less, and the last pop's cycle never decreases; so
//! every overflow entry for a cycle was pushed before every wheel entry
//! for it. The overflow yields its group in `(key, slot)` order and a
//! wheel list holds its cycle in push order, so while every key is larger
//! than the one pushed before it (sequence numbers) every group arrives
//! sorted; only a shuffle's groups need a sort. The group issuing now and
//! the wheel's lists are threaded through one per-slot array, so a refill
//! splices a list instead of copying it. The wheel is allocated on the
//! first push past the current cycle (a launch under an external schedule
//! policy never makes one), the overflow and a shuffle's sort buffer on
//! their first use, each with room for every queued warp; so pushes and
//! pops allocate again only when the launch's slots outgrow them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles ahead of the last pop that the wheel covers. Most requeues land
/// 16–255 cycles ahead (an ALU step, an L2 hit, an atomic); only backoff
/// delays reach past this span, and they are rare enough for a heap.
const SPAN: usize = 2048;

/// Words of the wheel's occupancy bitmap: one bit per list, and one bit
/// per word in [`ReadyQueue::occupied_words`].
const WORDS: usize = SPAN / 64;
const _: () = assert!(SPAN.is_power_of_two() && WORDS <= 64);

const NIL: u32 = u32::MAX;

#[derive(Copy, Clone)]
struct Entry {
    key: u64,
    /// Next slot in the same list.
    next: u32,
}

/// A list of slots threaded through [`Entry::next`].
#[derive(Copy, Clone)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List { head: NIL, tail: NIL };

pub(crate) struct ReadyQueue {
    /// Ready cycle of the last pop: no queued warp is ready before it.
    now: u64,
    /// What is known of each queued warp, by scheduler slot.
    entries: Vec<Entry>,
    /// The warps ready at `now`, ascending by `(key, slot)`.
    front: List,
    /// `wheel[c % SPAN]`: the warps ready at cycle `c`, for `now < c <
    /// now + SPAN`, in push order. Empty until the first push past `now`.
    wheel: Vec<List>,
    /// Bit `i % 64` of word `i / 64` set iff `wheel[i]` is non-empty.
    occupied: [u64; WORDS],
    /// Bit `w` set iff `occupied[w]` is non-zero.
    occupied_words: u64,
    /// `(ready, key, slot)` of the warps ready `SPAN` or more cycles past
    /// the `now` of their push.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Whether every push so far had a larger key than the one before it,
    /// as sequence numbers do: then every group arrives sorted.
    keys_grow: bool,
    last_key: Option<u64>,
    /// A shuffled group's slots while they are sorted.
    sorting: Vec<u32>,
}

impl ReadyQueue {
    pub(crate) fn new() -> Self {
        ReadyQueue {
            now: 0,
            entries: Vec::new(),
            front: EMPTY,
            wheel: Vec::new(),
            occupied: [0; WORDS],
            occupied_words: 0,
            overflow: BinaryHeap::new(),
            keys_grow: true,
            last_key: None,
            sorting: Vec::new(),
        }
    }

    /// Queues the warp in `slot` to issue at `ready`, after every queued
    /// warp with the same ready cycle and a smaller `(key, slot)`.
    ///
    /// # Panics
    ///
    /// Panics if `ready` lies before the ready cycle of the last pop.
    pub(crate) fn push(&mut self, slot: usize, ready: u64, key: u64) {
        assert!(ready >= self.now, "warp queued at cycle {ready}, before cycle {}", self.now);
        if slot >= self.entries.len() {
            self.entries.resize(slot + 1, Entry { key: 0, next: NIL });
        }
        self.entries[slot] = Entry { key, next: NIL };
        self.keys_grow &= self.last_key < Some(key);
        self.last_key = Some(key);
        let slot = slot as u32;
        match ready - self.now {
            0 => self.join_front(slot),
            ahead if ahead < SPAN as u64 => self.append_to_wheel(ready, slot),
            _ => {
                // Every queued warp may wait here at once.
                self.overflow.reserve(self.entries.len().saturating_sub(self.overflow.len()));
                self.overflow.push(Reverse((ready, key, slot)));
            }
        }
    }

    /// Inserts `slot` into the group issuing now, keeping it ascending by
    /// `(key, slot)`.
    fn join_front(&mut self, slot: u32) {
        let order = |s: u32| (self.entries[s as usize].key, s);
        // Sequence keys only grow, so FIFO order always appends.
        if self.front.tail == NIL || order(self.front.tail) < order(slot) {
            match self.front.tail {
                NIL => self.front.head = slot,
                tail => self.entries[tail as usize].next = slot,
            }
            self.front.tail = slot;
            return;
        }
        let (mut prev, mut at) = (NIL, self.front.head);
        while order(at) < order(slot) {
            (prev, at) = (at, self.entries[at as usize].next);
        }
        self.entries[slot as usize].next = at;
        match prev {
            NIL => self.front.head = slot,
            prev => self.entries[prev as usize].next = slot,
        }
    }

    /// Appends `slot` to the wheel list of `ready`, less than `SPAN`
    /// cycles past `now`.
    fn append_to_wheel(&mut self, ready: u64, slot: u32) {
        if self.wheel.is_empty() {
            self.wheel = vec![EMPTY; SPAN];
        }
        let at = ready as usize % SPAN;
        let list = &mut self.wheel[at];
        match list.tail {
            NIL => list.head = slot,
            tail => self.entries[tail as usize].next = slot,
        }
        list.tail = slot;
        self.occupied[at / 64] |= 1 << (at % 64);
        self.occupied_words |= 1 << (at / 64);
    }

    /// Ready cycle of the warp that [`pop`](Self::pop) would return.
    pub(crate) fn next_ready(&self) -> Option<u64> {
        if self.front.head != NIL {
            return Some(self.now);
        }
        self.soonest_later()
    }

    /// The soonest ready cycle past `now` that either tier holds.
    fn soonest_later(&self) -> Option<u64> {
        match (self.soonest_on_wheel(), self.overflow.peek()) {
            (Some(wheel), Some(&Reverse((overflow, _, _)))) => Some(wheel.min(overflow)),
            (wheel, overflow) => wheel.or(overflow.map(|&Reverse((ready, _, _))| ready)),
        }
    }

    /// The soonest ready cycle on the wheel: the first non-empty list at
    /// or after `now`'s, wrapping around past the wheel's end.
    fn soonest_on_wheel(&self) -> Option<u64> {
        if self.occupied_words == 0 {
            return None;
        }
        let from = self.now as usize % SPAN;
        let (w, b) = (from / 64, from % 64);
        let at = match self.occupied[w] >> b {
            0 => {
                let after = self.occupied_words & (u64::MAX << w << 1);
                let w = match after {
                    0 => self.occupied_words.trailing_zeros(),
                    _ => after.trailing_zeros(),
                } as usize;
                w * 64 + self.occupied[w].trailing_zeros() as usize
            }
            bits => from + bits.trailing_zeros() as usize,
        };
        Some(self.now + ((at + SPAN - from) % SPAN) as u64)
    }

    /// Removes and returns the next warp to issue: its ready cycle and slot.
    pub(crate) fn pop(&mut self) -> Option<(u64, usize)> {
        if self.front.head == NIL {
            self.advance(self.soonest_later()?);
        }
        let slot = self.front.head;
        self.front.head = self.entries[slot as usize].next;
        if self.front.head == NIL {
            self.front.tail = NIL;
        }
        Some((self.now, slot as usize))
    }

    /// Moves time to `next`, the soonest queued cycle, and makes its warps
    /// the group issuing now: the overflow's, then the wheel's.
    fn advance(&mut self, next: u64) {
        self.now = next;
        let at = next as usize % SPAN;
        if let Some(list) = self.wheel.get_mut(at) {
            self.front = std::mem::replace(list, EMPTY);
            self.occupied[at / 64] &= !(1 << (at % 64));
            if self.occupied[at / 64] == 0 {
                self.occupied_words &= !(1 << (at / 64));
            }
        }
        // The overflow's warps go in front of the wheel's, in the order
        // the heap yields them.
        let (mut last, wheel_head) = (NIL, self.front.head);
        while let Some(&Reverse((ready, _, slot))) = self.overflow.peek() {
            if ready != next {
                break;
            }
            self.overflow.pop();
            match last {
                NIL => self.front.head = slot,
                last => self.entries[last as usize].next = slot,
            }
            last = slot;
        }
        if last != NIL {
            self.entries[last as usize].next = wheel_head;
            if wheel_head == NIL {
                self.front.tail = last;
            }
        }
        if !self.keys_grow && self.front.head != self.front.tail {
            self.sort_front();
        }
    }

    /// Sorts the group issuing now by `(key, slot)`.
    fn sort_front(&mut self) {
        let entries = &mut self.entries;
        self.sorting.clear();
        self.sorting.reserve(entries.len());
        let mut at = self.front.head;
        while at != NIL {
            self.sorting.push(at);
            at = entries[at as usize].next;
        }
        self.sorting.sort_unstable_by_key(|&s| (entries[s as usize].key, s));
        for pair in self.sorting.windows(2) {
            entries[pair[0] as usize].next = pair[1];
        }
        let (first, last) = (self.sorting[0], self.sorting[self.sorting.len() - 1]);
        entries[last as usize].next = NIL;
        self.front = List { head: first, tail: last };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::splitmix64;

    /// What the refills of one run dealt with.
    #[derive(Default, Debug)]
    struct Refills {
        /// Groups that arrived in `(key, slot)` order.
        in_order: u32,
        /// Groups that needed sorting.
        unsorted: u32,
        /// Groups with warps from both the overflow and the wheel.
        mixed: u32,
        /// Wheel groups found past the wheel's end, wrapping around.
        wrapped: u32,
    }

    /// A queued warp's `(key, slot, from_overflow)`.
    type Queued = (u64, u32, bool);

    /// The group the next refill makes current: the soonest cycle over
    /// the overflow's first entry and every occupied wheel list, and its
    /// warps in the order a refill takes them — the overflow's ascending,
    /// then the wheel list's.
    fn next_group(q: &ReadyQueue) -> Option<(u64, Vec<Queued>)> {
        let mut lists = Vec::new();
        for (w, &word) in q.occupied.iter().enumerate() {
            assert_eq!(q.occupied_words >> w & 1 == 1, word != 0, "occupancy word {w}");
            let mut bits = word;
            while bits != 0 {
                let at = w * 64 + bits.trailing_zeros() as usize;
                lists.push((q.now + ((at + SPAN - q.now as usize % SPAN) % SPAN) as u64, at));
                bits &= bits - 1;
            }
        }
        let on_wheel = lists.iter().map(|&(ready, _)| ready).min();
        let on_overflow = q.overflow.peek().map(|&Reverse((ready, _, _))| ready);
        let soonest = [on_wheel, on_overflow].into_iter().flatten().min()?;
        let mut group = Vec::new();
        if on_overflow == Some(soonest) {
            group.extend(q.overflow.iter().map(|e| e.0).filter(|e| e.0 == soonest));
            group.sort_unstable();
        }
        let mut group: Vec<_> = group.into_iter().map(|(_, key, slot)| (key, slot, true)).collect();
        if let Some(&(_, at)) = lists.iter().find(|&&(ready, _)| ready == soonest) {
            let mut slot = q.wheel[at].head;
            assert_ne!(slot, NIL, "wheel list {at} is empty but marked occupied");
            while slot != NIL {
                let e = q.entries[slot as usize];
                group.push((e.key, slot, false));
                slot = e.next;
            }
        }
        Some((soonest, group))
    }

    /// Drives the queue and a binary heap of `(ready, key, slot)` triples
    /// through the executor's access pattern and checks they agree on
    /// every pop, and that every refill finds the soonest queued cycle.
    fn agrees_with_binary_heap(seed: u64, warps: usize, shuffle: bool, max_cost: u64) -> Refills {
        let mut rng = seed;
        let mut q = ReadyQueue::new();
        let mut model = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |q: &mut ReadyQueue, model: &mut BinaryHeap<_>, rng: &mut u64, slot, at| {
            let key = if shuffle { splitmix64(rng) % 4 } else { seq };
            seq += 1;
            q.push(slot, at, key);
            model.push(Reverse((at, key, slot)));
        };
        for slot in 0..warps {
            push(&mut q, &mut model, &mut rng, slot, 0);
        }
        let mut refills = Refills::default();
        for step in 0..4_000.max(40 * warps) {
            assert_eq!(q.next_ready(), model.peek().map(|Reverse((r, _, _))| *r), "step {step}");
            if let (NIL, Some((soonest, group))) = (q.front.head, next_group(&q)) {
                assert_eq!(q.soonest_later(), Some(soonest), "seed {seed:#x} step {step}");
                if group.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)) {
                    refills.in_order += 1;
                } else {
                    refills.unsorted += 1;
                }
                refills.mixed += u32::from(group[0].2 && !group[group.len() - 1].2);
                let wraps = (soonest as usize % SPAN) < (q.now as usize % SPAN);
                refills.wrapped += u32::from(wraps && group.iter().any(|e| !e.2));
            }
            let got = q.pop();
            let want = model.pop().map(|Reverse((ready, _, slot))| (ready, slot));
            assert_eq!(got, want, "seed {seed:#x} step {step}");
            let Some((now, slot)) = got else { break };
            // One warp in 64 retires; the rest requeue after a cost that is
            // often zero or shared, sometimes just short of the wheel's
            // span or just past it, now and then a long backoff, and once
            // in a while to the end of time.
            let draw = splitmix64(&mut rng);
            let span = SPAN as u64;
            let at = match draw % 64 {
                0 => continue,
                1 if draw >> 6 & 63 == 0 => u64::MAX - (draw >> 12) % (2 * span),
                1 => now.saturating_add((draw >> 8) % (1 << 40)),
                2..=12 => now,
                // A grid cycle 1–5 quarter-spans ahead: warps pushed before
                // and after it comes within the span share it.
                13..=18 => (now | (span / 4 - 1)).saturating_add(1 + (draw >> 8) % 5 * span / 4),
                19..=22 => now.saturating_add(span - 2 + (draw >> 8) % 4),
                _ => now.saturating_add((draw >> 8) % max_cost),
            };
            push(&mut q, &mut model, &mut rng, slot, at.max(now));
        }
        refills
    }

    #[test]
    fn fifo_order_matches_a_binary_heap() {
        let (mut mixed, mut wrapped) = (0, 0);
        for seed in 0..24 {
            let r = agrees_with_binary_heap(
                seed,
                1 + (seed as usize * 7) % 70,
                false,
                1 + seed % 5 * 150,
            );
            assert_eq!(r.unsorted, 0, "seed {seed}: {r:?}");
            (mixed, wrapped) = (mixed + r.mixed, wrapped + r.wrapped);
        }
        assert!(mixed > 0 && wrapped > 0, "{mixed} mixed groups, {wrapped} wrapped");
    }

    #[test]
    fn shuffled_order_matches_a_binary_heap() {
        // Keys drawn from four values, so ties fall through to the slot.
        let (mut mixed, mut wrapped) = (0, 0);
        for seed in 100..124 {
            let r = agrees_with_binary_heap(
                seed,
                1 + (seed as usize * 7) % 70,
                true,
                1 + seed % 5 * 150,
            );
            (mixed, wrapped) = (mixed + r.mixed, wrapped + r.wrapped);
        }
        assert!(mixed > 0 && wrapped > 0, "{mixed} mixed groups, {wrapped} wrapped");
    }

    #[test]
    fn stm_moderate_shaped_order_matches_a_binary_heap() {
        // Hundreds of warps backing off for up to 4 096 cycles, past the
        // wheel's span. FIFO groups always arrive in order, overflow and
        // wheel alike, so the refill skips its sort; shuffled ones arrive
        // both ways.
        for seed in 0..6 {
            let warps = 128 + seed as usize * 32;
            let r = agrees_with_binary_heap(seed, warps, false, 4_096);
            assert!(r.in_order > 0 && r.unsorted == 0 && r.mixed > 0, "seed {seed}: {r:?}");
            let r = agrees_with_binary_heap(seed + 200, warps, true, 4_096);
            assert!(r.in_order > 0 && r.unsorted > 0 && r.mixed > 0, "seed {seed}: {r:?}");
        }
    }

    #[test]
    fn empty_queue_has_nothing_ready() {
        let mut q = ReadyQueue::new();
        assert_eq!(q.next_ready(), None);
        assert_eq!(q.pop(), None);
        q.push(3, u64::MAX, 0);
        assert_eq!(q.next_ready(), Some(u64::MAX));
        assert_eq!(q.pop(), Some((u64::MAX, 3)));
        assert_eq!(q.pop(), None);
        // At the end of time every push joins the group issuing now.
        q.push(1, u64::MAX, 7);
        q.push(2, u64::MAX, 5);
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some((u64::MAX, 2)), Some((u64::MAX, 1)), None));
    }

    #[test]
    fn overflow_and_sort_buffer_are_sized_once_for_every_slot() {
        const WARPS: usize = 100;
        let mut q = ReadyQueue::new();
        for slot in 0..WARPS {
            q.push(slot, 0, (WARPS - slot) as u64);
        }
        // Every warp moves to the overflow, one push at a time.
        let mut capacity = None;
        for _ in 0..WARPS {
            let (_, slot) = q.pop().unwrap();
            q.push(slot, 2 * SPAN as u64, slot as u64 ^ 0x55);
            assert_eq!(*capacity.get_or_insert(q.overflow.capacity()), q.overflow.capacity());
        }
        assert!(capacity >= Some(WARPS));
        // They issue as one shuffled group, sorted once.
        assert_eq!(q.pop(), Some((2 * SPAN as u64, 0x55)));
        assert!(q.sorting.capacity() >= WARPS);
    }

    #[test]
    #[should_panic(expected = "before cycle 10")]
    fn time_does_not_run_backwards() {
        let mut q = ReadyQueue::new();
        q.push(0, 10, 0);
        q.pop();
        q.push(0, 9, 1);
    }
}
