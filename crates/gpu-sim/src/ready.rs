//! The executor's ready queue: which warp issues next.
//!
//! Warps issue in `(ready_cycle, key, slot)` order, where `key` is the
//! push sequence number (FIFO among warps ready at the same cycle) or a
//! seeded-random draw (a [`FaultPlan`](crate::FaultPlan) schedule shuffle).
//! The event loop pops one warp and pushes it back per simulated
//! instruction, and simulated time never runs backwards: nothing is pushed
//! with a ready cycle before that of the last pop. A *radix heap* turns
//! that into constant work per push and a few list hops per pop, where a
//! binary heap pays `log(warps)` three-field comparisons for each.
//!
//! A queued warp sits in the bucket numbered by the highest bit in which
//! its ready cycle differs from the last popped one. Bucket 0 — no
//! difference — is the group issuing now, sorted by key. When it runs dry
//! the lowest non-empty bucket holds the next ready cycle; its warps are
//! dealt out again relative to that cycle, each landing in a lower bucket
//! than before. Buckets are lists threaded through one per-slot array, so
//! after the slots exist nothing here allocates. Each list also keeps the
//! least ready cycle it holds, so finding the next cycle takes no walk and
//! dealing a bucket out walks it once.

use std::collections::VecDeque;

const NIL: u32 = u32::MAX;

#[derive(Copy, Clone)]
struct Entry {
    ready: u64,
    key: u64,
    /// Next slot in the same bucket's list.
    next: u32,
}

/// A list of slots threaded through [`Entry::next`].
#[derive(Copy, Clone)]
struct List {
    head: u32,
    tail: u32,
    /// Least ready cycle of the listed slots (`u64::MAX` when empty).
    soonest: u64,
}

const EMPTY: List = List { head: NIL, tail: NIL, soonest: u64::MAX };

pub(crate) struct ReadyQueue {
    /// Ready cycle of the last pop: no queued warp is ready before it.
    now: u64,
    /// What is known of each queued warp, by scheduler slot.
    entries: Vec<Entry>,
    /// The warps ready at `now`, ascending by `(key, slot)`.
    front: VecDeque<u32>,
    /// `later[b]`: warps whose ready cycle first differs from `now` in bit
    /// `b`, in push order.
    later: [List; 64],
    /// Bit `b` set iff `later[b]` is non-empty.
    occupied: u64,
}

impl ReadyQueue {
    pub(crate) fn new() -> Self {
        ReadyQueue {
            now: 0,
            entries: Vec::new(),
            front: VecDeque::new(),
            later: [EMPTY; 64],
            occupied: 0,
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
            self.entries.resize(slot + 1, Entry { ready: 0, key: 0, next: NIL });
        }
        self.entries[slot] = Entry { ready, key, next: NIL };
        if ready != self.now {
            self.append_later(slot as u32);
            return;
        }
        // Sequence keys only grow, so FIFO order always appends.
        let order = |s: u32| (self.entries[s as usize].key, s);
        let at = match self.front.back() {
            Some(&last) if order(last) > (key, slot as u32) => {
                self.front.partition_point(|&s| order(s) < (key, slot as u32))
            }
            _ => self.front.len(),
        };
        self.front.insert(at, slot as u32);
    }

    /// Appends `slot` to the bucket its ready cycle (later than `now`)
    /// belongs in.
    fn append_later(&mut self, slot: u32) {
        let ready = self.entries[slot as usize].ready;
        let b = (ready ^ self.now).ilog2() as usize;
        let list = &mut self.later[b];
        match list.tail {
            NIL => list.head = slot,
            tail => self.entries[tail as usize].next = slot,
        }
        list.tail = slot;
        list.soonest = list.soonest.min(ready);
        self.occupied |= 1 << b;
    }

    /// Ready cycle of the warp that [`pop`](Self::pop) would return.
    pub(crate) fn next_ready(&self) -> Option<u64> {
        if !self.front.is_empty() {
            return Some(self.now);
        }
        self.soonest_later().map(|(_, ready)| ready)
    }

    /// The lowest non-empty bucket — the one holding the soonest ready
    /// cycle past `now` — and that cycle.
    fn soonest_later(&self) -> Option<(usize, u64)> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        Some((b, self.later[b].soonest))
    }

    /// Removes and returns the next warp to issue: its ready cycle and slot.
    pub(crate) fn pop(&mut self) -> Option<(u64, usize)> {
        if self.front.is_empty() {
            let (b, soonest) = self.soonest_later()?;
            // Time moves to `soonest`; bucket `b` is dealt out again, in
            // order, so equal ready cycles keep their push order.
            self.now = soonest;
            let mut slot = std::mem::replace(&mut self.later[b], EMPTY).head;
            self.occupied &= !(1 << b);
            let mut last = None;
            let mut in_order = true;
            while slot != NIL {
                let e = &mut self.entries[slot as usize];
                let next = std::mem::replace(&mut e.next, NIL);
                if e.ready == soonest {
                    in_order &= last < Some((e.key, slot));
                    last = Some((e.key, slot));
                    self.front.push_back(slot);
                } else {
                    self.append_later(slot);
                }
                slot = next;
            }
            // Already in order unless the keys are a shuffle's random draws.
            if !in_order {
                let entries = &self.entries;
                self.front
                    .make_contiguous()
                    .sort_unstable_by_key(|&s| (entries[s as usize].key, s));
            }
        }
        self.front.pop_front().map(|slot| (self.now, slot as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::splitmix64;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Walks the list `later[b]`: its least ready cycle, and whether the
    /// warps ready then are listed in `(key, slot)` order.
    fn walk(q: &ReadyQueue, b: usize) -> (u64, bool) {
        let mut listed = Vec::new();
        let mut slot = q.later[b].head;
        while slot != NIL {
            let e = q.entries[slot as usize];
            listed.push((e.ready, e.key, slot));
            slot = e.next;
        }
        let soonest = listed.iter().map(|&(ready, _, _)| ready).min().unwrap_or(u64::MAX);
        let group: Vec<_> = listed.iter().filter(|e| e.0 == soonest).map(|e| (e.1, e.2)).collect();
        (soonest, group.windows(2).all(|w| w[0] < w[1]))
    }

    /// Drives the queue and a binary heap of `(ready, key, slot)` triples
    /// through the executor's access pattern and checks they agree on
    /// every pop. Returns how many refills dealt out a group that arrived
    /// in `(key, slot)` order and how many one that needed sorting.
    fn agrees_with_binary_heap(
        seed: u64,
        warps: usize,
        shuffle: bool,
        max_cost: u64,
    ) -> (u32, u32) {
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
        let mut refills = (0, 0);
        for step in 0..4_000.max(40 * warps) {
            assert_eq!(q.next_ready(), model.peek().map(|Reverse((r, _, _))| *r), "step {step}");
            if let (true, Some((b, soonest))) = (q.front.is_empty(), q.soonest_later()) {
                let (walked, in_order) = walk(&q, b);
                assert_eq!(soonest, walked, "seed {seed:#x} step {step}: cached soonest");
                if in_order {
                    refills.0 += 1;
                } else {
                    refills.1 += 1;
                }
            }
            let got = q.pop();
            let want = model.pop().map(|Reverse((ready, _, slot))| (ready, slot));
            assert_eq!(got, want, "seed {seed:#x} step {step}");
            let Some((now, slot)) = got else { break };
            // One warp in 64 retires; the rest requeue after a cost that is
            // often zero or shared, now and then a long backoff.
            let draw = splitmix64(&mut rng);
            let cost = match draw % 64 {
                0 => continue,
                1 => (draw >> 8) % (1 << 40),
                2..=16 => 0,
                _ => (draw >> 8) % max_cost,
            };
            push(&mut q, &mut model, &mut rng, slot, now + cost);
        }
        refills
    }

    #[test]
    fn fifo_order_matches_a_binary_heap() {
        for seed in 0..24 {
            agrees_with_binary_heap(seed, 1 + (seed as usize * 7) % 70, false, 1 + seed % 5 * 150);
        }
    }

    #[test]
    fn shuffled_order_matches_a_binary_heap() {
        // Keys drawn from four values, so ties fall through to the slot.
        for seed in 100..124 {
            agrees_with_binary_heap(seed, 1 + (seed as usize * 7) % 70, true, 1 + seed % 5 * 150);
        }
    }

    #[test]
    fn stm_moderate_shaped_order_matches_a_binary_heap() {
        // Hundreds of warps backing off for up to 4 096 cycles. FIFO groups
        // always arrive in order, so the refill skips its sort; shuffled
        // ones arrive both ways.
        for seed in 0..6 {
            let warps = 128 + seed as usize * 32;
            let (in_order, unsorted) = agrees_with_binary_heap(seed, warps, false, 4_096);
            assert!(in_order > 0 && unsorted == 0, "seed {seed}: {in_order}/{unsorted}");
            let (in_order, unsorted) = agrees_with_binary_heap(seed + 200, warps, true, 4_096);
            assert!(in_order > 0 && unsorted > 0, "seed {seed}: {in_order}/{unsorted}");
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
