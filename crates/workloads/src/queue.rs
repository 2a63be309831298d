//! Queue-shaped workloads for blocking transactions (`gpu_stm::park`).
//!
//! Two condition-synchronisation shapes that plain optimistic STM handles
//! badly (a waiter can only abort-respin, burning cycles to observe the
//! same empty queue) and a [`Pipeline`] with [`Wake::Park`] handles well
//! (the waiter parks on its validated read set and is woken by the commit
//! that changes it):
//!
//! * **QU** — a bounded multi-producer/multi-consumer ring. Producers
//!   block when the ring is full (watching `head`), consumers block when
//!   it is empty (watching `tail` and the producers-done counter).
//! * **WS** — a work-stealing deque: the owner pushes and pops LIFO at
//!   the bottom while thieves steal FIFO from the top, blocking when the
//!   deque is empty and work remains in flight.
//!
//! Both verify their transfer (every item delivered exactly once) and
//! run under `park: false` ([`Wake::Respin`]) as the abort-respin
//! baseline the benches compare against — same kernels, same schedules,
//! the waiting lanes just spin instead of descheduling.

use crate::common::{outcome, RunConfig};
use crate::outcome::{RunError, RunOutcome};
use crate::Variant;
use gpu_sim::{Addr, LaneMask, LaunchConfig, Sim};
use gpu_stm::{LockStm, Pipeline, Policies, Stm, StmShared, Wake};

/// Bounded producer/consumer ring parameters.
#[derive(Copy, Clone, Debug)]
pub struct QueueParams {
    /// Ring capacity in items (small values force producers to block).
    pub capacity: u32,
    /// Total items transferred (values `1..=items`).
    pub items: u32,
    /// Producer warps (one transactional lane each).
    pub producers: u32,
    /// Consumer warps (one transactional lane each).
    pub consumers: u32,
    /// Blocking `retry()` (true) or the abort-respin baseline (false).
    pub park: bool,
}

impl Default for QueueParams {
    fn default() -> Self {
        QueueParams { capacity: 4, items: 64, producers: 2, consumers: 2, park: true }
    }
}

/// Work-stealing deque parameters.
#[derive(Copy, Clone, Debug)]
pub struct DequeParams {
    /// Deque capacity in items.
    pub capacity: u32,
    /// Total work items (values `1..=items`), all pushed by the owner.
    pub items: u32,
    /// Thief warps stealing from the top.
    pub thieves: u32,
    /// Idle cycles the owner inserts after each committed push; models
    /// per-item spawn work and lets thieves drain the deque (and block)
    /// between pushes.
    pub stagger: u32,
    /// Blocking `retry()` (true) or the abort-respin baseline (false).
    pub park: bool,
}

impl Default for DequeParams {
    fn default() -> Self {
        DequeParams { capacity: 8, items: 64, thieves: 2, stagger: 8000, park: true }
    }
}

/// Builds the blocking STM for `variant`: parking when `park`, the
/// abort-respin baseline otherwise. The pipeline needs to *own* its
/// inner runtime (the registry's device anchors are allocated here), so
/// the shapes are restricted to the fixed per-thread lock-based variants
/// ([`LockStm::for_variant`]); the blocking baseline comparison never
/// needs the rest.
fn blocking_stm(
    sim: &mut Sim,
    variant: Variant,
    cfg: &RunConfig,
    park: bool,
) -> Result<Pipeline<LockStm>, RunError> {
    let stm_cfg = cfg.stm;
    let shared = StmShared::init(sim, &stm_cfg)?;
    let Some(inner) = LockStm::for_variant(variant, shared, stm_cfg) else {
        return Err(RunError::Unsupported(
            "blocking queue workloads require a per-thread lock-based STM variant",
        ));
    };
    let inner = inner.with_observers(cfg.recorder.clone(), cfg.trace.clone());
    let wake = if park { Wake::Park } else { Wake::Respin };
    Ok(Pipeline::new(sim, inner, &stm_cfg, Policies { wake, ..Policies::default() })?)
}

/// Device layout of the ring (or deque): two cursors, a done/remaining
/// word, the slots, and the per-item delivery flags.
struct Ring {
    head: Addr, // pop cursor (deque: top)
    tail: Addr, // push cursor (deque: bottom)
    ctrl: Addr, // queue: producers-done count; deque: items remaining
    slots: Addr,
    out: Addr,
}

fn alloc_ring(sim: &mut Sim, capacity: u32, items: u32) -> Result<Ring, RunError> {
    Ok(Ring {
        head: sim.alloc(1)?,
        tail: sim.alloc(1)?,
        ctrl: sim.alloc(1)?,
        slots: sim.alloc(capacity)?,
        out: sim.alloc(items)?,
    })
}

fn verify_delivery(sim: &Sim, ring: &Ring, items: u32) -> Result<(), RunError> {
    let flags = sim.read_slice(ring.out, items);
    if let Some(i) = flags.iter().position(|&f| f != 1) {
        return Err(RunError::Verification(format!(
            "item {} delivered {} times (want exactly once)",
            i + 1,
            flags[i]
        )));
    }
    let head = sim.read(ring.head);
    let tail = sim.read(ring.tail);
    if head != tail {
        return Err(RunError::Verification(format!("ring not drained: head={head} tail={tail}")));
    }
    Ok(())
}

/// Runs the bounded producer/consumer ring under `variant`.
///
/// Producers split `1..=items` round-robin; each pushes into the ring,
/// blocking while it is full, then increments the producers-done word.
/// Consumers pop until the ring is empty *and* every producer finished.
/// Every delivered item sets its flag transactionally, so verification
/// catches losses and duplicates alike.
///
/// # Errors
///
/// Simulator failures, unsupported variants, and delivery-verification
/// failures.
pub fn run_queue(
    params: &QueueParams,
    variant: Variant,
    cfg: &RunConfig,
) -> Result<RunOutcome, RunError> {
    let p = *params;
    if p.capacity == 0 || p.items == 0 || p.producers == 0 || p.consumers == 0 {
        return Err(RunError::Verification("queue params must all be non-zero".to_string()));
    }
    let mut sim = Sim::new(cfg.sim.clone());
    let ring = alloc_ring(&mut sim, p.capacity, p.items)?;
    let stm = blocking_stm(&mut sim, variant, cfg, p.park)?;
    let (head_a, tail_a, done_a, slots, out) =
        (ring.head, ring.tail, ring.ctrl, ring.slots, ring.out);

    let warps = p.producers + p.consumers;
    let grid = LaunchConfig::new(1, warps * 32);
    let kstm = stm.clone();
    let report = sim.launch(grid, move |ctx| {
        let stm = kstm.clone();
        async move {
            let mut w = stm.new_warp();
            let wid = ctx.id().warp_in_block;
            let lane = 0usize;
            let m = LaneMask::lane(lane);
            ctx.set_speculative(true);
            if wid < p.producers {
                // Producer: push my share, blocking while the ring is full.
                let mut next = wid + 1; // items wid+1, wid+1+P, ... (1-based)
                while next <= p.items {
                    let active = stm.begin(&mut w, &ctx, m).await;
                    let head = stm.read_one(&mut w, &ctx, lane, head_a).await;
                    let tail = stm.read_one(&mut w, &ctx, lane, tail_a).await;
                    let mut pushed = false;
                    if stm.opaque(&w).contains(lane) {
                        if tail.wrapping_sub(head) >= p.capacity {
                            stm.retry(&mut w, m); // full: wait for a pop
                        } else {
                            let slot = slots.offset(tail % p.capacity);
                            stm.write_one(&mut w, &ctx, lane, slot, next).await;
                            stm.write_one(&mut w, &ctx, lane, tail_a, tail.wrapping_add(1)).await;
                            pushed = true;
                        }
                    }
                    let o = stm.commit_or_park(&mut w, &ctx, active).await;
                    if o.committed.contains(lane) && pushed {
                        next += p.producers;
                    }
                }
                // Announce completion (wakes consumers waiting on empty).
                loop {
                    let active = stm.begin(&mut w, &ctx, m).await;
                    let d = stm.read_one(&mut w, &ctx, lane, done_a).await;
                    stm.write_one(&mut w, &ctx, lane, done_a, d.wrapping_add(1)).await;
                    let o = stm.commit_or_park(&mut w, &ctx, active).await;
                    if o.committed.contains(lane) {
                        break;
                    }
                }
            } else {
                // Consumer: pop until empty and all producers are done.
                loop {
                    let active = stm.begin(&mut w, &ctx, m).await;
                    let head = stm.read_one(&mut w, &ctx, lane, head_a).await;
                    let tail = stm.read_one(&mut w, &ctx, lane, tail_a).await;
                    let mut finished = false;
                    if stm.opaque(&w).contains(lane) {
                        if head != tail {
                            let slot = slots.offset(head % p.capacity);
                            let v = stm.read_one(&mut w, &ctx, lane, slot).await;
                            if stm.opaque(&w).contains(lane) {
                                stm.write_one(&mut w, &ctx, lane, head_a, head.wrapping_add(1))
                                    .await;
                                // Delivery flag; modulo keeps a doomed
                                // lane's garbage value in bounds (its
                                // buffered write is discarded anyway).
                                let flag = out.offset(v.wrapping_sub(1) % p.items);
                                let n = stm.read_one(&mut w, &ctx, lane, flag).await;
                                stm.write_one(&mut w, &ctx, lane, flag, n.wrapping_add(1)).await;
                            }
                        } else {
                            let d = stm.read_one(&mut w, &ctx, lane, done_a).await;
                            if stm.opaque(&w).contains(lane) && d == p.producers {
                                finished = true; // read-only commit, then exit
                            } else {
                                stm.retry(&mut w, m); // empty: wait for a push
                            }
                        }
                    }
                    let o = stm.commit_or_park(&mut w, &ctx, active).await;
                    if o.committed.contains(lane) && finished {
                        break;
                    }
                }
            }
            ctx.set_speculative(false);
        }
    })?;
    verify_delivery(&sim, &ring, p.items)?;
    Ok(outcome(vec![report], &stm))
}

/// Runs the work-stealing deque under `variant`.
///
/// One owner warp pushes `1..=items` at the bottom, popping LIFO from
/// its own end when the deque is full; thief warps steal FIFO from the
/// top, blocking while the deque is empty and work remains. The shared
/// `remaining` word counts unprocessed items; processing (flag write +
/// decrement) happens inside the pop/steal transaction, so the count and
/// the flags agree under any interleaving.
///
/// # Errors
///
/// Simulator failures, unsupported variants, and delivery-verification
/// failures.
pub fn run_deque(
    params: &DequeParams,
    variant: Variant,
    cfg: &RunConfig,
) -> Result<RunOutcome, RunError> {
    let p = *params;
    if p.capacity == 0 || p.items == 0 || p.thieves == 0 {
        return Err(RunError::Verification("deque params must all be non-zero".to_string()));
    }
    let mut sim = Sim::new(cfg.sim.clone());
    let ring = alloc_ring(&mut sim, p.capacity, p.items)?;
    sim.write(ring.ctrl, p.items); // remaining
    let stm = blocking_stm(&mut sim, variant, cfg, p.park)?;
    let (top_a, bot_a, rem_a, slots, out) = (ring.head, ring.tail, ring.ctrl, ring.slots, ring.out);

    let grid = LaunchConfig::new(1, (1 + p.thieves) * 32);
    let kstm = stm.clone();
    let report = sim.launch(grid, move |ctx| {
        let stm = kstm.clone();
        async move {
            let mut w = stm.new_warp();
            let wid = ctx.id().warp_in_block;
            let lane = 0usize;
            let m = LaneMask::lane(lane);
            ctx.set_speculative(true);
            // Everyone processes one item the same way: claim it, mark
            // its flag, decrement the remaining count — atomically.
            macro_rules! process {
                ($v:expr) => {{
                    let flag = out.offset($v.wrapping_sub(1) % p.items);
                    let n = stm.read_one(&mut w, &ctx, lane, flag).await;
                    stm.write_one(&mut w, &ctx, lane, flag, n.wrapping_add(1)).await;
                    let r = stm.read_one(&mut w, &ctx, lane, rem_a).await;
                    stm.write_one(&mut w, &ctx, lane, rem_a, r.wrapping_sub(1)).await;
                }};
            }
            if wid == 0 {
                // Owner: push everything, popping LIFO when full; then
                // help drain until nothing remains.
                let mut next = 1u32;
                loop {
                    let active = stm.begin(&mut w, &ctx, m).await;
                    let top = stm.read_one(&mut w, &ctx, lane, top_a).await;
                    let bot = stm.read_one(&mut w, &ctx, lane, bot_a).await;
                    let mut pushed = false;
                    let mut finished = false;
                    if stm.opaque(&w).contains(lane) {
                        if next <= p.items && bot.wrapping_sub(top) < p.capacity {
                            let slot = slots.offset(bot % p.capacity);
                            stm.write_one(&mut w, &ctx, lane, slot, next).await;
                            stm.write_one(&mut w, &ctx, lane, bot_a, bot.wrapping_add(1)).await;
                            pushed = true;
                        } else if bot != top {
                            // Pop own bottom (LIFO).
                            let b1 = bot.wrapping_sub(1);
                            let slot = slots.offset(b1 % p.capacity);
                            let v = stm.read_one(&mut w, &ctx, lane, slot).await;
                            if stm.opaque(&w).contains(lane) {
                                stm.write_one(&mut w, &ctx, lane, bot_a, b1).await;
                                process!(v);
                            }
                        } else {
                            let r = stm.read_one(&mut w, &ctx, lane, rem_a).await;
                            if stm.opaque(&w).contains(lane) && r == 0 {
                                finished = true;
                            } else {
                                stm.retry(&mut w, m); // stolen work in flight
                            }
                        }
                    }
                    let o = stm.commit_or_park(&mut w, &ctx, active).await;
                    if o.committed.contains(lane) {
                        if pushed {
                            next += 1;
                            if p.stagger > 0 {
                                ctx.idle(p.stagger as u64).await;
                            }
                        }
                        if finished {
                            break;
                        }
                    }
                }
            } else {
                // Thief: steal FIFO from the top until nothing remains.
                loop {
                    let active = stm.begin(&mut w, &ctx, m).await;
                    let top = stm.read_one(&mut w, &ctx, lane, top_a).await;
                    let bot = stm.read_one(&mut w, &ctx, lane, bot_a).await;
                    let mut finished = false;
                    if stm.opaque(&w).contains(lane) {
                        if top != bot {
                            let slot = slots.offset(top % p.capacity);
                            let v = stm.read_one(&mut w, &ctx, lane, slot).await;
                            if stm.opaque(&w).contains(lane) {
                                stm.write_one(&mut w, &ctx, lane, top_a, top.wrapping_add(1)).await;
                                process!(v);
                            }
                        } else {
                            let r = stm.read_one(&mut w, &ctx, lane, rem_a).await;
                            if stm.opaque(&w).contains(lane) && r == 0 {
                                finished = true;
                            } else {
                                stm.retry(&mut w, m); // empty: wait for a push
                            }
                        }
                    }
                    let o = stm.commit_or_park(&mut w, &ctx, active).await;
                    if o.committed.contains(lane) && finished {
                        break;
                    }
                }
            }
            ctx.set_speculative(false);
        }
    })?;
    verify_delivery(&sim, &ring, p.items)?;
    if sim.read(ring.ctrl) != 0 {
        return Err(RunError::Verification(format!(
            "remaining count not drained: {}",
            sim.read(ring.ctrl)
        )));
    }
    Ok(outcome(vec![report], &stm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_stm::Phase;

    fn cfg() -> RunConfig {
        RunConfig::with_memory(1 << 16).with_locks(1 << 8)
    }

    #[test]
    fn queue_transfers_every_item_exactly_once() {
        let params = QueueParams::default();
        let out = run_queue(&params, Variant::HvSorting, &cfg()).unwrap();
        assert!(out.tx.parks >= 1, "an empty or full ring must park someone");
        assert_eq!(out.tx.parks, out.tx.wakes);
        assert!(out.tx.breakdown.get(Phase::Parked) > 0.0);
    }

    #[test]
    fn queue_blocks_consumers_on_initially_empty_ring() {
        // More consumers than producers and few items: consumers must
        // block at least at startup and near the drain.
        let params = QueueParams { capacity: 2, items: 8, producers: 1, consumers: 3, park: true };
        let out = run_queue(&params, Variant::HvSorting, &cfg()).unwrap();
        assert!(out.tx.parks >= 1);
    }

    #[test]
    fn queue_baseline_never_parks_but_still_delivers() {
        let params = QueueParams { park: false, ..QueueParams::default() };
        let out = run_queue(&params, Variant::HvSorting, &cfg()).unwrap();
        assert_eq!(out.tx.parks, 0);
        assert_eq!(out.tx.breakdown.get(Phase::Parked), 0.0);
    }

    #[test]
    fn parked_waiters_burn_fewer_instructions_than_respin() {
        let park = run_queue(&QueueParams::default(), Variant::HvSorting, &cfg()).unwrap();
        let base = run_queue(
            &QueueParams { park: false, ..QueueParams::default() },
            Variant::HvSorting,
            &cfg(),
        )
        .unwrap();
        let park_instr: u64 = park.kernels.iter().map(|k| k.stats.instructions).sum();
        let base_instr: u64 = base.kernels.iter().map(|k| k.stats.instructions).sum();
        assert!(
            base_instr > park_instr,
            "respin baseline must execute more instructions: base={base_instr} park={park_instr}"
        );
    }

    #[test]
    fn deque_drains_under_stealing() {
        let params = DequeParams::default();
        let out = run_deque(&params, Variant::HvSorting, &cfg()).unwrap();
        assert!(out.tx.parks >= 1, "thieves must block on the initially empty deque");
        assert_eq!(out.tx.parks, out.tx.wakes);
    }

    #[test]
    fn deque_baseline_matches_delivery_without_parking() {
        let params = DequeParams { park: false, ..DequeParams::default() };
        let out = run_deque(&params, Variant::HvSorting, &cfg()).unwrap();
        assert_eq!(out.tx.parks, 0);
    }

    #[test]
    fn queue_runs_under_every_lock_variant() {
        let params = QueueParams { capacity: 2, items: 16, producers: 1, consumers: 1, park: true };
        for v in [Variant::TbvSorting, Variant::HvSorting, Variant::HvBackoff, Variant::TbvBackoff]
        {
            run_queue(&params, v, &cfg()).unwrap_or_else(|e| panic!("{v}: {e}"));
        }
    }

    #[test]
    fn unsupported_variants_are_rejected() {
        let err = run_queue(&QueueParams::default(), Variant::Cgl, &cfg()).unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)));
        let err = run_deque(&DequeParams::default(), Variant::Vbv, &cfg()).unwrap_err();
        assert!(matches!(err, RunError::Unsupported(_)));
    }

    #[test]
    fn zero_params_rejected() {
        let err = run_queue(
            &QueueParams { producers: 0, ..QueueParams::default() },
            Variant::HvSorting,
            &cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Verification(_)));
    }
}
