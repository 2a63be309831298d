//! External schedule control: a hook that hands every scheduling decision
//! to an outside controller.
//!
//! The default event loop orders warps by `(ready_cycle, issue_seq)` (or a
//! seeded shuffle under a [`FaultPlan`](crate::FaultPlan)). Either way the
//! simulator itself decides the interleaving. A [`SchedulePolicy`] inverts
//! that: when [`SimConfig::schedule`](crate::SimConfig) is set, the
//! executor presents the full set of runnable warps at every decision
//! point — i.e. before every warp instruction: global loads/stores,
//! atomics, fences, ALU and idle steps alike — and the policy picks which
//! warp issues next. Simulated time is collapsed to a monotonic counter
//! (the chosen warp's ready cycle, clamped to never regress), so a policy
//! explores *orderings*, not timings.
//!
//! After each executed instruction the policy observes a [`StepRecord`]
//! describing the warp's memory [`StepEffect`] — the raw material for
//! happens-before analysis and dynamic partial-order reduction in the
//! `tm-verify` crate, which is the intended consumer of this hook.

use crate::mask::LaneMask;
use crate::memory::Addr;
use crate::warp::LaneAddrs;
use std::cell::RefCell;
use std::rc::Rc;

/// The shared-memory effect of one executed warp instruction, as observed
/// by a [`SchedulePolicy`].
///
/// Address lists are the *active lanes'* addresses, sorted and
/// deduplicated, so effects compare cheaply.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum StepEffect {
    /// No global-memory effect (ALU, idle, thread-local metadata access).
    Local,
    /// A global load by the active lanes.
    Load(Vec<Addr>),
    /// A global store by the active lanes.
    Store(Vec<Addr>),
    /// An atomic read-modify-write / compare-and-swap by the active lanes.
    Atomic(Vec<Addr>),
    /// A memory fence.
    Fence,
    /// The warp's future completed; it will issue no further steps.
    Retire,
}

impl StepEffect {
    /// The addresses this effect touches (empty for non-memory effects).
    pub fn addrs(&self) -> &[Addr] {
        match self {
            StepEffect::Load(a) | StepEffect::Store(a) | StepEffect::Atomic(a) => a,
            _ => &[],
        }
    }

    /// Whether the effect may change memory (store or atomic).
    pub fn writes(&self) -> bool {
        matches!(self, StepEffect::Store(_) | StepEffect::Atomic(_))
    }

    /// Whether two effects *from different warps* conflict under the
    /// verifier's independence relation: same-address pairs where at least
    /// one side writes conflict, reads commute, and fences conservatively
    /// order against every memory effect (and each other). `Local` and
    /// `Retire` commute with everything.
    pub fn conflicts(&self, other: &StepEffect) -> bool {
        use StepEffect::*;
        match (self, other) {
            (Local | Retire, _) | (_, Local | Retire) => false,
            (Fence, _) | (_, Fence) => true,
            (Load(_), Load(_)) => false,
            _ => intersects(self.addrs(), other.addrs()),
        }
    }
}

/// Merge-walk intersection test over two sorted address lists.
fn intersects(a: &[Addr], b: &[Addr]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Collects the active lanes' addresses of a warp instruction, sorted and
/// deduplicated, for effect recording.
pub(crate) fn effect_addrs(mask: LaneMask, addrs: &LaneAddrs) -> Vec<Addr> {
    let mut out: Vec<Addr> = mask.iter().map(|l| addrs[l]).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// One warp the policy may schedule next.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RunnableWarp {
    /// Block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// Cycle at which the default scheduler would consider it ready.
    pub ready: u64,
}

/// One executed warp instruction, reported to the policy after the fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// The instruction's observable memory effect.
    pub effect: StepEffect,
}

/// An external warp-scheduling controller.
///
/// Installed via [`SimConfig::schedule`](crate::SimConfig); see the
/// [module docs](self) for the execution model.
pub trait SchedulePolicy {
    /// Picks the next warp to issue one instruction, as an index into
    /// `runnable`. The slice is non-empty and sorted by
    /// `(block, warp_in_block)`; the same warp keeps the same identity for
    /// the whole launch. Out-of-range indices panic.
    fn pick(&mut self, now: u64, runnable: &[RunnableWarp]) -> usize;

    /// Observes the instruction the picked warp just executed (including
    /// its [`StepEffect::Retire`] when the warp finishes). The record is
    /// handed over, so a policy that keeps the effect need not clone it.
    fn observe(&mut self, _step: StepRecord) {}
}

/// A cloneable, shareable handle to a [`SchedulePolicy`], installable in
/// [`SimConfig::schedule`](crate::SimConfig).
///
/// Clones share the same underlying policy, so a controller can keep one
/// handle to inspect state it accumulated during the run.
#[derive(Clone)]
pub struct PolicyHandle(Rc<RefCell<dyn SchedulePolicy>>);

impl PolicyHandle {
    /// Wraps a policy in a fresh shared handle.
    pub fn new(policy: impl SchedulePolicy + 'static) -> Self {
        PolicyHandle(Rc::new(RefCell::new(policy)))
    }

    /// Wraps an already-shared policy, letting the caller keep access to
    /// it while the simulator drives it.
    pub fn shared(policy: Rc<RefCell<dyn SchedulePolicy>>) -> Self {
        PolicyHandle(policy)
    }

    pub(crate) fn pick(&self, now: u64, runnable: &[RunnableWarp]) -> usize {
        self.0.borrow_mut().pick(now, runnable)
    }

    pub(crate) fn observe(&self, step: StepRecord) {
        self.0.borrow_mut().observe(step);
    }
}

impl std::fmt::Debug for PolicyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PolicyHandle(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr_list(xs: &[u32]) -> Vec<Addr> {
        xs.iter().map(|&x| Addr(x)).collect()
    }

    #[test]
    fn reads_commute_writes_conflict() {
        let r = StepEffect::Load(addr_list(&[4, 8]));
        let r2 = StepEffect::Load(addr_list(&[4]));
        let w = StepEffect::Store(addr_list(&[8]));
        let a = StepEffect::Atomic(addr_list(&[2, 4]));
        assert!(!r.conflicts(&r2));
        assert!(r.conflicts(&w));
        assert!(w.conflicts(&r));
        assert!(r.conflicts(&a));
        assert!(!w.conflicts(&a));
        assert!(a.conflicts(&StepEffect::Atomic(addr_list(&[4]))));
    }

    #[test]
    fn fences_order_everything_but_local() {
        let f = StepEffect::Fence;
        assert!(f.conflicts(&StepEffect::Fence));
        assert!(f.conflicts(&StepEffect::Load(addr_list(&[1]))));
        assert!(!f.conflicts(&StepEffect::Local));
        assert!(!f.conflicts(&StepEffect::Retire));
        assert!(!StepEffect::Local.conflicts(&f));
    }

    #[test]
    fn effect_addrs_sorted_deduped() {
        let mut addrs = [Addr::NULL; crate::WARP_SIZE];
        addrs[0] = Addr(9);
        addrs[1] = Addr(3);
        addrs[2] = Addr(9);
        let got = effect_addrs(LaneMask::first_n(3), &addrs);
        assert_eq!(got, addr_list(&[3, 9]));
    }
}
