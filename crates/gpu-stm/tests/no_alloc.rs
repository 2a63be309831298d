//! The STM side of the hot-path contract of DESIGN.md §2: once a warp's
//! descriptor has grown to the size of its transactions, running more of
//! them never touches the heap. So the allocation count of a launch may
//! depend on its grid and on the largest transaction, but not on how many
//! transactions each lane commits.

use gpu_sim::{Addr, LaunchConfig, Sim, SimConfig, WarpCtx, WARP_SIZE};
use gpu_stm::{
    lane_addrs, lane_vals, tx_trace_sink, EgpgvStm, LockStm, NorecStm, Pipeline, Policies,
    RobustConfig, SchedulerConfig, Stm, StmConfig, StmShared,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

thread_local! {
    /// Allocations made by this thread, so that tests running side by side
    /// do not count each other's.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Words a lane's transactions range over; neighbouring lanes share half,
/// so lanes of the warp conflict and retry.
const SPAN: u32 = 16;
/// Reads per transaction; the first `WRITES` of the words read are written.
const READS: u32 = 4;
const WRITES: u32 = 2;

/// Every lane commits `txs` transactions of `READS` reads and `WRITES`
/// writes, each over words of its span in a different order, so lock-log
/// inserts land before, between and after earlier entries.
async fn kernel<S: Stm>(ctx: WarpCtx, stm: Rc<S>, data: Addr, txs: u32) {
    let mut w = stm.new_warp();
    let launch = ctx.id().launch_mask;
    let mut done = [0u32; WARP_SIZE];
    let word = |l: usize, tx: u32, i: u32| {
        data.offset(l as u32 * SPAN / 2 + (tx * 5 + i * 7 + l as u32) % SPAN)
    };
    loop {
        let pending = launch.filter(|l| done[l] < txs);
        if pending.none() {
            break;
        }
        let active = stm.begin(&mut w, &ctx, pending).await;
        let mut sum = [0u32; WARP_SIZE];
        for i in 0..READS {
            let live = active & stm.opaque(&w);
            let vals =
                stm.read(&mut w, &ctx, live, &lane_addrs(live, |l| word(l, done[l], i))).await;
            for l in live.iter() {
                sum[l] = sum[l].wrapping_add(vals[l]);
            }
        }
        for i in 0..WRITES {
            let live = active & stm.opaque(&w);
            let addrs = lane_addrs(live, |l| word(l, done[l], i));
            stm.write(&mut w, &ctx, live, &addrs, &lane_vals(live, |l| sum[l] + i)).await;
        }
        for l in stm.commit(&mut w, &ctx, active).await.iter() {
            done[l] += 1;
        }
    }
}

/// The name of the STM `make` builds, and the heap allocations made by one
/// one-warp launch in which every lane commits `txs` transactions under it.
fn launch_allocations<S: Stm + 'static>(
    make: &impl Fn(&mut Sim, StmShared, StmConfig) -> S,
    txs: u32,
) -> (&'static str, u64) {
    let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
    let cfg = StmConfig::new(1 << 10);
    let shared = StmShared::init(&mut sim, &cfg).unwrap();
    let data = sim.alloc(WARP_SIZE as u32 * SPAN).unwrap();
    let stm = Rc::new(make(&mut sim, shared, cfg));
    let kernel_stm = Rc::clone(&stm);
    let before = ALLOCATIONS.get();
    sim.launch(LaunchConfig::new(1, 32), move |ctx| kernel(ctx, Rc::clone(&kernel_stm), data, txs))
        .unwrap();
    let allocations = ALLOCATIONS.get() - before;
    assert_eq!(stm.stats().borrow().commits, u64::from(txs) * 32, "{}", stm.name());
    (stm.name(), allocations)
}

fn check<S: Stm + 'static>(make: impl Fn(&mut Sim, StmShared, StmConfig) -> S) {
    let (name, short) = launch_allocations(&make, 12);
    let (_, long) = launch_allocations(&make, 120);
    // Building the warp's descriptor allocates, and the counter must see it.
    assert!(short > 0, "{name}: no allocation counted");
    assert_eq!(short, long, "{name}: allocations grew with the transaction count");
}

#[test]
fn steady_state_transactions_do_not_allocate() {
    check(|_, shared, cfg| LockStm::hv_sorting(shared, cfg));
    check(|_, shared, cfg| LockStm::tbv_sorting(shared, cfg));
    check(|_, shared, cfg| LockStm::hv_backoff(shared, cfg));
    check(|sim, shared, cfg| EgpgvStm::init(sim, shared, cfg).unwrap());
    check(|_, shared, cfg| NorecStm::new(shared, cfg));
}

/// The STM every `tm-serve` request runs through in its fullest preset:
/// admission and escalation around STM-HV-Sorting.
#[test]
fn serve_pipeline_does_not_allocate() {
    check(|sim, shared, cfg| {
        let policies = Policies {
            admission: Some(SchedulerConfig::default()),
            escalation: Some(RobustConfig::default()),
            ..Policies::default()
        };
        Pipeline::new(sim, LockStm::hv_sorting(shared, cfg), &cfg, policies).unwrap()
    });
}

/// The same contract with a trace sink attached: once its ring is full,
/// each event evicts the oldest, so tracing adds no steady-state
/// allocation either.
#[test]
fn traced_transactions_do_not_allocate() {
    const EVENTS: usize = 64;
    let sink = || Some(tx_trace_sink(EVENTS));
    check(|_, shared, cfg| LockStm::hv_sorting(shared, cfg).with_observers(None, sink()));
    check(|_, shared, cfg| NorecStm::new(shared, cfg).with_observers(None, sink()));
    check(|sim, shared, cfg| {
        EgpgvStm::init(sim, shared, cfg).unwrap().with_observers(None, sink())
    });
    check(|sim, shared, cfg| {
        let policies = Policies {
            admission: Some(SchedulerConfig::default()),
            escalation: Some(RobustConfig::default()),
            ..Policies::default()
        };
        let inner = LockStm::hv_sorting(shared, cfg).with_observers(None, sink());
        Pipeline::new(sim, inner, &cfg, policies).unwrap()
    });
}
