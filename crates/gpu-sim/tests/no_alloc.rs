//! The hot-path contract of DESIGN.md §2: with no trace sink, race
//! detector or schedule policy attached, a warp instruction never touches
//! the heap. Spawning a launch's warps allocates (futures, queue slots),
//! and so do the ready queue's timing wheel, made on the launch's first
//! push past the current cycle, and its overflow heap, made on the first
//! push past the wheel with room for every queued warp; running them does
//! not — so the allocation count of a launch may depend on its grid, but
//! not on how many instructions each warp issues.
//!
//! The same holds for a controlled run, with a schedule policy observing
//! every step and a race sink attached, once the race detector's tables
//! have grown to the kernel's footprint: a step's addresses reach the
//! policy in one buffer the simulator reuses, the detector joins clocks
//! in place, and its tables keep their capacity across `Sim::reset`.

use gpu_sim::{
    race_sink, Addr, AtomicOp, LaunchConfig, PolicyHandle, RunnableWarp, SchedulePolicy, Sim,
    SimConfig, StepRecord, WarpCtx, WARP_SIZE,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[derive(Copy, Clone, Debug)]
enum Op {
    LoadCoalesced,
    LoadStrided,
    Store,
    RmwOneWord,
    RmwSpread,
    Cas,
    Fence,
    Alu,
    /// An ALU step, then a backoff of up to twice the ready queue's
    /// wheel span (an idle stretch is no instruction).
    Backoff,
}

const OPS: [Op; 9] = [
    Op::LoadCoalesced,
    Op::LoadStrided,
    Op::Store,
    Op::RmwOneWord,
    Op::RmwSpread,
    Op::Cas,
    Op::Fence,
    Op::Alu,
    Op::Backoff,
];

/// Words the kernels roam over: 64 segments.
const BUF_WORDS: u32 = 64 * 32;

async fn kernel(ctx: WarpCtx, op: Op, buf: Addr, rounds: u32) {
    let id = ctx.id();
    let mask = id.launch_mask;
    let ones = [1u32; WARP_SIZE];
    for round in 0..rounds {
        let start = id.thread_id(0) + round * 7;
        let at = |i: u32| buf.offset((start + i) % BUF_WORDS);
        let contiguous: [Addr; WARP_SIZE] = std::array::from_fn(|l| at(l as u32));
        let strided: [Addr; WARP_SIZE] = std::array::from_fn(|l| at(l as u32 * 32));
        match op {
            Op::LoadCoalesced => drop(ctx.load(mask, &contiguous).await),
            Op::LoadStrided => drop(ctx.load(mask, &strided).await),
            Op::Store => ctx.store(mask, &contiguous, &ones).await,
            Op::RmwOneWord => drop(ctx.atomic_rmw(mask, AtomicOp::Add, &[buf; 32], &ones).await),
            Op::RmwSpread => drop(ctx.atomic_rmw(mask, AtomicOp::Add, &strided, &ones).await),
            Op::Cas => drop(ctx.atomic_cas(mask, &strided, &[round; 32], &ones).await),
            Op::Fence => ctx.fence(mask).await,
            Op::Alu => ctx.alu(mask).await,
            Op::Backoff => {
                ctx.alu(mask).await;
                ctx.idle(u64::from((start + round) % 5) * 1_024).await;
            }
        }
    }
}

/// Heap allocations made by one launch of `op` over `grid`, each warp
/// issuing `rounds` instructions.
fn launch_allocations(op: Op, grid: LaunchConfig, rounds: u32) -> u64 {
    let mut sim = Sim::new(SimConfig::with_memory(1 << 14));
    let buf = sim.alloc(BUF_WORDS).unwrap();
    let before = ALLOCATIONS.get();
    let report = sim.launch(grid, move |ctx| kernel(ctx, op, buf, rounds)).unwrap();
    let allocations = ALLOCATIONS.get() - before;
    let warps = u64::from(grid.blocks * grid.warps_per_block());
    assert_eq!(report.stats.instructions, warps * u64::from(rounds), "{op:?}");
    allocations
}

#[test]
fn steady_state_instructions_do_not_allocate() {
    // One warp; more blocks than the 112 the default GPU keeps resident,
    // with a partial tail warp, so blocks are admitted mid-run; and as many
    // 2-lane warps, as in a grid of 2-thread blocks.
    let grids = [LaunchConfig::new(1, 32), LaunchConfig::new(130, 40), LaunchConfig::new(130, 2)];
    for grid in grids {
        for op in OPS {
            let short = launch_allocations(op, grid, 12);
            let long = launch_allocations(op, grid, 120);
            // Spawning warps allocates, and the counter must see it.
            assert!(short > 0, "{op:?} on {grid:?}: no allocation counted");
            assert_eq!(short, long, "{op:?} on {grid:?}: allocations grew with the round count");
        }
    }
}

/// Rotates through the runnable warps and observes every step, checking
/// that a step's addresses arrive sorted and deduplicated.
#[derive(Default)]
struct Observer {
    picks: usize,
}

impl SchedulePolicy for Observer {
    fn pick(&mut self, _now: u64, runnable: &[RunnableWarp]) -> usize {
        self.picks += 1;
        self.picks % runnable.len()
    }

    fn observe(&mut self, step: StepRecord<'_>) {
        assert!(step.addrs.windows(2).all(|w| w[0] < w[1]), "unsorted step addresses");
    }
}

/// Heap allocations made by one controlled launch of `op` over `grid`,
/// each warp issuing `rounds` instructions. The simulator first runs the
/// kernel for 120 rounds and is then reset, so the race detector's tables
/// and the race log already hold the kernel's footprint.
fn controlled_allocations(op: Op, grid: LaunchConfig, rounds: u32) -> u64 {
    let races = race_sink();
    let mut cfg = SimConfig::with_memory(1 << 14);
    cfg.race = Some(races.clone());
    cfg.schedule = Some(PolicyHandle::new(Observer::default()));
    let mut sim = Sim::new(cfg.clone());
    let buf = sim.alloc(BUF_WORDS).unwrap();
    sim.launch(grid, move |ctx| kernel(ctx, op, buf, 120)).unwrap();
    sim.reset(cfg);
    races.borrow_mut().races.clear();
    let buf = sim.alloc(BUF_WORDS).unwrap();

    let before = ALLOCATIONS.get();
    let report = sim.launch(grid, move |ctx| kernel(ctx, op, buf, rounds)).unwrap();
    let allocations = ALLOCATIONS.get() - before;
    let warps = u64::from(grid.blocks * grid.warps_per_block());
    assert_eq!(report.stats.instructions, warps * u64::from(rounds), "{op:?}");
    allocations
}

#[test]
fn controlled_steps_do_not_allocate() {
    // One warp; a few blocks with a partial tail warp; and more 2-lane
    // blocks than stay resident, so blocks are admitted mid-run.
    let grids = [LaunchConfig::new(1, 32), LaunchConfig::new(6, 40), LaunchConfig::new(130, 2)];
    for grid in grids {
        for op in OPS {
            let short = controlled_allocations(op, grid, 12);
            let long = controlled_allocations(op, grid, 120);
            assert!(short > 0, "{op:?} on {grid:?}: no allocation counted");
            assert_eq!(short, long, "{op:?} on {grid:?}: allocations grew with the round count");
        }
    }
}
