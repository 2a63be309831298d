//! The deterministic discrete-event executor.
//!
//! Each warp of a kernel launch is one Rust [`Future`]. Every awaited
//! [`WarpCtx`](crate::warp::WarpCtx) operation is one *warp instruction*:
//! its memory effects are applied synchronously (giving a global total order
//! of warp instructions — a legal interleaving of the machine), its latency
//! is computed from the timing and cache models, and the warp then yields to
//! the scheduler until `now + latency`.
//!
//! The scheduler is a single-threaded event loop over a priority queue keyed
//! by `(ready_cycle, issue_seq)`, so runs are fully deterministic — a
//! property the GPU lacks but which makes livelock/deadlock reproductions
//! and correctness checking exact.
//!
//! Thread blocks are admitted to the GPU respecting SM residency limits
//! (blocks per SM, warps per SM), like hardware block dispatch.

use crate::cache::{CacheCheckpoint, CacheConfig, L2Cache};
use crate::error::{SimError, WarpProgress};
use crate::fault::{FaultPlan, FaultState};
use crate::mask::{LaneMask, WARP_SIZE};
use crate::memory::{Addr, GlobalMemory};
use crate::race::{RaceDetector, RaceSink};
use crate::ready::ReadyQueue;
use crate::rng::splitmix64;
use crate::schedule::{PolicyHandle, RunnableWarp, StepEffect, StepRecord};
use crate::stats::SimStats;
use crate::timing::TimingModel;
use crate::trace::{SimEvent, SimEventKind, TraceSink};
use crate::warp::{Mailbox, ParkSignal, WarpCtx};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// GPU-level resource limits (block/warp residency), Fermi C2070 defaults.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_blocks_per_sm: u32,
}

impl GpuConfig {
    /// NVIDIA C2070 (Fermi): 14 SMs, 48 warps/SM, 8 blocks/SM.
    pub fn fermi_c2070() -> Self {
        GpuConfig { sm_count: 14, max_warps_per_sm: 48, max_blocks_per_sm: 8 }
    }

    fn warp_slots(&self) -> u64 {
        self.sm_count as u64 * self.max_warps_per_sm as u64
    }

    fn block_slots(&self) -> u64 {
        self.sm_count as u64 * self.max_blocks_per_sm as u64
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::fermi_c2070()
    }
}

/// Full simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Capacity of device global memory, in 32-bit words.
    pub mem_words: usize,
    /// L2 cache geometry.
    pub cache: CacheConfig,
    /// Instruction/memory latencies.
    pub timing: TimingModel,
    /// SM residency limits.
    pub gpu: GpuConfig,
    /// Abort a launch after this many simulated cycles (deadlock/livelock
    /// watchdog).
    pub watchdog_cycles: u64,
    /// Abort a launch when no warp has made progress (committed or
    /// explicitly marked via [`WarpCtx::mark_progress`]) for this many
    /// cycles. `u64::MAX` disables stall detection, leaving only the
    /// total-cycle budget.
    pub stall_cycles: u64,
    /// Seed-controlled fault injection (schedule shuffle, latency jitter,
    /// spurious CAS failures). Defaults to no faults.
    pub fault: FaultPlan,
    /// When set, a happens-before race detector observes every
    /// global-memory access and publishes unordered conflicting pairs to
    /// this sink (see [`crate::race`]). Detection is pure observation:
    /// it charges no cycles, so enabling it never perturbs a run.
    /// Defaults to `None` (off).
    pub race: Option<RaceSink>,
    /// When set, the executor and [`WarpCtx`] emit cycle-timestamped
    /// structured events (warp scheduling, memory/coalescing, atomics,
    /// fences, idle spans) into this bounded ring buffer (see
    /// [`crate::trace`]). Like race detection, tracing is pure
    /// observation: it charges no cycles, so enabling it never perturbs
    /// a run. Defaults to `None` (off).
    pub trace: Option<TraceSink>,
    /// When set, an external [`SchedulePolicy`](crate::SchedulePolicy)
    /// picks the next runnable warp at every scheduling decision point
    /// (i.e. before every warp instruction: loads, stores, atomics,
    /// fences, ALU/idle steps) and observes each executed instruction's
    /// memory effect. Overrides both the default `(ready, seq)` order and
    /// a [`FaultPlan`] schedule shuffle; simulated time degenerates to a
    /// monotonic counter. Defaults to `None` (the simulator schedules).
    pub schedule: Option<PolicyHandle>,
}

impl SimConfig {
    /// A configuration with `mem_words` words of memory and Fermi defaults.
    pub fn with_memory(mem_words: usize) -> Self {
        SimConfig { mem_words, ..SimConfig::default() }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mem_words: 1 << 22, // 16 MiB
            cache: CacheConfig::default(),
            timing: TimingModel::default(),
            gpu: GpuConfig::default(),
            watchdog_cycles: 1 << 40,
            stall_cycles: u64::MAX,
            fault: FaultPlan::none(),
            race: None,
            trace: None,
            schedule: None,
        }
    }
}

/// Kernel launch geometry: `<<<blocks, threads_per_block>>>`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Thread blocks in the grid.
    pub blocks: u32,
    /// Threads per block (need not be a multiple of 32; the tail warp runs
    /// with a partial launch mask).
    pub threads_per_block: u32,
}

impl LaunchConfig {
    /// Creates a launch of `blocks` × `threads_per_block` threads.
    pub fn new(blocks: u32, threads_per_block: u32) -> Self {
        LaunchConfig { blocks, threads_per_block }
    }

    /// Warps per block (rounded up).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block.div_ceil(WARP_SIZE as u32)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.blocks as u64 * self.threads_per_block as u64
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.blocks == 0 {
            return Err(SimError::BadLaunch("grid has zero blocks".into()));
        }
        if self.threads_per_block == 0 {
            return Err(SimError::BadLaunch("block has zero threads".into()));
        }
        if self.threads_per_block > 1024 {
            return Err(SimError::BadLaunch(format!(
                "{} threads per block exceeds the 1024 hardware limit",
                self.threads_per_block
            )));
        }
        Ok(())
    }
}

/// Identity of a warp within a launch, visible to kernel code.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct WarpId {
    /// Block index within the grid.
    pub block: u32,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// Threads per block of the launch (for computing global thread ids).
    pub threads_per_block: u32,
    /// Lanes that correspond to real threads (partial for a tail warp).
    pub launch_mask: LaneMask,
}

impl WarpId {
    /// Global warp index within the grid.
    pub fn global_warp(&self, warps_per_block: u32) -> u32 {
        self.block * warps_per_block + self.warp_in_block
    }

    /// Global thread id of `lane` in this warp.
    pub fn thread_id(&self, lane: usize) -> u32 {
        self.block * self.threads_per_block + self.warp_in_block * WARP_SIZE as u32 + lane as u32
    }
}

/// Outcome of a completed kernel launch.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Simulated cycles from launch to the last warp's completion.
    pub cycles: u64,
    /// Counters for this launch.
    pub stats: SimStats,
}

/// Everything a [`Sim`] carries across launches, captured by
/// [`Sim::checkpoint`]: the allocated memory image, the L2 state and the
/// lifetime counters. Plain data — serializable by the caller.
#[derive(Clone, Debug)]
pub struct SimCheckpoint {
    /// Image of every allocated device word, from address 0.
    pub memory: Vec<u32>,
    /// L2 tag/LRU state (persists across launches, affects timing).
    pub cache: CacheCheckpoint,
    /// Lifetime statistics accumulated over completed launches.
    pub stats: SimStats,
    /// Sum of completion cycles over all launches.
    pub cycles: u64,
    /// Number of completed launches.
    pub launches: u64,
}

pub(crate) struct SimState {
    pub(crate) mem: GlobalMemory,
    pub(crate) cache: L2Cache,
    pub(crate) timing: TimingModel,
    pub(crate) stats: SimStats,
    pub(crate) now: u64,
    pub(crate) fault: FaultState,
    pub(crate) progress: ProgressBoard,
    pub(crate) race: Option<RaceDetector>,
    pub(crate) trace: Option<TraceSink>,
    /// Whether warp ops should record their [`StepEffect`]: true iff a
    /// schedule policy is installed, since building an effect allocates its
    /// address list. With no policy, race sink or trace sink attached a
    /// warp instruction allocates nothing and borrows this state once;
    /// `tests/no_alloc.rs` enforces the first half of that.
    pub(crate) observe_effects: bool,
    /// The effect of the instruction currently being executed, taken by the
    /// event loop after each poll and reported to the schedule policy.
    pub(crate) last_effect: Option<StepEffect>,
    /// Wakes for parked warps (progress-board slot indices), enqueued by
    /// [`WakeHandle`](crate::WakeHandle)s and drained by the event loop
    /// before every scheduling decision. Fresh per launch.
    pub(crate) wake_queue: Rc<RefCell<Vec<usize>>>,
}

impl SimState {
    fn new(config: &SimConfig) -> Self {
        SimState {
            mem: GlobalMemory::new(config.mem_words),
            cache: L2Cache::new(config.cache),
            timing: config.timing,
            stats: SimStats::new(),
            now: 0,
            fault: FaultState::new(config.fault),
            progress: ProgressBoard::default(),
            race: config.race.clone().map(RaceDetector::new),
            trace: config.trace.clone(),
            observe_effects: config.schedule.is_some(),
            last_effect: None,
            wake_queue: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Puts everything that lives for one launch back to what
    /// [`SimState::new`] builds from `config`.
    fn begin_launch(&mut self, config: &SimConfig) {
        self.now = 0;
        self.stats = SimStats::new();
        self.fault = FaultState::new(config.fault);
        self.progress = ProgressBoard::default();
        // Fresh vector clocks per launch (warp slots are per-launch); the
        // sinks keep accumulating across launches.
        self.race = config.race.clone().map(RaceDetector::new);
        self.trace = config.trace.clone();
        self.observe_effects = config.schedule.is_some();
        self.last_effect = None;
        // Fresh wake queue per launch: wake handles are scoped to the
        // launch whose warps created them.
        self.wake_queue = Rc::new(RefCell::new(Vec::new()));
    }

    /// Emits a trace event when a sink is attached. Pure observation:
    /// never charges cycles.
    pub(crate) fn emit(&self, block: u32, warp: u32, kind: SimEventKind) {
        if let Some(t) = self.trace.as_ref() {
            t.borrow_mut().push(SimEvent { cycle: self.now, block, warp, kind });
        }
    }
}

/// Per-warp progress accounting for one launch: who issued what, and when
/// each warp (and the launch as a whole) last made forward progress.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProgressBoard {
    pub(crate) warps: Vec<WarpProgressEntry>,
    /// Last cycle any warp committed/marked progress or retired.
    pub(crate) last_progress_cycle: u64,
    /// Last cycle a device word actually changed value.
    pub(crate) last_mutation_cycle: u64,
}

#[derive(Clone, Debug, Default)]
pub(crate) struct WarpProgressEntry {
    pub(crate) block: u32,
    pub(crate) warp_in_block: u32,
    pub(crate) instructions: u64,
    pub(crate) instructions_at_progress: u64,
    pub(crate) progress_marks: u64,
    pub(crate) last_progress_cycle: u64,
    pub(crate) retired: bool,
    /// Whether the warp is currently descheduled on the parked set.
    pub(crate) parked: bool,
    /// The device addresses a parked warp is waiting on (diagnostics).
    pub(crate) parked_addrs: Vec<Addr>,
}

impl ProgressBoard {
    /// Registers a warp; returns its index for [`WarpCtx`] accounting.
    pub(crate) fn register(&mut self, block: u32, warp_in_block: u32, now: u64) -> usize {
        self.warps.push(WarpProgressEntry {
            block,
            warp_in_block,
            last_progress_cycle: now,
            ..WarpProgressEntry::default()
        });
        self.warps.len() - 1
    }

    pub(crate) fn mark(&mut self, pslot: usize, now: u64) {
        let w = &mut self.warps[pslot];
        w.progress_marks += 1;
        w.last_progress_cycle = now;
        w.instructions_at_progress = w.instructions;
        self.last_progress_cycle = self.last_progress_cycle.max(now);
    }

    fn unfinished(&self, now: u64) -> Vec<WarpProgress> {
        self.warps
            .iter()
            .filter(|w| !w.retired)
            .map(|w| WarpProgress {
                block: w.block,
                warp_in_block: w.warp_in_block,
                instructions: w.instructions,
                instructions_since_progress: w.instructions - w.instructions_at_progress,
                progress_marks: w.progress_marks,
                cycles_since_progress: now.saturating_sub(w.last_progress_cycle),
                parked_addrs: w.parked_addrs.clone(),
            })
            .collect()
    }
}

/// The simulated GPU: device memory plus the launch engine.
///
/// # Examples
///
/// ```
/// use gpu_sim::{LaneMask, LaunchConfig, Sim, SimConfig};
///
/// # fn main() -> Result<(), gpu_sim::SimError> {
/// let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
/// let out = sim.alloc(64)?;
/// let report = sim.launch(LaunchConfig::new(2, 32), move |ctx| async move {
///     let mask = ctx.id().launch_mask;
///     let addrs = std::array::from_fn(|lane| out.offset(ctx.id().thread_id(lane)));
///     let vals = std::array::from_fn(|lane| ctx.id().thread_id(lane) * 10);
///     ctx.store(mask, &addrs, &vals).await;
/// })?;
/// assert!(report.cycles > 0);
/// assert_eq!(sim.read(out.offset(63)), 630);
/// # Ok(())
/// # }
/// ```
pub struct Sim {
    state: Rc<RefCell<SimState>>,
    config: SimConfig,
    /// Counters accumulated over every launch this simulator has run
    /// (per-launch counters reset at each [`Sim::launch`]; these do not).
    lifetime: SimStats,
    /// Sum of completion cycles over all launches.
    lifetime_cycles: u64,
    /// Number of completed launches.
    launches: u64,
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim").field("config", &self.config).finish_non_exhaustive()
    }
}

impl Sim {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Sim {
            state: Rc::new(RefCell::new(SimState::new(&config))),
            config,
            lifetime: SimStats::new(),
            lifetime_cycles: 0,
            launches: 0,
        }
    }

    /// Makes this simulator equivalent to `Sim::new(config)` while reusing
    /// its buffers: the allocated memory prefix is zeroed and the
    /// allocator rewound, the L2 is emptied, and every counter, sink,
    /// policy and launch-scoped structure is replaced as `new` would build
    /// it. Memory and cache are reallocated only when `mem_words` or the
    /// cache geometry differ. Words past the allocation break are never
    /// handed out, so, like [`checkpoint`](Self::checkpoint), reset only
    /// looks at the allocated prefix.
    pub fn reset(&mut self, config: SimConfig) {
        {
            let st = &mut *self.state.borrow_mut();
            st.mem.reset(config.mem_words);
            st.cache.reset(config.cache);
            st.timing = config.timing;
            st.begin_launch(&config);
        }
        self.config = config;
        self.lifetime = SimStats::new();
        self.lifetime_cycles = 0;
        self.launches = 0;
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Counters accumulated across every completed launch — the view a
    /// long-lived engine (one simulator serving many kernel batches, as
    /// in `tm-serve`) reports, where per-launch stats are too granular.
    pub fn lifetime_stats(&self) -> &SimStats {
        &self.lifetime
    }

    /// Total simulated cycles summed over all completed launches.
    pub fn lifetime_cycles(&self) -> u64 {
        self.lifetime_cycles
    }

    /// Number of launches this simulator has completed.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Allocates `n` zeroed device words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when capacity is exhausted.
    pub fn alloc(&mut self, n: u32) -> Result<Addr, SimError> {
        self.state.borrow_mut().mem.alloc(n)
    }

    /// Host-side read of one device word.
    pub fn read(&self, a: Addr) -> u32 {
        self.state.borrow().mem.read(a)
    }

    /// Host-side write of one device word.
    pub fn write(&mut self, a: Addr, v: u32) {
        self.state.borrow_mut().mem.write(a, v);
    }

    /// Host-side bulk copy into device memory.
    pub fn write_slice(&mut self, a: Addr, data: &[u32]) {
        self.state.borrow_mut().mem.write_slice(a, data);
    }

    /// Host-side bulk copy out of device memory.
    pub fn read_slice(&self, a: Addr, n: u32) -> Vec<u32> {
        self.state.borrow().mem.read_slice(a, n)
    }

    /// Fills `n` device words starting at `a` with `v`.
    pub fn fill(&mut self, a: Addr, n: u32, v: u32) {
        self.state.borrow_mut().mem.fill(a, n, v);
    }

    /// Captures everything that persists across launches: the allocated
    /// device memory image, the L2 tag/LRU state (the cache is *not*
    /// reset per launch, so it shapes the cycle counts of later
    /// launches), and the lifetime counters. Restoring this checkpoint
    /// into a freshly constructed, identically allocated simulator makes
    /// subsequent launches byte-identical to the original timeline —
    /// the foundation of `tm-serve` crash recovery.
    pub fn checkpoint(&self) -> SimCheckpoint {
        let st = self.state.borrow();
        SimCheckpoint {
            memory: st.mem.read_slice(Addr(0), st.mem.allocated() as u32),
            cache: st.cache.checkpoint(),
            stats: self.lifetime.clone(),
            cycles: self.lifetime_cycles,
            launches: self.launches,
        }
    }

    /// Restores a [`checkpoint`](Self::checkpoint) taken from a
    /// simulator with the same configuration and allocation history.
    ///
    /// # Panics
    ///
    /// Panics if the memory image or cache geometry does not match
    /// (checkpoints are only meaningful across identically built sims).
    pub fn restore_checkpoint(&mut self, ck: &SimCheckpoint) {
        let mut st = self.state.borrow_mut();
        assert_eq!(
            ck.memory.len(),
            st.mem.allocated(),
            "checkpoint memory image does not match this sim's allocations"
        );
        st.mem.write_slice(Addr(0), &ck.memory);
        st.cache.restore(&ck.cache);
        drop(st);
        self.lifetime = ck.stats.clone();
        self.lifetime_cycles = ck.cycles;
        self.launches = ck.launches;
    }

    /// Launches a kernel and runs it to completion.
    ///
    /// `kernel` is invoked once per warp to build that warp's future; the
    /// returned futures are interleaved by the event loop at warp-instruction
    /// granularity. Per-launch statistics and the completion cycle are
    /// returned; device memory persists across launches.
    ///
    /// # Errors
    ///
    /// - [`SimError::BadLaunch`] for an invalid geometry.
    /// - [`SimError::Deadlock`] / [`SimError::Livelock`] /
    ///   [`SimError::BudgetExceeded`] when the cycle budget
    ///   (`watchdog_cycles`) or the progress stall limit (`stall_cycles`)
    ///   is exhausted before all warps finish, classified by the progress
    ///   monitor with per-warp diagnostics.
    pub fn launch<F, Fut>(&mut self, grid: LaunchConfig, kernel: F) -> Result<RunReport, SimError>
    where
        F: Fn(WarpCtx) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        grid.validate()?;
        let wake_queue = {
            let st = &mut *self.state.borrow_mut();
            st.begin_launch(&self.config);
            Rc::clone(&st.wake_queue)
        };
        let mailbox = Rc::new(Mailbox::default());
        let jitter = self.config.fault.latency_jitter > 0;

        let wpb = grid.warps_per_block();
        let tail_threads = grid.threads_per_block - (wpb - 1) * WARP_SIZE as u32;
        let gpu = self.config.gpu;

        let shuffle_seed = self
            .config
            .fault
            .shuffle_schedule
            .then_some(self.config.fault.seed ^ 0x3c6e_f372_fe94_f82b);
        let policy = self.config.schedule.clone();
        let mut scheduler = Scheduler::new(shuffle_seed, policy.clone());
        let mut next_block: u32 = 0;
        let mut resident_blocks: u64 = 0;
        let mut resident_warps: u64 = 0;
        // Live warp count per resident block, indexed by block id.
        let mut block_live: Vec<u32> = vec![0; grid.blocks as usize];

        let admit = |scheduler: &mut Scheduler,
                     next_block: &mut u32,
                     resident_blocks: &mut u64,
                     resident_warps: &mut u64,
                     block_live: &mut Vec<u32>,
                     now: u64| {
            while *next_block < grid.blocks
                && *resident_blocks < gpu.block_slots()
                && *resident_warps + wpb as u64 <= gpu.warp_slots()
            {
                let b = *next_block;
                *next_block += 1;
                *resident_blocks += 1;
                *resident_warps += wpb as u64;
                block_live[b as usize] = wpb;
                for w in 0..wpb {
                    let launch_mask = if w + 1 == wpb {
                        LaneMask::first_n(tail_threads as usize)
                    } else {
                        LaneMask::FULL
                    };
                    let id = WarpId {
                        block: b,
                        warp_in_block: w,
                        threads_per_block: grid.threads_per_block,
                        launch_mask,
                    };
                    let pslot = {
                        let st = &mut *self.state.borrow_mut();
                        st.emit(b, w, SimEventKind::WarpStart);
                        st.progress.register(b, w, now)
                    };
                    let ctx = WarpCtx::new(Rc::clone(&self.state), id, Rc::clone(&mailbox), pslot);
                    let fut: Pin<Box<dyn Future<Output = ()>>> = Box::pin(kernel(ctx));
                    let entry = WarpSlot {
                        fut,
                        resume: ParkSignal::None,
                        block: b,
                        warp_in_block: w,
                        pslot,
                    };
                    scheduler.spawn(entry, now);
                }
            }
        };

        admit(
            &mut scheduler,
            &mut next_block,
            &mut resident_blocks,
            &mut resident_warps,
            &mut block_live,
            0,
        );

        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let mut last_cycle = 0u64;

        loop {
            // Deliver wakes enqueued by WakeHandles (commit-side notify)
            // before every scheduling decision; wakes for warps that are
            // not parked are consumed as no-ops, making wake/park races
            // safe by construction.
            for pslot in wake_queue.borrow_mut().drain(..) {
                scheduler.unpark(pslot, ParkSignal::Woken, last_cycle);
            }
            // A finite park budget expiring no later than the next
            // runnable warp's ready time fires first — a busy run queue
            // must not starve timeouts until it drains.
            if let Some((deadline, pslot)) = scheduler.earliest_deadline() {
                if scheduler.next_ready().is_some_and(|r| deadline <= r) {
                    scheduler.unpark(pslot, ParkSignal::TimedOut, deadline.max(last_cycle));
                    continue;
                }
            }
            let Some((ready, slot)) = scheduler.pop() else {
                match scheduler.earliest_deadline() {
                    // Every live warp is parked and at least one has a
                    // finite budget: advance the clock straight to the
                    // nearest deadline (the interval costs the parked
                    // warps nothing) and resume that warp with a timeout.
                    Some((deadline, pslot)) => {
                        let wake_at = deadline.max(last_cycle);
                        self.advance_clock(wake_at)?;
                        last_cycle = wake_at;
                        scheduler.unpark(pslot, ParkSignal::TimedOut, wake_at);
                        continue;
                    }
                    // Every live warp is parked forever: the wakes they
                    // wait for can no longer arrive (only warps produce
                    // wakes). Report the deadlock immediately — with the
                    // watched addresses in the per-warp diagnostics —
                    // instead of burning the watchdog budget.
                    None if scheduler.any_parked() => {
                        let st = self.state.borrow();
                        return Err(SimError::Deadlock {
                            cycle: last_cycle,
                            unfinished: st.progress.unfinished(last_cycle),
                        });
                    }
                    None => break,
                }
            };
            let now = ready;
            self.advance_clock(now)?;
            last_cycle = last_cycle.max(now);

            let poll = scheduler.poll_slot(slot, &mut cx, &mailbox.park);
            let cost = mailbox.cost.take();
            let park_request = mailbox.park.take();
            if let Some(p) = &policy {
                let (block, warp_in_block) = scheduler.identity(slot);
                let effect = match poll {
                    Poll::Pending => {
                        self.state.borrow_mut().last_effect.take().unwrap_or(StepEffect::Local)
                    }
                    Poll::Ready(()) => StepEffect::Retire,
                };
                p.observe(StepRecord { block, warp_in_block, effect });
            }
            match poll {
                Poll::Pending => {
                    if let ParkSignal::Request { deadline } = park_request {
                        // The instruction was a park: deschedule instead of
                        // requeueing. Its cost is dropped — a parked warp
                        // burns zero cycles by definition.
                        scheduler.park(slot, deadline);
                    } else {
                        let extra = if jitter {
                            let st = &mut *self.state.borrow_mut();
                            let j = st.fault.jitter();
                            st.stats.injected_jitter_cycles += j;
                            j
                        } else {
                            0
                        };
                        scheduler.requeue(slot, now + cost + extra);
                    }
                }
                Poll::Ready(()) => {
                    let (block, pslot) = scheduler.retire(slot);
                    {
                        // Retiring is progress: a finished warp can never
                        // be part of a deadlock or livelock.
                        let st = &mut *self.state.borrow_mut();
                        st.progress.mark(pslot, now);
                        st.progress.warps[pslot].retired = true;
                        let w = st.progress.warps[pslot].warp_in_block;
                        st.emit(block, w, SimEventKind::WarpRetire);
                    }
                    let live = &mut block_live[block as usize];
                    *live -= 1;
                    if *live == 0 {
                        resident_blocks -= 1;
                        resident_warps -= wpb as u64;
                        self.state.borrow_mut().stats.blocks_completed += 1;
                        admit(
                            &mut scheduler,
                            &mut next_block,
                            &mut resident_blocks,
                            &mut resident_warps,
                            &mut block_live,
                            now,
                        );
                    }
                }
            }
        }

        let stats = self.state.borrow().stats.clone();
        self.lifetime.merge(&stats);
        self.lifetime_cycles += last_cycle;
        self.launches += 1;
        Ok(RunReport { cycles: last_cycle, stats })
    }

    /// Moves the simulated clock to `now`, or aborts the launch with a
    /// classified non-progress error once the cycle budget is spent or the
    /// stall limit (if configured) is hit.
    ///
    /// Diagnosis: if warps progressed recently the budget is simply too
    /// small ([`SimError::BudgetExceeded`]); otherwise recent device-memory
    /// mutation distinguishes busy-but-stuck ([`SimError::Livelock`], e.g.
    /// lockstep retry churn) from fully blocked ([`SimError::Deadlock`],
    /// e.g. spinning on a lock that can never be released — spinning
    /// reads/failed CASes mutate nothing).
    fn advance_clock(&self, now: u64) -> Result<(), SimError> {
        let budget = self.config.watchdog_cycles;
        let stall = self.config.stall_cycles;
        let st = &mut *self.state.borrow_mut();
        let board = &st.progress;
        let since_progress = now.saturating_sub(board.last_progress_cycle);
        let budget_hit = now > budget;
        let stalled = stall != u64::MAX && since_progress > stall;
        if !budget_hit && !stalled {
            st.now = now;
            return Ok(());
        }
        // How far back "recent" reaches for classification: the stall
        // limit when configured, else half the budget.
        let window = if stall != u64::MAX { stall } else { (budget / 2).max(1) };
        let unfinished = board.unfinished(now);
        if budget_hit && since_progress <= window {
            return Err(SimError::BudgetExceeded { cycle: now, budget, unfinished });
        }
        if board.last_mutation_cycle > 0 && now.saturating_sub(board.last_mutation_cycle) <= window
        {
            return Err(SimError::Livelock {
                cycle: now,
                last_mutation_cycle: board.last_mutation_cycle,
                unfinished,
            });
        }
        Err(SimError::Deadlock { cycle: now, unfinished })
    }
}

struct WarpSlot {
    fut: Pin<Box<dyn Future<Output = ()>>>,
    // Why the warp's park ended, held from the unpark until its next poll.
    resume: ParkSignal,
    block: u32,
    warp_in_block: u32,
    pslot: usize,
}

struct Scheduler {
    slots: Vec<Option<WarpSlot>>,
    free: Vec<usize>,
    // Ordered by (ready_cycle, key): FIFO among equal ready times, unless
    // a fault plan shuffles same-cycle dispatch with seeded-random keys.
    queue: ReadyQueue,
    seq: u64,
    shuffle_rng: Option<u64>,
    live: usize,
    // External schedule control: when set, queued warps go to the `ctl_*` pair
    // and the policy picks the next one; `queue` (and shuffle) are unused.
    policy: Option<PolicyHandle>,
    // The queued warps as the policy sees them, kept in `(block,
    // warp_in_block)` order, and the scheduler slot of each beside it.
    ctl_runnable: Vec<RunnableWarp>,
    ctl_slots: Vec<usize>,
    // Monotonic clock for controlled mode: picking a warp whose ready cycle
    // lies before an already-issued instruction must not rewind time.
    ctl_now: u64,
    // Warps descheduled by [`WarpCtx::park`], keyed by progress-board slot
    // (the identity WakeHandles carry), holding (deadline, scheduler slot).
    // A parked warp is in neither `queue` nor the `ctl_*` pair: it consumes no
    // scheduling decisions and burns no cycles until unparked.
    parked: BTreeMap<usize, (u64, usize)>,
    // The `(deadline, pslot)` of every parked warp with a finite budget,
    // so the nearest timeout is the first element and a launch whose
    // parks are all unbounded pays nothing per turn to learn there is none.
    deadlines: BTreeSet<(u64, usize)>,
}

impl Scheduler {
    fn new(shuffle_seed: Option<u64>, policy: Option<PolicyHandle>) -> Self {
        Scheduler {
            slots: Vec::new(),
            free: Vec::new(),
            queue: ReadyQueue::new(),
            seq: 0,
            shuffle_rng: shuffle_seed,
            live: 0,
            policy,
            ctl_runnable: Vec::new(),
            ctl_slots: Vec::new(),
            ctl_now: 0,
            parked: BTreeMap::new(),
            deadlines: BTreeSet::new(),
        }
    }

    fn spawn(&mut self, entry: WarpSlot, ready: u64) {
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(entry);
                i
            }
            None => {
                self.slots.push(Some(entry));
                self.slots.len() - 1
            }
        };
        self.live += 1;
        self.push(slot, ready);
    }

    fn push(&mut self, slot: usize, ready: u64) {
        if self.policy.is_some() {
            let (block, warp_in_block) = self.identity(slot);
            let at = self
                .ctl_runnable
                .partition_point(|r| (r.block, r.warp_in_block) < (block, warp_in_block));
            self.ctl_runnable.insert(at, RunnableWarp { block, warp_in_block, ready });
            self.ctl_slots.insert(at, slot);
            return;
        }
        let key = match &mut self.shuffle_rng {
            Some(state) => splitmix64(state),
            None => self.seq,
        };
        self.queue.push(slot, ready, key);
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        if self.policy.is_some() {
            return self.pop_controlled();
        }
        self.queue.pop()
    }

    /// Ready time of the next runnable warp, if any. `None` under an
    /// external schedule policy: controlled time is artificial, so park
    /// budgets there only fire through the all-parked path.
    fn next_ready(&self) -> Option<u64> {
        if self.policy.is_some() {
            return None;
        }
        self.queue.next_ready()
    }

    /// One scheduling decision under external control: present the queued
    /// warps sorted by identity, let the policy pick, and advance the
    /// monotonic clock to the pick's ready cycle.
    fn pop_controlled(&mut self) -> Option<(u64, usize)> {
        if self.ctl_runnable.is_empty() {
            return None;
        }
        let policy = self.policy.as_ref().expect("controlled mode has a policy");
        let idx = policy.pick(self.ctl_now, &self.ctl_runnable);
        let queued = self.ctl_runnable.len();
        assert!(idx < queued, "SchedulePolicy::pick returned {idx} of {queued}");
        let ready = self.ctl_runnable.remove(idx).ready;
        let slot = self.ctl_slots.remove(idx);
        self.ctl_now = self.ctl_now.max(ready);
        Some((self.ctl_now, slot))
    }

    fn identity(&self, slot: usize) -> (u32, u32) {
        let s = self.slots[slot].as_ref().expect("identity of retired warp");
        (s.block, s.warp_in_block)
    }

    fn requeue(&mut self, slot: usize, ready: u64) {
        self.push(slot, ready);
    }

    /// Polls the warp in `slot`, first handing it the outcome of the park
    /// it is resuming from, if it is.
    fn poll_slot(
        &mut self,
        slot: usize,
        cx: &mut Context<'_>,
        park: &Cell<ParkSignal>,
    ) -> Poll<()> {
        let entry = self.slots[slot].as_mut().expect("polling retired warp");
        if entry.resume != ParkSignal::None {
            park.set(std::mem::take(&mut entry.resume));
        }
        entry.fut.as_mut().poll(cx)
    }

    /// Moves a pending warp onto the parked set instead of requeueing it.
    fn park(&mut self, slot: usize, deadline: u64) {
        let pslot = self.slots[slot].as_ref().expect("parking retired warp").pslot;
        self.parked.insert(pslot, (deadline, slot));
        if deadline != u64::MAX {
            self.deadlines.insert((deadline, pslot));
        }
    }

    /// Makes a parked warp runnable again at `ready`, storing `signal` for
    /// its suspended `park` call to read. Waking a warp that is not parked
    /// (a wake/park race, or a duplicate wake) is a no-op.
    fn unpark(&mut self, pslot: usize, signal: ParkSignal, ready: u64) {
        if let Some((deadline, slot)) = self.parked.remove(&pslot) {
            self.deadlines.remove(&(deadline, pslot));
            self.slots[slot].as_mut().expect("parked warp has a slot").resume = signal;
            self.push(slot, ready);
        }
    }

    /// The nearest finite park deadline and its warp (ties by pslot, so
    /// the order is deterministic), if any parked warp has a budget.
    fn earliest_deadline(&self) -> Option<(u64, usize)> {
        self.deadlines.first().copied()
    }

    fn any_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    fn retire(&mut self, slot: usize) -> (u32, usize) {
        let entry = self.slots[slot].take().expect("double retire");
        self.free.push(slot);
        self.live -= 1;
        (entry.block, entry.pslot)
    }
}

fn noop_waker() -> Waker {
    fn raw() -> RawWaker {
        RawWaker::new(std::ptr::null(), &VTABLE)
    }
    unsafe fn clone(_: *const ()) -> RawWaker {
        raw()
    }
    unsafe fn noop(_: *const ()) {}
    static VTABLE: RawWakerVTable = RawWakerVTable::new(clone, noop, noop, noop);
    // SAFETY: all vtable functions are no-ops; the waker is never used to
    // actually wake anything (the scheduler polls explicitly).
    unsafe { Waker::from_raw(raw()) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sim() -> Sim {
        Sim::new(SimConfig::with_memory(1 << 16))
    }

    #[test]
    fn empty_grid_rejected() {
        let mut sim = small_sim();
        let err = sim.launch(LaunchConfig::new(0, 32), |_| async {}).unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)));
        let err = sim.launch(LaunchConfig::new(1, 0), |_| async {}).unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)));
        let err = sim.launch(LaunchConfig::new(1, 2048), |_| async {}).unwrap_err();
        assert!(matches!(err, SimError::BadLaunch(_)));
    }

    #[test]
    fn trivial_kernel_completes() {
        let mut sim = small_sim();
        let report = sim.launch(LaunchConfig::new(4, 64), |_| async {}).unwrap();
        assert_eq!(report.cycles, 0);
        assert_eq!(report.stats.blocks_completed, 4);
    }

    #[test]
    fn stores_visible_after_launch() {
        let mut sim = small_sim();
        let buf = sim.alloc(256).unwrap();
        sim.launch(LaunchConfig::new(2, 64), move |ctx| async move {
            let mask = ctx.id().launch_mask;
            let addrs = std::array::from_fn(|l| buf.offset(ctx.id().thread_id(l)));
            let vals = std::array::from_fn(|l| ctx.id().thread_id(l) + 1);
            ctx.store(mask, &addrs, &vals).await;
        })
        .unwrap();
        for t in 0..128 {
            assert_eq!(sim.read(buf.offset(t)), t + 1, "thread {t}");
        }
    }

    #[test]
    fn tail_warp_has_partial_mask() {
        let mut sim = small_sim();
        let buf = sim.alloc(64).unwrap();
        // 40 threads = one full warp + one 8-lane warp.
        sim.launch(LaunchConfig::new(1, 40), move |ctx| async move {
            let mask = ctx.id().launch_mask;
            let addrs = std::array::from_fn(|l| buf.offset(ctx.id().thread_id(l)));
            let vals = [1u32; 32];
            ctx.store(mask, &addrs, &vals).await;
        })
        .unwrap();
        let written: u32 = sim.read_slice(buf, 64).iter().sum();
        assert_eq!(written, 40);
    }

    #[test]
    fn atomic_add_counts_all_threads() {
        let mut sim = small_sim();
        let counter = sim.alloc(1).unwrap();
        sim.launch(LaunchConfig::new(8, 128), move |ctx| async move {
            let mask = ctx.id().launch_mask;
            ctx.atomic_add_uniform(mask, counter, 1).await;
        })
        .unwrap();
        assert_eq!(sim.read(counter), 8 * 128);
    }

    #[test]
    fn watchdog_fires_on_infinite_loop() {
        let mut cfg = SimConfig::with_memory(1 << 12);
        cfg.watchdog_cycles = 50_000;
        let mut sim = Sim::new(cfg);
        let err = sim
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                loop {
                    ctx.idle(100).await;
                }
            })
            .unwrap_err();
        // An idle loop never touches memory and never marks progress:
        // indistinguishable from a deadlock.
        assert!(matches!(err, SimError::Deadlock { .. }), "got {err:?}");
        assert_eq!(err.unfinished_warps().len(), 1);
    }

    #[test]
    fn budget_exceeded_when_warps_keep_progressing() {
        let mut cfg = SimConfig::with_memory(1 << 12);
        cfg.watchdog_cycles = 50_000;
        let mut sim = Sim::new(cfg);
        let buf = sim.alloc(1).unwrap();
        let err = sim
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                let mut v = 0;
                loop {
                    v += 1;
                    ctx.store_one(0, buf, v).await;
                    ctx.mark_progress();
                    ctx.idle(100).await;
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }), "got {err:?}");
        let w = &err.unfinished_warps()[0];
        assert!(w.progress_marks > 0);
    }

    #[test]
    fn livelock_detected_on_busy_non_progress() {
        // Warps keep toggling memory (mutations) but never mark progress.
        let mut cfg = SimConfig::with_memory(1 << 12);
        cfg.watchdog_cycles = 50_000;
        let mut sim = Sim::new(cfg);
        let buf = sim.alloc(1).unwrap();
        let err = sim
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                let mut v = 0;
                loop {
                    v += 1;
                    ctx.store_one(0, buf, v).await;
                    ctx.idle(50).await;
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Livelock { .. }), "got {err:?}");
    }

    #[test]
    fn stall_limit_fires_before_budget() {
        let mut cfg = SimConfig::with_memory(1 << 12);
        cfg.watchdog_cycles = 1 << 40;
        cfg.stall_cycles = 10_000;
        let mut sim = Sim::new(cfg);
        let err = sim
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                loop {
                    ctx.idle(100).await;
                }
            })
            .unwrap_err();
        match err {
            SimError::Deadlock { cycle, .. } => assert!(cycle < 20_000, "cycle {cycle}"),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn schedule_shuffle_is_deterministic_per_seed() {
        let run = |plan: crate::fault::FaultPlan| {
            let mut cfg = SimConfig::with_memory(1 << 16);
            cfg.fault = plan;
            let mut sim = Sim::new(cfg);
            let buf = sim.alloc(65).unwrap();
            sim.launch(LaunchConfig::new(8, 64), move |ctx| async move {
                let id = ctx.id();
                let slot = id.global_warp(2);
                for i in 0..4 {
                    // The ticket each warp draws records its position in
                    // the global dispatch order.
                    let t = ctx.atomic_add_uniform(id.launch_mask, buf, 1).await;
                    ctx.store_one(0, buf.offset(1 + slot * 4 + i), t).await;
                }
            })
            .unwrap();
            sim.read_slice(buf, 65)
        };
        let base = run(crate::fault::FaultPlan::none());
        let s1 = run(crate::fault::FaultPlan::schedule_shuffle(1));
        let s1_again = run(crate::fault::FaultPlan::schedule_shuffle(1));
        let s2 = run(crate::fault::FaultPlan::schedule_shuffle(2));
        assert_eq!(s1, s1_again, "same seed must reproduce exactly");
        // Different seeds (and the unshuffled order) should disagree
        // somewhere; the counter total is unchanged either way.
        assert_eq!(base[0], s1[0]);
        assert_eq!(s1[0], s2[0]);
        assert!(s1 != base || s2 != base, "shuffle changed nothing");
    }

    #[test]
    fn latency_jitter_counted_and_deterministic() {
        let run = |seed| {
            let mut cfg = SimConfig::with_memory(1 << 16);
            cfg.fault = crate::fault::FaultPlan::latency_jitter(seed, 32);
            let mut sim = Sim::new(cfg);
            let buf = sim.alloc(1).unwrap();
            let report = sim
                .launch(LaunchConfig::new(4, 64), move |ctx| async move {
                    for _ in 0..8 {
                        ctx.atomic_add_uniform(ctx.id().launch_mask, buf, 1).await;
                    }
                })
                .unwrap();
            (report.cycles, report.stats.injected_jitter_cycles, sim.read(buf))
        };
        let (c1, j1, v1) = run(5);
        let (c1b, j1b, _) = run(5);
        assert_eq!((c1, j1), (c1b, j1b));
        assert!(j1 > 0);
        assert_eq!(v1, 4 * 64 * 8);
        let unjittered = {
            let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
            let buf = sim.alloc(1).unwrap();
            sim.launch(LaunchConfig::new(4, 64), move |ctx| async move {
                for _ in 0..8 {
                    ctx.atomic_add_uniform(ctx.id().launch_mask, buf, 1).await;
                }
            })
            .unwrap()
            .cycles
        };
        assert!(c1 > unjittered, "jitter must lengthen the run");
    }

    #[test]
    fn spurious_cas_failures_only_delay_lock_free_progress() {
        // A lock-free fetch-add built on CAS: spurious failures force
        // retries but the final count must still be exact.
        let mut cfg = SimConfig::with_memory(1 << 16);
        cfg.fault = crate::fault::FaultPlan::cas_failures(11, 1, 4);
        let mut sim = Sim::new(cfg);
        let buf = sim.alloc(1).unwrap();
        let report = sim
            .launch(LaunchConfig::new(2, 64), move |ctx| async move {
                let launch = ctx.id().launch_mask;
                for l in launch.iter() {
                    let mut done = false;
                    while !done {
                        let cur = ctx.load_one(l, buf).await;
                        done = ctx.atomic_cas_one(l, buf, cur, cur + 1).await == cur;
                    }
                }
            })
            .unwrap();
        assert_eq!(sim.read(buf), 2 * 64);
        assert!(report.stats.spurious_cas_failures > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = small_sim();
            let buf = sim.alloc(1).unwrap();
            let report = sim
                .launch(LaunchConfig::new(16, 64), move |ctx| async move {
                    let mask = ctx.id().launch_mask;
                    for _ in 0..4 {
                        ctx.atomic_add_uniform(mask, buf, 1).await;
                    }
                })
                .unwrap();
            (report.cycles, sim.read(buf))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn block_residency_limits_respected() {
        // 1 block slot per SM, 1 SM: blocks strictly serialise.
        let mut cfg = SimConfig::with_memory(1 << 12);
        cfg.gpu = GpuConfig { sm_count: 1, max_warps_per_sm: 2, max_blocks_per_sm: 1 };
        let mut sim = Sim::new(cfg);
        let flag = sim.alloc(4).unwrap();
        let report = sim
            .launch(LaunchConfig::new(4, 32), move |ctx| async move {
                let mask = ctx.id().launch_mask;
                ctx.idle(100).await;
                ctx.atomic_add_uniform(mask, flag, 1).await;
            })
            .unwrap();
        assert_eq!(sim.read(flag), 4 * 32);
        // Serialised blocks: total time at least 4 × the idle period.
        assert!(report.cycles >= 400, "cycles={}", report.cycles);
    }

    #[test]
    fn launch_resets_stats_but_keeps_memory() {
        let mut sim = small_sim();
        let a = sim.alloc(1).unwrap();
        sim.write(a, 5);
        let r1 = sim
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                ctx.atomic_add_uniform(ctx.id().launch_mask, a, 1).await;
            })
            .unwrap();
        assert!(r1.stats.atomics > 0);
        let r2 = sim.launch(LaunchConfig::new(1, 32), |_| async {}).unwrap();
        assert_eq!(r2.stats.atomics, 0);
        assert_eq!(sim.read(a), 5 + 32);
    }

    #[test]
    fn thread_ids_are_dense_and_unique() {
        let grid = LaunchConfig::new(3, 96);
        let id = WarpId {
            block: 2,
            warp_in_block: 1,
            threads_per_block: 96,
            launch_mask: LaneMask::FULL,
        };
        assert_eq!(id.thread_id(0), 2 * 96 + 32);
        assert_eq!(id.thread_id(31), 2 * 96 + 63);
        assert_eq!(grid.warps_per_block(), 3);
        assert_eq!(grid.total_threads(), 288);
    }

    #[test]
    fn parked_warp_woken_by_handle() {
        let mut sim = small_sim();
        let handoff: Rc<RefCell<Option<crate::WakeHandle>>> = Rc::default();
        let outcome: Rc<Cell<Option<crate::ParkOutcome>>> = Rc::default();
        let (h2, o2) = (Rc::clone(&handoff), Rc::clone(&outcome));
        let report = sim
            .launch(LaunchConfig::new(1, 64), move |ctx| {
                let handoff = Rc::clone(&h2);
                let outcome = Rc::clone(&o2);
                async move {
                    if ctx.id().warp_in_block == 0 {
                        // Publish the handle, then park forever: only the
                        // sibling warp's wake can resume us.
                        *handoff.borrow_mut() = Some(ctx.wake_handle());
                        let got = ctx.park(ctx.id().launch_mask, &[Addr(7)], u64::MAX).await;
                        outcome.set(Some(got));
                        ctx.mark_progress();
                    } else {
                        ctx.idle(500).await;
                        handoff.borrow_mut().take().expect("warp 0 parked first").wake();
                    }
                }
            })
            .unwrap();
        assert_eq!(outcome.get(), Some(crate::ParkOutcome::Woken));
        assert_eq!(report.stats.parks, 1);
        assert_eq!(report.stats.wakes, 1);
        // The parked warp burned no cycles of its own: the run is bounded
        // by the waker's 500-cycle idle plus small instruction costs.
        assert!(report.cycles < 1000, "cycles={}", report.cycles);
    }

    #[test]
    fn park_budget_expires_as_timeout() {
        let mut sim = small_sim();
        let outcome: Rc<Cell<Option<crate::ParkOutcome>>> = Rc::default();
        let o2 = Rc::clone(&outcome);
        let report = sim
            .launch(LaunchConfig::new(1, 32), move |ctx| {
                let outcome = Rc::clone(&o2);
                async move {
                    let got = ctx.park(ctx.id().launch_mask, &[], 10_000).await;
                    outcome.set(Some(got));
                    ctx.mark_progress();
                }
            })
            .unwrap();
        assert_eq!(outcome.get(), Some(crate::ParkOutcome::TimedOut));
        // The clock jumped straight to the deadline — the parked interval
        // is not simulated step by step.
        assert!(report.cycles >= 10_000, "cycles={}", report.cycles);
        assert!(report.cycles < 11_000, "cycles={}", report.cycles);
    }

    #[test]
    fn all_parked_forever_is_immediate_deadlock_with_addrs() {
        // Default watchdog is ~10^12 cycles: an immediate report proves the
        // executor detected the all-parked state rather than burning budget.
        let mut sim = small_sim();
        let err = sim
            .launch(LaunchConfig::new(1, 64), move |ctx| async move {
                let watched = [Addr(0x10), Addr(0xff)];
                ctx.park(ctx.id().launch_mask, &watched, u64::MAX).await;
            })
            .unwrap_err();
        match &err {
            SimError::Deadlock { cycle, unfinished } => {
                assert!(*cycle < 1_000, "immediate, got cycle {cycle}");
                assert_eq!(unfinished.len(), 2);
                for w in unfinished {
                    assert_eq!(w.parked_addrs, vec![Addr(0x10), Addr(0xff)]);
                    assert!(w.to_string().contains("parked on [0x10 0xff]"));
                }
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn wake_before_park_is_a_noop() {
        // A wake delivered while the target is still runnable is consumed
        // and dropped; the warp then parks and must rely on its budget.
        let mut sim = small_sim();
        let handoff: Rc<RefCell<Option<crate::WakeHandle>>> = Rc::default();
        let outcome: Rc<Cell<Option<crate::ParkOutcome>>> = Rc::default();
        let (h2, o2) = (Rc::clone(&handoff), Rc::clone(&outcome));
        sim.launch(LaunchConfig::new(1, 64), move |ctx| {
            let handoff = Rc::clone(&h2);
            let outcome = Rc::clone(&o2);
            async move {
                if ctx.id().warp_in_block == 0 {
                    *handoff.borrow_mut() = Some(ctx.wake_handle());
                    // Stay runnable long enough for the early wake to be
                    // drained as a no-op, then park.
                    ctx.idle(1_000).await;
                    let got = ctx.park(ctx.id().launch_mask, &[], 5_000).await;
                    outcome.set(Some(got));
                    ctx.mark_progress();
                } else {
                    // Fire immediately, long before warp 0 parks.
                    handoff.borrow_mut().take().expect("published first").wake();
                }
            }
        })
        .unwrap();
        assert_eq!(outcome.get(), Some(crate::ParkOutcome::TimedOut));
    }

    #[test]
    fn park_wake_is_deterministic() {
        let run = || {
            let mut sim = small_sim();
            let handoff: Rc<RefCell<Option<crate::WakeHandle>>> = Rc::default();
            let h2 = Rc::clone(&handoff);
            sim.launch(LaunchConfig::new(2, 64), move |ctx| {
                let handoff = Rc::clone(&h2);
                async move {
                    if ctx.id().block == 0 && ctx.id().warp_in_block == 0 {
                        *handoff.borrow_mut() = Some(ctx.wake_handle());
                        ctx.park(ctx.id().launch_mask, &[Addr(1)], 50_000).await;
                        ctx.mark_progress();
                    } else {
                        ctx.idle(200).await;
                        if let Some(h) = handoff.borrow_mut().take() {
                            h.wake();
                        }
                    }
                }
            })
            .unwrap()
            .cycles
        };
        assert_eq!(run(), run());
    }

    /// Picks a fixed runnable index each decision and logs every step.
    struct FixedPick {
        index: usize,
        steps: Rc<RefCell<Vec<StepRecord>>>,
    }

    impl crate::schedule::SchedulePolicy for FixedPick {
        fn pick(&mut self, _now: u64, runnable: &[RunnableWarp]) -> usize {
            self.index.min(runnable.len() - 1)
        }

        fn observe(&mut self, step: StepRecord) {
            self.steps.borrow_mut().push(step);
        }
    }

    fn ticket_order_under(index: usize) -> (Vec<u32>, Vec<StepRecord>) {
        let steps: Rc<RefCell<Vec<StepRecord>>> = Rc::default();
        let mut cfg = SimConfig::with_memory(1 << 16);
        cfg.schedule =
            Some(crate::schedule::PolicyHandle::new(FixedPick { index, steps: Rc::clone(&steps) }));
        let mut sim = Sim::new(cfg);
        let counter = sim.alloc(1).unwrap();
        let tickets = sim.alloc(4).unwrap();
        sim.launch(LaunchConfig::new(4, 1), move |ctx| async move {
            let mask = ctx.id().launch_mask;
            let t = ctx.atomic_add_uniform(mask, counter, 1).await;
            ctx.store_one(0, tickets.offset(ctx.id().block), t).await;
        })
        .unwrap();
        let order = sim.read_slice(tickets, 4);
        let log = steps.borrow().clone();
        (order, log)
    }

    #[test]
    fn schedule_policy_controls_interleaving() {
        // Always picking the first runnable warp runs blocks in order;
        // always picking the last reverses the ticket order.
        let (first, _) = ticket_order_under(0);
        assert_eq!(first, vec![0, 1, 2, 3]);
        let (last, _) = ticket_order_under(usize::MAX);
        assert_eq!(last, vec![3, 2, 1, 0]);
    }

    #[test]
    fn schedule_policy_observes_effects_and_retires() {
        let (_, log) = ticket_order_under(0);
        let atomics = log
            .iter()
            .filter(|s| matches!(s.effect, crate::schedule::StepEffect::Atomic(_)))
            .count();
        let stores = log
            .iter()
            .filter(|s| matches!(s.effect, crate::schedule::StepEffect::Store(_)))
            .count();
        let retires =
            log.iter().filter(|s| matches!(s.effect, crate::schedule::StepEffect::Retire)).count();
        assert_eq!(atomics, 4);
        assert_eq!(stores, 4);
        assert_eq!(retires, 4);
        // Every observed step names a real warp of the 4×1 grid.
        assert!(log.iter().all(|s| s.block < 4 && s.warp_in_block == 0));
    }
}
