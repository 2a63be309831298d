//! `Sim::reset(cfg)` is `Sim::new(cfg)`: a simulator dirtied by stores,
//! atomics, L2 traffic, a race sink, a trace sink, a schedule policy and
//! a parked-then-woken warp, once reset, runs a kernel exactly as a fresh
//! simulator does — same report, memory image, cache state, lifetime
//! counters, race log and trace.

use gpu_sim::{
    race_sink, trace_sink, Addr, CacheConfig, LaneMask, LaunchConfig, PolicyHandle, RaceSink,
    RunReport, RunnableWarp, SchedulePolicy, Sim, SimConfig, SimEvent, StepEffect, StepRecord,
    TraceSink, WakeHandle, WarpCtx, WARP_SIZE,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Rotates through the runnable warps, one instruction each, and keeps
/// a copy of what it observes.
#[derive(Default)]
struct RoundRobin {
    picks: usize,
    steps: Vec<(u32, u32, StepEffect, Vec<Addr>)>,
}

impl SchedulePolicy for RoundRobin {
    fn pick(&mut self, _now: u64, runnable: &[RunnableWarp]) -> usize {
        self.picks += 1;
        self.picks % runnable.len()
    }

    fn observe(&mut self, step: StepRecord<'_>) {
        self.steps.push((step.block, step.warp_in_block, step.effect, step.addrs.to_vec()));
    }
}

/// Loads, stores, a contended atomic, an unsynchronised store race, a
/// fence, and warp (0, 0) parked until warp (0, 1) wakes it.
fn run_kernel(sim: &mut Sim, words: u32) -> RunReport {
    let buf = sim.alloc(words).expect("fits");
    let counter = sim.alloc(1).expect("fits");
    sim.write_slice(buf, &(0..words).map(|i| i * 3).collect::<Vec<_>>());
    let handle: Rc<RefCell<Option<WakeHandle>>> = Rc::default();
    let shared = Rc::clone(&handle);
    let report = sim
        .launch(LaunchConfig::new(2, 64), move |ctx: WarpCtx| {
            let handle = Rc::clone(&shared);
            async move {
                let id = ctx.id();
                let mask = id.launch_mask;
                let addrs = std::array::from_fn(|l| buf.offset(id.thread_id(l) % words));
                let vals = ctx.load(mask, &addrs).await;
                let out: [u32; WARP_SIZE] = std::array::from_fn(|l| vals[l].wrapping_add(1));
                ctx.store(mask, &addrs, &out).await;
                ctx.atomic_add_uniform(LaneMask::lane(0), counter, 1).await;
                // Every warp stores the same word with no ordering: a race.
                ctx.store_one(0, buf, id.block).await;
                ctx.fence(mask).await;
                match (id.block, id.warp_in_block) {
                    (0, 0) => {
                        *handle.borrow_mut() = Some(ctx.wake_handle());
                        ctx.park(LaneMask::lane(0), &[counter], u64::MAX).await;
                    }
                    (0, 1) => loop {
                        let h = handle.borrow().clone();
                        match h {
                            Some(h) => break h.wake(),
                            None => ctx.idle(10).await,
                        }
                    },
                    _ => {}
                }
            }
        })
        .expect("kernel completes");
    // A wake fired after the launch lands in a queue no later launch reads.
    if let Some(h) = handle.borrow().as_ref() {
        h.wake();
    }
    report
}

struct Sinks {
    race: RaceSink,
    trace: TraceSink,
}

fn config(mem_words: usize, cache: CacheConfig, policy: bool) -> (SimConfig, Sinks) {
    let sinks = Sinks { race: race_sink(), trace: trace_sink(1 << 12) };
    let mut cfg = SimConfig::with_memory(mem_words);
    cfg.cache = cache;
    cfg.race = Some(sinks.race.clone());
    cfg.trace = Some(sinks.trace.clone());
    cfg.schedule = policy.then(|| PolicyHandle::new(RoundRobin::default()));
    (cfg, sinks)
}

fn events(t: &TraceSink) -> Vec<SimEvent> {
    t.borrow().events().copied().collect()
}

/// Dirties a simulator built from `dirty`, resets it to `clean`, runs the
/// kernel on it and on a fresh `Sim::new(clean)`, and compares the two.
fn reset_matches_new(dirty: SimConfig, clean: impl Fn() -> (SimConfig, Sinks), dirty_words: u32) {
    let mut reused = Sim::new(dirty);
    run_kernel(&mut reused, dirty_words);
    run_kernel(&mut reused, dirty_words);
    assert!(reused.launches() == 2 && reused.lifetime_stats().parks == 2);

    let (cfg, reused_sinks) = clean();
    reused.reset(cfg);
    let (cfg, fresh_sinks) = clean();
    let mut fresh = Sim::new(cfg);

    let a = run_kernel(&mut reused, 40);
    let b = run_kernel(&mut fresh, 40);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.parks, 1);

    let (ca, cb) = (reused.checkpoint(), fresh.checkpoint());
    assert_eq!(ca.memory, cb.memory);
    assert_eq!(ca.cache, cb.cache);
    assert_eq!(ca.stats, cb.stats);
    assert_eq!((ca.cycles, ca.launches), (cb.cycles, cb.launches));
    // Past the new break too: nothing of the dirty run survives.
    let all = fresh.config().mem_words as u32;
    assert_eq!(reused.read_slice(Addr(0), all), fresh.read_slice(Addr(0), all));

    let (ra, rb) = (reused_sinks.race.borrow(), fresh_sinks.race.borrow());
    assert!(!rb.races.is_empty(), "the kernel races");
    assert_eq!(ra.races, rb.races);
    assert!(!events(&fresh_sinks.trace).is_empty());
    assert_eq!(events(&reused_sinks.trace), events(&fresh_sinks.trace));
}

#[test]
fn reset_is_new_at_the_same_geometry() {
    let clean = || config(1 << 12, CacheConfig::fermi_l2(), false);
    let (dirty, _sinks) = config(1 << 12, CacheConfig::fermi_l2(), true);
    reset_matches_new(dirty, clean, 900);
}

#[test]
fn reset_is_new_across_a_memory_and_cache_change() {
    let clean = || config(1 << 12, CacheConfig::fermi_l2(), false);
    let (dirty, _sinks) = config(1 << 14, CacheConfig::tiny(), true);
    reset_matches_new(dirty, clean, 3000);
}

/// Words X and Y, allocated in that order.
fn two_words(sim: &mut Sim) -> (Addr, Addr) {
    (sim.alloc(1).expect("fits"), sim.alloc(1).expect("fits"))
}

#[test]
fn a_reset_race_detector_forgets_the_last_run() {
    let with_sink = |race: &RaceSink| {
        let mut cfg = SimConfig::with_memory(1 << 12);
        cfg.race = Some(race.clone());
        cfg
    };
    // Run one: an atomic makes X a sync variable, and a warp reads Y.
    let first = race_sink();
    let mut reused = Sim::new(with_sink(&first));
    let (x, y) = two_words(&mut reused);
    reused
        .launch(LaunchConfig::new(1, 64), move |ctx: WarpCtx| async move {
            ctx.atomic_add_uniform(LaneMask::lane(0), x, 1).await;
            let _ = ctx.load_one(0, y).await;
        })
        .expect("run one completes");
    assert!(first.borrow().races.is_empty(), "{:?}", first.borrow().races);

    // Run two: plain stores to X and Y by both warps, unordered.
    let run_two = |sim: &mut Sim| {
        let (x, y) = two_words(sim);
        sim.launch(LaunchConfig::new(1, 64), move |ctx: WarpCtx| async move {
            let v = ctx.id().warp_in_block + 1;
            ctx.store_one(0, x, v).await;
            ctx.store_one(0, y, v).await;
        })
        .expect("run two completes");
    };
    let (reused_races, fresh_races) = (race_sink(), race_sink());
    reused.reset(with_sink(&reused_races));
    run_two(&mut reused);
    let mut fresh = Sim::new(with_sink(&fresh_races));
    run_two(&mut fresh);

    let (got, want) = (reused_races.borrow(), fresh_races.borrow());
    assert_eq!(want.races.len(), 2, "{:?}", want.races);
    assert_eq!(got.races, want.races);
}
