//! `Sim::reset(cfg)` is `Sim::new(cfg)`: a simulator dirtied by stores,
//! atomics, L2 traffic, a race sink, a trace sink, a schedule policy and
//! a parked-then-woken warp, once reset, runs a kernel exactly as a fresh
//! simulator does — same report, memory image, cache state, lifetime
//! counters, race log and trace.

use gpu_sim::{
    race_sink, trace_sink, Addr, CacheConfig, LaneMask, LaunchConfig, PolicyHandle, RaceSink,
    RunReport, RunnableWarp, SchedulePolicy, Sim, SimConfig, SimEvent, StepRecord, TraceSink,
    WakeHandle, WarpCtx, WARP_SIZE,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Rotates through the runnable warps, one instruction each, and keeps
/// what it observes.
#[derive(Default)]
struct RoundRobin {
    picks: usize,
    steps: Vec<StepRecord>,
}

impl SchedulePolicy for RoundRobin {
    fn pick(&mut self, _now: u64, runnable: &[RunnableWarp]) -> usize {
        self.picks += 1;
        self.picks % runnable.len()
    }

    fn observe(&mut self, step: StepRecord) {
        self.steps.push(step);
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
