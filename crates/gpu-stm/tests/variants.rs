//! End-to-end correctness tests: every STM variant runs real transactional
//! kernels on the simulator and must preserve the workloads' invariants.

use gpu_sim::{LaunchConfig, Sim, SimConfig, WarpCtx};
use gpu_stm::{
    lane_addrs, lane_vals, recorder, CglStm, EgpgvStm, LockStm, NorecStm, Stm, StmConfig, StmShared,
};
use std::rc::Rc;

fn sim(mem_words: usize) -> Sim {
    let mut cfg = SimConfig::with_memory(mem_words);
    cfg.watchdog_cycles = 1 << 32; // fail loudly on livelock
    Sim::new(cfg)
}

/// Launches a transactional kernel in which every thread increments
/// `n_incr` randomly-chosen counters from a table of `n_counters`,
/// each increment in its own transaction.
fn run_counter_kernel<S: Stm + 'static>(
    sim: &mut Sim,
    stm: Rc<S>,
    grid: LaunchConfig,
    counters: gpu_sim::Addr,
    n_counters: u32,
    n_incr: u32,
) {
    sim.launch(grid, move |ctx: WarpCtx| {
        let stm = Rc::clone(&stm);
        async move {
            let mut w = stm.new_warp();
            let mut rng = gpu_sim::WarpRng::new(0xc0ffee, ctx.id().thread_id(0));
            let launch = ctx.id().launch_mask;
            let mut remaining = [n_incr; 32];
            let mut target = [0u32; 32];
            let mut fresh = launch; // lanes that need a new random target
            loop {
                let pending = launch.filter(|l| remaining[l] > 0);
                if pending.none() {
                    break;
                }
                for l in (pending & fresh).iter() {
                    target[l] = rng.below(l, n_counters);
                }
                fresh = gpu_sim::LaneMask::EMPTY;
                let active = stm.begin(&mut w, &ctx, pending).await;
                if active.none() {
                    continue;
                }
                let addrs = lane_addrs(active, |l| counters.offset(target[l]));
                let vals = stm.read(&mut w, &ctx, active, &addrs).await;
                let ok = active & stm.opaque(&w);
                let upd = lane_vals(ok, |l| vals[l] + 1);
                stm.write(&mut w, &ctx, ok, &addrs, &upd).await;
                let committed = stm.commit(&mut w, &ctx, active).await;
                for l in committed.iter() {
                    remaining[l] -= 1;
                }
                fresh = committed; // committed lanes pick a new target
            }
        }
    })
    .unwrap();
}

fn check_counter_total<S: Stm + 'static>(make: impl FnOnce(&mut Sim, StmShared, StmConfig) -> S) {
    let mut s = sim(1 << 18);
    let cfg = StmConfig::new(1 << 10);
    let shared = StmShared::init(&mut s, &cfg).unwrap();
    let n_counters = 64;
    let counters = s.alloc(n_counters).unwrap();
    let stm = Rc::new(make(&mut s, shared, cfg));
    let grid = LaunchConfig::new(4, 64);
    let n_incr = 4;
    run_counter_kernel(&mut s, Rc::clone(&stm), grid, counters, n_counters, n_incr);
    let total: u64 = s.read_slice(counters, n_counters).iter().map(|v| *v as u64).sum();
    assert_eq!(
        total,
        grid.total_threads() * n_incr as u64,
        "lost or duplicated increments under {}",
        stm.name()
    );
    let st = stm.stats();
    let st = st.borrow();
    assert_eq!(st.commits, grid.total_threads() * n_incr as u64);
}

#[test]
fn hv_sorting_preserves_increments() {
    check_counter_total(|_, sh, cfg| LockStm::hv_sorting(sh, cfg));
}

#[test]
fn tbv_sorting_preserves_increments() {
    check_counter_total(|_, sh, cfg| LockStm::tbv_sorting(sh, cfg));
}

#[test]
fn hv_backoff_preserves_increments() {
    check_counter_total(|_, sh, cfg| LockStm::hv_backoff(sh, cfg));
}

#[test]
fn tbv_backoff_preserves_increments() {
    check_counter_total(|_, sh, cfg| LockStm::tbv_backoff(sh, cfg));
}

#[test]
fn norec_preserves_increments() {
    check_counter_total(|_, sh, cfg| NorecStm::new(sh, cfg));
}

#[test]
fn optimized_preserves_increments() {
    check_counter_total(|_, sh, cfg| LockStm::optimized(sh, cfg, 64));
}

#[test]
fn optimized_hv_mode_preserves_increments() {
    // Force HV selection: pretend shared data exceeds the lock count.
    check_counter_total(|_, sh, cfg| LockStm::optimized(sh, cfg, 1 << 20));
}

#[test]
fn egpgv_preserves_increments() {
    check_counter_total(|s, sh, cfg| EgpgvStm::init(s, sh, cfg).unwrap());
}

#[test]
fn cgl_preserves_increments() {
    check_counter_total(|s, _, _| CglStm::init(s).unwrap());
}

#[test]
fn pre_commit_vbv_preserves_increments() {
    check_counter_total(|_, sh, mut cfg| {
        cfg.pre_commit_vbv = true;
        LockStm::hv_sorting(sh, cfg)
    });
}

#[test]
fn uncoalesced_sets_preserve_increments() {
    check_counter_total(|_, sh, mut cfg| {
        cfg.coalesced_sets = false;
        LockStm::hv_sorting(sh, cfg)
    });
}

#[test]
fn flat_locklog_preserves_increments() {
    check_counter_total(|_, sh, mut cfg| {
        cfg.locklog_buckets = 1;
        LockStm::hv_sorting(sh, cfg)
    });
}

/// The paper's Section 3.2.2 starvation example: T1 reads Y and writes X
/// while T2 (same warp) reads X and writes Y. Locking read locations at
/// commit (as GPU-STM does) must let both make progress instead of
/// mutually aborting forever.
#[test]
fn cross_readwrite_lanes_in_one_warp_progress() {
    let mut s = sim(1 << 16);
    let cfg = StmConfig::new(1 << 8);
    let shared = StmShared::init(&mut s, &cfg).unwrap();
    let data = s.alloc(2).unwrap();
    let stm = Rc::new(LockStm::hv_sorting(shared, cfg));
    let k_stm = Rc::clone(&stm);
    s.launch(LaunchConfig::new(1, 32), move |ctx: WarpCtx| {
        let stm = Rc::clone(&k_stm);
        async move {
            let mut w = stm.new_warp();
            let two = gpu_sim::LaneMask::first_n(2);
            let mut pending = two;
            // Lane 0: read data[1], write data[0]. Lane 1: read data[0], write data[1].
            while pending.any() {
                let active = stm.begin(&mut w, &ctx, pending).await;
                let raddr = lane_addrs(active, |l| data.offset(1 - l as u32));
                let vals = stm.read(&mut w, &ctx, active, &raddr).await;
                let ok = active & stm.opaque(&w);
                let waddr = lane_addrs(ok, |l| data.offset(l as u32));
                let upd = lane_vals(ok, |l| vals[l] + 10);
                stm.write(&mut w, &ctx, ok, &waddr, &upd).await;
                let committed = stm.commit(&mut w, &ctx, active).await;
                pending &= !committed;
            }
        }
    })
    .unwrap();
    // Both lanes committed exactly once.
    assert_eq!(stm.stats().borrow().commits, 2);
}

/// Read-only transactions must commit without acquiring any locks and
/// without touching the global clock.
#[test]
fn read_only_transactions_are_cheap() {
    let mut s = sim(1 << 16);
    let cfg = StmConfig::new(1 << 8);
    let shared = StmShared::init(&mut s, &cfg).unwrap();
    let data = s.alloc(64).unwrap();
    let stm = Rc::new(LockStm::hv_sorting(shared, cfg));
    let k_stm = Rc::clone(&stm);
    s.launch(LaunchConfig::new(1, 32), move |ctx: WarpCtx| {
        let stm = Rc::clone(&k_stm);
        async move {
            let mut w = stm.new_warp();
            let mask = ctx.id().launch_mask;
            let active = stm.begin(&mut w, &ctx, mask).await;
            let addrs = lane_addrs(active, |l| data.offset(l as u32));
            let _ = stm.read(&mut w, &ctx, active, &addrs).await;
            let committed = stm.commit(&mut w, &ctx, active).await;
            assert!(committed.all());
        }
    })
    .unwrap();
    let stats = stm.stats();
    let st = stats.borrow();
    assert_eq!(st.commits, 32);
    assert_eq!(st.read_only_commits, 32);
    assert_eq!(s.read(shared.clock), 0, "read-only commits must not bump the clock");
}

/// Write-after-read within a transaction must observe its own writes
/// (read-your-writes through the write-set Bloom filter).
#[test]
fn read_your_own_writes() {
    let mut s = sim(1 << 16);
    let cfg = StmConfig::new(1 << 8);
    let shared = StmShared::init(&mut s, &cfg).unwrap();
    let data = s.alloc(32).unwrap();
    let out = s.alloc(32).unwrap();
    let stm = Rc::new(LockStm::hv_sorting(shared, cfg));
    let k_stm = Rc::clone(&stm);
    s.launch(LaunchConfig::new(1, 32), move |ctx: WarpCtx| {
        let stm = Rc::clone(&k_stm);
        async move {
            let mut w = stm.new_warp();
            let mask = ctx.id().launch_mask;
            let active = stm.begin(&mut w, &ctx, mask).await;
            let addrs = lane_addrs(active, |l| data.offset(l as u32));
            stm.write(&mut w, &ctx, active, &addrs, &lane_vals(active, |l| l as u32 + 7)).await;
            let seen = stm.read(&mut w, &ctx, active, &addrs).await;
            let oaddrs = lane_addrs(active, |l| out.offset(l as u32));
            stm.write(&mut w, &ctx, active, &oaddrs, &seen).await;
            let committed = stm.commit(&mut w, &ctx, active).await;
            assert!(committed.all());
        }
    })
    .unwrap();
    for l in 0..32 {
        assert_eq!(s.read(out.offset(l)), l + 7);
    }
}

/// A recorded history under heavy conflict must show both commits and
/// (for this contended configuration) aborts, and commit versions must be
/// unique and dense enough to order transactions.
#[test]
fn recorder_captures_history() {
    let mut s = sim(1 << 18);
    let cfg = StmConfig::new(1 << 4); // tiny lock table: force conflicts
    let shared = StmShared::init(&mut s, &cfg).unwrap();
    let counters = s.alloc(4).unwrap();
    let rec = recorder();
    let stm = Rc::new(LockStm::hv_sorting(shared, cfg).with_observers(Some(Rc::clone(&rec)), None));
    run_counter_kernel(&mut s, Rc::clone(&stm), LaunchConfig::new(2, 64), counters, 4, 2);
    let h = rec.borrow();
    assert_eq!(h.commits.len(), 2 * 64 * 2);
    let mut versions: Vec<u32> = h.commits.iter().filter_map(|c| c.version).collect();
    let n = versions.len();
    versions.sort_unstable();
    versions.dedup();
    assert_eq!(versions.len(), n, "commit versions must be unique");
    // Contended counters with a 16-entry lock table: conflicts guaranteed.
    assert!(stm.stats().borrow().aborts > 0, "expected contention-induced aborts");
}

/// Determinism: identical runs produce identical cycle counts and stats.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut s = sim(1 << 18);
        let cfg = StmConfig::new(1 << 8);
        let shared = StmShared::init(&mut s, &cfg).unwrap();
        let counters = s.alloc(16).unwrap();
        let stm = Rc::new(LockStm::hv_sorting(shared, cfg));
        run_counter_kernel(&mut s, Rc::clone(&stm), LaunchConfig::new(2, 64), counters, 16, 3);
        let st = stm.stats();
        let st = st.borrow();
        (st.commits, st.aborts, s.read_slice(counters, 16))
    };
    assert_eq!(run(), run());
}

/// The paper's justification for locking read locations (Section 3.2.2):
/// with write-only commit locking, the cross read/write pair in one warp
/// mutually aborts forever under lockstep execution. The watchdog proves
/// the starvation that GPU-STM's read-locking avoids.
#[test]
fn write_only_locking_starves_on_cross_readwrite() {
    let mut simcfg = SimConfig::with_memory(1 << 16);
    simcfg.watchdog_cycles = 400_000;
    let mut s = Sim::new(simcfg);
    let mut cfg = StmConfig::new(1 << 8);
    cfg.lock_read_set = false; // CPU-STM convention: ablation
    let shared = StmShared::init(&mut s, &cfg).unwrap();
    let data = s.alloc(2).unwrap();
    let stm = Rc::new(LockStm::hv_sorting(shared, cfg));
    let k_stm = Rc::clone(&stm);
    let err = s
        .launch(LaunchConfig::new(1, 32), move |ctx: WarpCtx| {
            let stm = Rc::clone(&k_stm);
            async move {
                let mut w = stm.new_warp();
                let two = gpu_sim::LaneMask::first_n(2);
                let mut pending = two;
                // Lane 0: read data[1], write data[0]; lane 1 vice versa.
                while pending.any() {
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    let raddr = gpu_stm::lane_addrs(active, |l| data.offset(1 - l as u32));
                    let vals = stm.read(&mut w, &ctx, active, &raddr).await;
                    let ok = active & stm.opaque(&w);
                    let waddr = gpu_stm::lane_addrs(ok, |l| data.offset(l as u32));
                    let upd = gpu_stm::lane_vals(ok, |l| vals[l] + 1);
                    stm.write(&mut w, &ctx, ok, &waddr, &upd).await;
                    let committed = stm.commit(&mut w, &ctx, active).await;
                    pending &= !committed;
                }
            }
        })
        .unwrap_err();
    assert!(err.is_progress_failure(), "expected lockstep starvation, got {err:?}");
}

/// The write-only-locking ablation still preserves correctness on
/// low-contention (non-pathological) workloads.
#[test]
fn write_only_locking_correct_without_cross_contention() {
    check_counter_total(|_, sh, mut cfg| {
        cfg.lock_read_set = false;
        LockStm::hv_sorting(sh, cfg)
    });
}

/// Disabling the write-set Bloom filter changes cost, not semantics.
#[test]
fn bloomless_writeset_preserves_increments() {
    check_counter_total(|_, sh, mut cfg| {
        cfg.write_set_bloom = false;
        LockStm::hv_sorting(sh, cfg)
    });
}
