//! Bank transfers: the classic dynamic-data-sharing scenario the paper's
//! introduction motivates — thousands of GPU threads transferring money
//! between random accounts, each transfer an atomic read-modify-write of
//! two arbitrary locations.
//!
//! With locks this needs two-lock acquisition per transfer and livelocks
//! under lockstep execution (Section 2.2); with GPU-STM it is a
//! four-operation transaction. The invariant checked at the end — total
//! balance conserved — fails under any lost update.
//!
//! Run: `cargo run --release --example bank`

use gpu_sim::{LaunchConfig, Sim, SimConfig, WarpRng};
use gpu_stm::{lane_addrs, lane_vals, LockStm, Stm, StmConfig, StmShared};
use std::rc::Rc;

const ACCOUNTS: u32 = 4096;
const INITIAL_BALANCE: u32 = 1000;
const TRANSFERS_PER_THREAD: u32 = 8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sim = Sim::new(SimConfig::with_memory(1 << 20));
    let accounts = sim.alloc(ACCOUNTS)?;
    sim.fill(accounts, ACCOUNTS, INITIAL_BALANCE);

    let cfg = StmConfig::new(1 << 12);
    let shared = StmShared::init(&mut sim, &cfg)?;
    let stm = Rc::new(LockStm::optimized(shared, cfg, ACCOUNTS as u64));

    let grid = LaunchConfig::new(32, 128);
    let total_before: u64 = sim.read_slice(accounts, ACCOUNTS).iter().map(|v| *v as u64).sum();
    println!(
        "{} accounts × {} balance; {} threads × {} transfers under {}",
        ACCOUNTS,
        INITIAL_BALANCE,
        grid.total_threads(),
        TRANSFERS_PER_THREAD,
        stm.name()
    );

    let kstm = Rc::clone(&stm);
    let report = sim.launch(grid, move |ctx| {
        let stm = Rc::clone(&kstm);
        async move {
            let mut w = stm.new_warp();
            let mut rng = WarpRng::new(7, ctx.id().thread_id(0));
            let mut remaining = [TRANSFERS_PER_THREAD; 32];
            let mut from = [0u32; 32];
            let mut to = [0u32; 32];
            let mut amount = [0u32; 32];
            let mut fresh = ctx.id().launch_mask;
            loop {
                let pending = ctx.id().launch_mask.filter(|l| remaining[l] > 0);
                if pending.none() {
                    break;
                }
                // Pick the transfer once per logical transaction so retries
                // re-run the *same* transfer.
                for l in (pending & fresh).iter() {
                    from[l] = rng.below(l, ACCOUNTS);
                    to[l] = rng.below(l, ACCOUNTS - 1);
                    if to[l] >= from[l] {
                        to[l] += 1; // distinct accounts
                    }
                    amount[l] = rng.below(l, 100);
                }
                let active = stm.begin(&mut w, &ctx, pending).await;
                let faddr = lane_addrs(active, |l| accounts.offset(from[l]));
                let taddr = lane_addrs(active, |l| accounts.offset(to[l]));
                let fbal = stm.read(&mut w, &ctx, active, &faddr).await;
                let ok = active & stm.opaque(&w);
                let tbal = stm.read(&mut w, &ctx, ok, &taddr).await;
                let ok = ok & stm.opaque(&w);
                // Withdraw only what is available.
                let pay = lane_vals(ok, |l| amount[l].min(fbal[l]));
                stm.write(&mut w, &ctx, ok, &faddr, &lane_vals(ok, |l| fbal[l] - pay[l])).await;
                stm.write(&mut w, &ctx, ok, &taddr, &lane_vals(ok, |l| tbal[l] + pay[l])).await;
                let committed = stm.commit(&mut w, &ctx, active).await;
                for l in committed.iter() {
                    remaining[l] -= 1;
                }
                fresh = committed;
            }
        }
    })?;

    let total_after: u64 = sim.read_slice(accounts, ACCOUNTS).iter().map(|v| *v as u64).sum();
    let st = stm.stats();
    let st = st.borrow();
    println!("simulated cycles : {}", report.cycles);
    println!("commits / aborts : {} / {}", st.commits, st.aborts);
    println!("balance before   : {total_before}");
    println!("balance after    : {total_after}");
    assert_eq!(total_before, total_after, "money was created or destroyed!");
    println!("OK: total balance conserved across {} transfers", st.commits);
    Ok(())
}
