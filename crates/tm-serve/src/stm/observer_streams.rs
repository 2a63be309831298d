//! Pins every observer stream an STM run produces: the recorded
//! [`History`] (every committed transaction, in order, and the abort
//! count), every transaction-lifecycle event, and the final [`TxStats`].
//!
//! Each run folds all of them into one FNV-1a fingerprint. The runs cover
//! every variant on RA, the blocking queue with parking on and off, and
//! the serve preset (admission and escalation around STM-HV-Sorting), so
//! a change to how any runtime or policy reports what it did shows up
//! here even when no golden moves. History totals must also equal the
//! stats totals, and so must the event totals (DESIGN.md §10,
//! invariant 3).

use super::{build_stm, EngineMode};
use gpu_sim::rng::Fnv;
use gpu_sim::{Addr, LaunchConfig, Sim, SimConfig, WarpCtx, WarpRng};
use gpu_stm::{
    lane_addrs, lane_vals, recorder, tx_trace_sink, History, Recorder, Stm, StmConfig, TxEventKind,
    TxStats, TxTraceSink, Variant,
};
use std::rc::Rc;
use workloads::queue::{run_queue, QueueParams};
use workloads::ra::{self, RaParams};
use workloads::RunConfig;

/// Ring capacity large enough that no run drops an event.
const EVENTS: usize = 1 << 22;

/// Folds the run's history, events and stats into one fingerprint and
/// checks that the three agree on the totals. Returns
/// `(fingerprint, commits, aborts)`.
fn fold(label: &str, history: &History, sink: &TxTraceSink, stats: &TxStats) -> (u64, u64, u64) {
    let mut h = Fnv::new();
    for tx in &history.commits {
        h.u32(tx.tid);
        h.u32(tx.version.map_or(0, |v| v + 1));
        h.u32(tx.snapshot);
        for set in [&tx.reads, &tx.writes] {
            h.u64(set.len() as u64);
            for a in set {
                h.u32(a.addr.0);
                h.u32(a.val);
            }
        }
    }
    h.u64(history.aborts);
    let trace = sink.borrow();
    assert_eq!(trace.dropped(), 0, "{label}: the trace ring overflowed");
    let (mut ev_commits, mut ev_aborts) = (0u64, 0u64);
    for e in trace.events() {
        h.u64(e.cycle);
        h.u32(e.block);
        h.u32(e.warp);
        h.str(&format!("{:?}", e.kind));
        match e.kind {
            TxEventKind::Commit { committed, .. } => ev_commits += u64::from(committed),
            TxEventKind::Abort { lanes, .. } => ev_aborts += u64::from(lanes),
            _ => {}
        }
    }
    for word in stats.encode() {
        h.u64(word);
    }
    assert_eq!(history.commits.len() as u64, stats.commits, "{label}: history vs stats commits");
    assert_eq!(history.aborts, stats.aborts, "{label}: history vs stats aborts");
    assert_eq!(ev_commits, stats.commits, "{label}: events vs stats commits");
    assert_eq!(ev_aborts, stats.aborts, "{label}: events vs stats aborts");
    (h.finish(), stats.commits, stats.aborts)
}

/// Whether the stream holds an event of the kind `pick` matches.
fn holds(sink: &TxTraceSink, pick: fn(&TxEventKind) -> bool) -> bool {
    sink.borrow().events().any(|e| pick(&e.kind))
}

fn observed_config() -> (RunConfig, Recorder, TxTraceSink) {
    let (rec, sink) = (recorder(), tx_trace_sink(EVENTS));
    let cfg = RunConfig {
        recorder: Some(Rc::clone(&rec)),
        trace: Some(Rc::clone(&sink)),
        ..RunConfig::with_memory(1 << 16).with_locks(1 << 10)
    };
    (cfg, rec, sink)
}

fn ra_stream(variant: Variant) -> (u64, u64, u64) {
    let (cfg, rec, sink) = observed_config();
    let params = RaParams { shared_words: 64, ..RaParams::default() };
    let out = ra::run(&params, variant, LaunchConfig::new(2, 64), &cfg).unwrap();
    let history = rec.borrow();
    fold(variant.label(), &history, &sink, &out.tx)
}

fn queue_stream(park: bool) -> (u64, u64, u64) {
    let (cfg, rec, sink) = observed_config();
    let params = QueueParams { park, ..QueueParams::default() };
    let out = run_queue(&params, Variant::HvSorting, &cfg).unwrap();
    assert_eq!(holds(&sink, |k| matches!(k, TxEventKind::Park { .. })), park);
    let history = rec.borrow();
    fold(if park { "queue park" } else { "queue respin" }, &history, &sink, &out.tx)
}

/// The serve preset's STM (`EngineMode::Robust`: admission and
/// escalation around STM-HV-Sorting) under a kernel in which every lane
/// increments one of two hot counters three times.
fn serve_stream() -> (u64, u64, u64) {
    const COUNTERS: u32 = 2;
    const INCREMENTS: u32 = 3;
    let mut sim = Sim::new(SimConfig::with_memory(1 << 18));
    let cfg = StmConfig::new(1 << 6);
    let grid = LaunchConfig::new(4, 64);
    let (rec, sink) = (recorder(), tx_trace_sink(EVENTS));
    let stm = build_stm(
        &mut sim,
        Variant::HvSorting,
        EngineMode::Robust,
        cfg,
        u64::from(COUNTERS),
        grid,
        Rc::clone(&rec),
        Some(Rc::clone(&sink)),
    )
    .unwrap();
    let stm = Rc::new(stm);
    let counters: Addr = sim.alloc(COUNTERS).unwrap();
    let kstm = Rc::clone(&stm);
    sim.launch(grid, move |ctx: WarpCtx| {
        let stm = Rc::clone(&kstm);
        async move {
            let mut w = stm.new_warp();
            let mut rng = WarpRng::new(7, ctx.id().thread_id(0));
            let mut remaining = [INCREMENTS; 32];
            loop {
                let pending = ctx.id().launch_mask.filter(|l| remaining[l] > 0);
                if pending.none() {
                    break;
                }
                let active = stm.begin(&mut w, &ctx, pending).await;
                if active.none() {
                    continue;
                }
                let addrs = lane_addrs(active, |l| counters.offset(rng.below(l, COUNTERS)));
                let vals = stm.read(&mut w, &ctx, active, &addrs).await;
                let ok = active & stm.opaque(&w);
                stm.write(&mut w, &ctx, ok, &addrs, &lane_vals(ok, |l| vals[l] + 1)).await;
                for l in stm.commit(&mut w, &ctx, active).await.iter() {
                    remaining[l] -= 1;
                }
            }
        }
    })
    .unwrap();
    let total: u32 = sim.read_slice(counters, COUNTERS).iter().sum();
    assert_eq!(u64::from(total), grid.total_threads() * u64::from(INCREMENTS), "lost updates");
    // Both policies report through the same sink as the runtime.
    assert!(holds(&sink, |k| matches!(k, TxEventKind::Throttle { .. })));
    assert!(holds(&sink, |k| matches!(k, TxEventKind::Escalate { .. })));
    assert!(holds(&sink, |k| matches!(k, TxEventKind::Backoff { .. })));
    let stats = stm.stats().borrow().clone();
    let history = rec.borrow();
    fold("serve preset", &history, &sink, &stats)
}

#[test]
fn every_observer_stream_is_pinned() {
    // (run, fingerprint, commits, aborts), captured before the runtimes'
    // stats, history and trace updates moved behind one ledger.
    let expected: [(&str, u64, u64, u64); 11] = [
        ("CGL", 0x2f8b2e7d72d0c366, 128, 0),
        ("STM-EGPGV", 0xbff02b5a9abb2a94, 128, 66),
        ("STM-VBV", 0x45fb55a07e48f19c, 128, 620),
        ("STM-TBV-Sorting", 0x59a5f5897f15115a, 128, 460),
        ("STM-HV-Sorting", 0x2c0ee51c6a353543, 128, 502),
        ("STM-HV-Backoff", 0xc14372c75ba9d355, 128, 439),
        ("STM-TBV-Backoff", 0xa477c980ef712836, 128, 465),
        ("STM-Optimized", 0x59a5f5897f15115a, 128, 460),
        ("queue park", 0xd0bdcce4c8cc00ae, 132, 191),
        ("queue respin", 0x2044f08bd9294425, 132, 318),
        ("serve preset", 0x6ad181cbc6b12094, 768, 4349),
    ];
    let mut got: Vec<(String, (u64, u64, u64))> =
        Variant::ALL.iter().map(|&v| (v.label().to_string(), ra_stream(v))).collect();
    got.push(("queue park".into(), queue_stream(true)));
    got.push(("queue respin".into(), queue_stream(false)));
    got.push(("serve preset".into(), serve_stream()));
    let table: Vec<String> =
        got.iter().map(|(l, (f, c, a))| format!("(\"{l}\", {f:#018x}, {c}, {a}),")).collect();
    assert_eq!(got.len(), expected.len(), "{}", table.join("\n"));
    for ((label, run), (want_label, f, c, a)) in got.iter().zip(expected) {
        assert_eq!((label.as_str(), *run), (want_label, (f, c, a)), "\n{}", table.join("\n"));
    }
}
