//! `sim_prims`: bare `Sim::launch` kernels with no STM in them.
//!
//! One cell per simulator primitive — about 100k warp-instructions for the
//! memory cells, 200k for the cheaper scheduler cells — so `gpu-sim` does
//! all the work and `gpu-stm` none.

use super::{mix_seed, sim_facts, Rep, Workload};
use crate::trace::{Span, Tracer};
use gpu_sim::{AtomicOp, LaunchConfig, RunReport, Sim, SimConfig, SimError, SimStats};
use std::sync::Arc;

const DEFAULT_SEED: u64 = 0x5eed_5131;

/// Memory cells: 512 warps × 200 rounds = 102 400 warp-instructions.
const MEM_GRID: (u32, u32) = (128, 128);
const MEM_ROUNDS: u32 = 200;
const BUF_WORDS: u32 = 1 << 16;
const SPREAD_WORDS: u32 = 1024;
/// CAS spin: 64 single-lane contenders, each taking the lock 8 times
/// (about 100k warp-instructions, most of them failed attempts).
const CAS_GRID: (u32, u32) = (16, 128);
const CAS_ACQUISITIONS: u32 = 8;
/// Scheduler cells: this many ALU instructions split across the warps.
const SCHED_BUDGET: u32 = 204_800;
const SCHED_WARPS_PER_BLOCK: u32 = 8;

#[derive(Copy, Clone, PartialEq)]
enum Cell {
    LoadCoalesced,
    LoadStrided,
    StoreCoalesced,
    AtomicContended,
    AtomicSpread,
    CasSpin,
    Sched(u32),
}

const CELLS: [(Cell, &str, &str); 9] = [
    (Cell::LoadCoalesced, "sim_prims.load_coalesced", "gpu-sim.load_coalesced_ns"),
    (Cell::LoadStrided, "sim_prims.load_strided", "gpu-sim.load_strided_ns"),
    (Cell::StoreCoalesced, "sim_prims.store_coalesced", "gpu-sim.store_coalesced_ns"),
    (Cell::AtomicContended, "sim_prims.atomic_contended", "gpu-sim.atomic_contended_ns"),
    (Cell::AtomicSpread, "sim_prims.atomic_spread", "gpu-sim.atomic_spread_ns"),
    (Cell::CasSpin, "sim_prims.cas_spin", "gpu-sim.cas_spin_ns"),
    (Cell::Sched(16), "sim_prims.sched_w16", "gpu-sim.sched_w16_ns"),
    (Cell::Sched(256), "sim_prims.sched_w256", "gpu-sim.sched_w256_ns"),
    (Cell::Sched(1024), "sim_prims.sched_w1024", "gpu-sim.sched_w1024_ns"),
];

pub struct SimPrims {
    /// Rotation of every address pattern, drawn from the seed: the
    /// generated input of a kernel that takes no data.
    rot: u32,
    instr_per_cell: Vec<u64>,
}

pub fn setup(seed: u64) -> Box<dyn Workload> {
    let rot = (workloads::mix64(mix_seed(DEFAULT_SEED, seed)) % u64::from(BUF_WORDS)) as u32;
    let mut w = SimPrims { rot, instr_per_cell: Vec::new() };
    w.rep(&Arc::new(Tracer::new(false)));
    Box::new(w)
}

struct CellOut {
    report: RunReport,
    /// What the kernel left in memory agrees with what it must compute.
    output_ok: bool,
}

fn warp_index(id: &gpu_sim::WarpId) -> u32 {
    id.global_warp(id.threads_per_block.div_ceil(32))
}

fn run_cell(cell: Cell, rot: u32, t: &Tracer) -> Result<CellOut, SimError> {
    let mut sim = t.span("gpu-sim.new", || Sim::new(SimConfig::with_memory(1 << 18)));
    let buf = t.span("gpu-sim.alloc", || sim.alloc(BUF_WORDS))?;
    let at = move |i: u32| buf.offset(i.wrapping_add(rot) % BUF_WORDS);
    let launch = |sim: &mut Sim, grid: (u32, u32), f: &dyn Fn(gpu_sim::WarpCtx) -> KernelFut| {
        t.span("gpu-sim.launch", || sim.launch(LaunchConfig::new(grid.0, grid.1), f))
    };
    match cell {
        Cell::LoadCoalesced | Cell::LoadStrided => {
            let stride = if cell == Cell::LoadStrided { 32 } else { 1 };
            for i in 0..BUF_WORDS {
                sim.write(buf.offset(i), i);
            }
            let sums = sim.alloc(MEM_GRID.0 * MEM_GRID.1)?;
            let report = launch(&mut sim, MEM_GRID, &move |ctx| {
                Box::pin(async move {
                    let id = ctx.id();
                    let base = warp_index(&id) * 32 * stride;
                    let mut sum = [0u32; 32];
                    for round in 0..MEM_ROUNDS {
                        let addrs = std::array::from_fn(|l| {
                            at(base + l as u32 * stride + round * 32 * stride)
                        });
                        let vals = ctx.load(id.launch_mask, &addrs).await;
                        for (s, v) in sum.iter_mut().zip(vals) {
                            *s = s.wrapping_add(v);
                        }
                    }
                    let out = std::array::from_fn(|l| sums.offset(id.thread_id(l)));
                    ctx.store(id.launch_mask, &out, &sum).await;
                })
            })?;
            // Thread 0's lane sum over the indices it loaded.
            let want = (0..MEM_ROUNDS)
                .fold(0u32, |s, r| s.wrapping_add((r * 32 * stride).wrapping_add(rot) % BUF_WORDS));
            Ok(CellOut { report, output_ok: sim.read(sums) == want })
        }
        Cell::StoreCoalesced => {
            let report = launch(&mut sim, MEM_GRID, &move |ctx| {
                Box::pin(async move {
                    let id = ctx.id();
                    let base = warp_index(&id) * 32;
                    for round in 0..MEM_ROUNDS {
                        let addrs = std::array::from_fn(|l| at(base + l as u32 + round * 32));
                        let vals = std::array::from_fn(|l| addrs[l].0);
                        ctx.store(id.launch_mask, &addrs, &vals).await;
                    }
                })
            })?;
            let covered = (MEM_GRID.0 * MEM_GRID.1 / 32 + MEM_ROUNDS - 1) * 32;
            let ok = (0..covered).all(|i| sim.read(at(i)) == at(i).0);
            Ok(CellOut { report, output_ok: ok })
        }
        Cell::AtomicContended | Cell::AtomicSpread => {
            let words = if cell == Cell::AtomicSpread { SPREAD_WORDS } else { 1 };
            let report = launch(&mut sim, MEM_GRID, &move |ctx| {
                Box::pin(async move {
                    let id = ctx.id();
                    let base = warp_index(&id) * 37;
                    for round in 0..MEM_ROUNDS {
                        let addrs = std::array::from_fn(|l| {
                            buf.offset((base + l as u32 * 31 + round * 7 + rot) % words)
                        });
                        ctx.atomic_rmw(id.launch_mask, AtomicOp::Add, &addrs, &[1; 32]).await;
                    }
                })
            })?;
            let total: u64 = sim.read_slice(buf, words).iter().map(|&v| u64::from(v)).sum();
            let want = u64::from(MEM_GRID.0 * MEM_GRID.1) * u64::from(MEM_ROUNDS);
            Ok(CellOut { report, output_ok: total == want })
        }
        Cell::CasSpin => {
            let (lock, counter) = (at(0), at(64));
            let report = launch(&mut sim, CAS_GRID, &move |ctx| {
                Box::pin(async move {
                    for _ in 0..CAS_ACQUISITIONS {
                        while ctx.atomic_cas_one(0, lock, 0, 1).await != 0 {}
                        let v = ctx.load_one(0, counter).await;
                        ctx.store_one(0, counter, v + 1).await;
                        ctx.store_one(0, lock, 0).await;
                    }
                })
            })?;
            let want = CAS_GRID.0 * CAS_GRID.1 / 32 * CAS_ACQUISITIONS;
            Ok(CellOut { report, output_ok: sim.read(counter) == want && sim.read(lock) == 0 })
        }
        Cell::Sched(warps) => {
            let per_warp = SCHED_BUDGET / warps;
            let grid = (warps / SCHED_WARPS_PER_BLOCK, SCHED_WARPS_PER_BLOCK * 32);
            let report = launch(&mut sim, grid, &move |ctx| {
                Box::pin(async move {
                    for _ in 0..per_warp {
                        ctx.alu(ctx.id().launch_mask).await;
                    }
                })
            })?;
            let ok = report.stats.instructions == u64::from(SCHED_BUDGET);
            Ok(CellOut { report, output_ok: ok })
        }
    }
}

type KernelFut = std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>;

impl Workload for SimPrims {
    fn rep(&mut self, t: &Arc<Tracer>) -> Rep {
        let mut rep = Rep::new();
        let mut stats = SimStats::new();
        let mut cycles = 0;
        self.instr_per_cell.clear();
        for (cell, span, _) in CELLS {
            match t.span(span, || run_cell(cell, self.rot, t)) {
                Ok(out) => {
                    let instr = out.report.stats.instructions;
                    rep.check(instr, out.output_ok, || format!("{span}: wrong output"));
                    rep.ops += instr;
                    cycles += out.report.cycles;
                    stats.merge(&out.report.stats);
                    self.instr_per_cell.push(instr);
                }
                Err(e) => {
                    rep.check(1, false, || format!("{span}: {e}"));
                    self.instr_per_cell.push(0);
                }
            }
        }
        sim_facts(&stats, cycles, &mut rep.facts);
        // The modelled machine's cycles per warp-instruction.
        rep.facts.push(("virt_cycles_per_op", cycles as f64 / rep.ops.max(1) as f64));
        rep
    }

    fn layers(&mut self, t: &Arc<Tracer>, spans: &[Span], reps: &[Rep], out: &mut Rep) {
        let n = reps.len() as f64;
        let mut launch_ns = 0.0;
        for ((_, span, metric), &instr) in CELLS.iter().zip(&self.instr_per_cell) {
            // The cell's own launch, without the Sim::new/alloc beside it.
            let cell_launch = spans
                .iter()
                .filter(|c| c.name == "gpu-sim.launch")
                .filter(|c| c.parent.is_some_and(|p| spans[p].name == *span))
                .map(|c| (c.end_ns - c.start_ns) as f64)
                .sum::<f64>();
            launch_ns += cell_launch;
            out.facts.push((metric, cell_launch / n / instr.max(1) as f64));
        }
        let instr: u64 = self.instr_per_cell.iter().sum();
        out.facts.push(("gpu-sim.ns_per_instr", launch_ns / n / instr.max(1) as f64));
        // Read off the trace, not assumed: every span of a repetition is a
        // cell or a `gpu-sim` call, so no launch time was spent in `Stm` calls.
        let other_ns: u64 = spans
            .iter()
            .filter(|s| !s.name.starts_with("gpu-sim.") && !s.name.starts_with("sim_prims."))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        out.check(1, other_ns == 0, || "sim_prims: a span outside gpu-sim in a repetition".into());
        out.facts.push(("gpu-stm.op_share", other_ns as f64 / launch_ns.max(1.0)));
        super::probes::sim_fixed_costs(t, &mut out.facts);
    }
}
