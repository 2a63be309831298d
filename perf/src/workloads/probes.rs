//! Probes the traced pass runs beside a workload's repetitions: fixed
//! simulator costs, per-call STM costs, and the opacity checker.

use super::{Facts, Rep};
use crate::trace::Tracer;
use gpu_sim::{LaneMask, LaunchConfig, Sim, SimConfig, WarpCtx};
use gpu_stm::{lane_addrs, lane_vals, StatsHandle, Stm, StmConfig, WarpTx};
use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;
use workloads::{dispatch, RunConfig, RunError, StmRunner, Variant};

fn timed_us(t: &Tracer, name: &'static str, iters: u32, mut f: impl FnMut()) -> f64 {
    t.span(name, || {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
    })
}

/// What every launch pays before its first instruction, at the memory
/// size the model checker's litmus kernels use: `Sim::new` + `alloc`, and
/// a launch of one warp that returns at once.
pub fn sim_fixed_costs(t: &Tracer, facts: &mut Facts) {
    const ITERS: u32 = 2000;
    let new_alloc = timed_us(t, "probe.new_alloc", ITERS, || {
        let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
        std::hint::black_box(sim.alloc(1024).expect("1024 words fit in 64Ki"));
    });
    let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
    let empty_launch = timed_us(t, "probe.empty_launch", ITERS, || {
        sim.launch(LaunchConfig::new(1, 32), |_| async {}).expect("an empty kernel finishes");
    });
    facts.push(("gpu-sim.new_alloc_us", new_alloc));
    facts.push(("gpu-sim.empty_launch_us", empty_launch));
}

/// `Stm` decorator that times every poll of the four transactional calls.
/// The probe launches one warp, so no other warp's work lands inside a
/// poll; what is timed includes the simulator work a call does
/// synchronously (coalescing, cache model, memory): *inclusive* cost.
struct Timed<S> {
    inner: Rc<S>,
    /// Per op: nanoseconds inside polls, and calls.
    acc: Rc<[Cell<(u64, u64)>; 4]>,
}

impl<S> Timed<S> {
    async fn time<F: Future>(&self, op: usize, fut: F) -> F::Output {
        let mut fut = std::pin::pin!(fut);
        let (ns, calls) = self.acc[op].get();
        self.acc[op].set((ns, calls + 1));
        std::future::poll_fn(|cx| {
            let t0 = Instant::now();
            let out = fut.as_mut().poll(cx);
            let (ns, calls) = self.acc[op].get();
            self.acc[op].set((ns + t0.elapsed().as_nanos() as u64, calls));
            out
        })
        .await
    }
}

impl<S: Stm> Stm for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn new_warp(&self) -> WarpTx {
        self.inner.new_warp()
    }
    fn stats(&self) -> StatsHandle {
        self.inner.stats()
    }
    fn opaque(&self, w: &WarpTx) -> LaneMask {
        self.inner.opaque(w)
    }
    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        self.time(0, self.inner.begin(w, ctx, want)).await
    }
    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &gpu_sim::LaneAddrs,
    ) -> gpu_sim::LaneVals {
        self.time(1, self.inner.read(w, ctx, mask, addrs)).await
    }
    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &gpu_sim::LaneAddrs,
        vals: &gpu_sim::LaneVals,
    ) {
        self.time(2, self.inner.write(w, ctx, mask, addrs, vals)).await
    }
    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        self.time(3, self.inner.commit(w, ctx, mask)).await
    }
}

/// The `stm_ops` kernel: one warp, 8 transactions per lane (256 in all) of
/// 8 reads then 8 writes over words only that lane touches, so nothing
/// ever conflicts.
const TXS_PER_LANE: u32 = 8;
const ACCESSES: u32 = 8;
const PROBE_LAUNCHES: u32 = 20;

struct OpsRunner {
    data: gpu_sim::Addr,
    acc: Rc<[Cell<(u64, u64)>; 4]>,
}

impl StmRunner for OpsRunner {
    /// Commits, and wall nanoseconds of the launch.
    type Out = (u64, u64);

    fn run<S: Stm + 'static>(self, sim: &mut Sim, stm: Rc<S>) -> Result<(u64, u64), RunError> {
        let timed = Rc::new(Timed { inner: Rc::clone(&stm), acc: self.acc });
        let data = self.data;
        let t0 = Instant::now();
        sim.launch(LaunchConfig::new(1, 32), move |ctx: WarpCtx| {
            let stm = Rc::clone(&timed);
            async move {
                let mut w = stm.new_warp();
                let mut remaining = [TXS_PER_LANE; 32];
                let lane_word = |l: usize, k: u32| data.offset(l as u32 * 2 * ACCESSES + k);
                loop {
                    let pending = ctx.id().launch_mask.filter(|l| remaining[l] > 0);
                    if pending.none() {
                        break;
                    }
                    let active = stm.begin(&mut w, &ctx, pending).await;
                    if active.none() {
                        continue;
                    }
                    for k in 0..ACCESSES {
                        let addrs = lane_addrs(active, |l| lane_word(l, k));
                        let _ = stm.read(&mut w, &ctx, active, &addrs).await;
                    }
                    for k in 0..ACCESSES {
                        let addrs = lane_addrs(active, |l| lane_word(l, ACCESSES + k));
                        let vals = lane_vals(active, |l| remaining[l] + k);
                        stm.write(&mut w, &ctx, active, &addrs, &vals).await;
                    }
                    for l in stm.commit(&mut w, &ctx, active).await.iter() {
                        remaining[l] -= 1;
                    }
                }
            }
        })?;
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let commits = stm.stats().borrow().commits;
        Ok((commits, wall_ns))
    }
}

/// Host nanoseconds per `Stm` call, per variant, and the share of launch
/// wall time spent inside `Stm` calls.
pub fn stm_ops(t: &Tracer, out: &mut Rep) {
    const METRICS: [(Variant, [&str; 4]); 4] = [
        (
            Variant::Cgl,
            [
                "gpu-stm.cgl.begin_ns",
                "gpu-stm.cgl.read_ns",
                "gpu-stm.cgl.write_ns",
                "gpu-stm.cgl.commit_ns",
            ],
        ),
        (
            Variant::Vbv,
            [
                "gpu-stm.vbv.begin_ns",
                "gpu-stm.vbv.read_ns",
                "gpu-stm.vbv.write_ns",
                "gpu-stm.vbv.commit_ns",
            ],
        ),
        (
            Variant::TbvSorting,
            [
                "gpu-stm.tbv-sorting.begin_ns",
                "gpu-stm.tbv-sorting.read_ns",
                "gpu-stm.tbv-sorting.write_ns",
                "gpu-stm.tbv-sorting.commit_ns",
            ],
        ),
        (
            Variant::HvSorting,
            [
                "gpu-stm.hv-sorting.begin_ns",
                "gpu-stm.hv-sorting.read_ns",
                "gpu-stm.hv-sorting.write_ns",
                "gpu-stm.hv-sorting.commit_ns",
            ],
        ),
    ];
    let (mut in_ops_ns, mut wall_ns) = (0u64, 0u64);
    t.span("probe.stm_ops", || {
        for (variant, names) in METRICS {
            let acc: Rc<[Cell<(u64, u64)>; 4]> = Rc::default();
            let mut commits = 0;
            for _ in 0..PROBE_LAUNCHES {
                let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
                let grid = LaunchConfig::new(1, 32);
                let result =
                    sim.alloc(32 * 2 * ACCESSES).map_err(RunError::from).and_then(|data| {
                        let runner = OpsRunner { data, acc: Rc::clone(&acc) };
                        dispatch(
                            &mut sim,
                            variant,
                            StmConfig::new(1 << 10),
                            1 << 10,
                            grid,
                            None,
                            None,
                            runner,
                        )
                    });
                match result {
                    Ok((c, ns)) => {
                        commits += c;
                        wall_ns += ns;
                    }
                    Err(e) => out.complaints.push(format!("stm_ops {variant}: {e}")),
                }
            }
            let want = u64::from(PROBE_LAUNCHES * 32 * TXS_PER_LANE);
            out.check(want, commits == want, || {
                format!("stm_ops {variant}: {commits} commits, want {want}")
            });
            for (op, name) in names.into_iter().enumerate() {
                let (ns, calls) = acc[op].get();
                in_ops_ns += ns;
                out.facts.push((name, ns as f64 / calls.max(1) as f64));
            }
        }
    });
    out.facts.push(("gpu-stm.op_share", in_ops_ns as f64 / wall_ns.max(1) as f64));
}

/// `check_history` over a recorded 4096-commit RA history: the replay
/// every serve shard runs at drain.
pub fn tm_check(t: &Tracer, seed: u64, out: &mut Rep) {
    let suite = bench::Suite::default();
    let (mut params, grid) = suite.ra();
    params.seed = super::mix_seed(params.seed, seed);
    let recorder = gpu_stm::recorder();
    let cfg = RunConfig {
        recorder: Some(Rc::clone(&recorder)),
        ..suite.run_config(u64::from(params.shared_words), grid.total_threads())
    };
    if let Err(e) = workloads::ra::run(&params, Variant::HvSorting, grid, &cfg) {
        out.check(1, false, || format!("tm-check probe: RA run failed: {e}"));
        return;
    }
    let history = recorder.borrow();
    let txs = history.commits.len();
    let t0 = Instant::now();
    let report = t.span("tm-check.check_history", || tm_check::check_history(&history, |_| 0));
    let us = t0.elapsed().as_secs_f64() * 1e6;
    out.check(txs as u64, report.is_ok() && txs as u64 == grid.total_threads(), || {
        format!("tm-check probe: {} violations over {txs} commits", report.violations.len())
    });
    out.facts.push(("tm-check.check_us_per_tx", us / txs.max(1) as f64));
    out.facts.push(("tm-check.violations", report.violations.len() as f64));
}
