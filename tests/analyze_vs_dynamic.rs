//! Property test: the `txl::cost` static conflict graph is a *sound
//! over-approximation* of dynamically observed transactional conflicts.
//!
//! Every program is analyzed statically (`analyze_source`) and executed
//! on the simulator with a commit recorder attached. Whenever two
//! committed transactions from distinct threads overlap on an address
//! with at least one write — a real, observed conflict — the static
//! conflict graph must contain an edge between atomic blocks that can
//! account for those two commits. The check runs over the seeded lint
//! fixture corpus and over ≥32 generated straight-line programs (where
//! commit→block attribution is exact). TL007 is validated the same way:
//! every block the analysis classifies read-only must only ever commit
//! empty write-sets.

use gpu_sim::{LaunchConfig, Sim, SimConfig};
use gpu_stm::{recorder, CommittedTx, LockStm, StmConfig, StmShared};
use std::rc::Rc;
use txl::{analyze_source, compile, launch, ArrayBinding, CostConfig, StaticProfile};

/// Modeled and executed concurrency: 2 blocks × 32 lanes.
const THREADS: u32 = 64;
/// Shared-array words for generated programs.
const WORDS: u32 = 16;

fn cost_cfg() -> CostConfig {
    CostConfig { threads: THREADS, ..CostConfig::default() }
}

/// Deterministic case generator: splitmix64 stream.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        gpu_sim::rng::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0);
        ((self.next_u64() >> 32) as u32) % n
    }
}

/// One executed program: the committed history plus the array bindings
/// needed to map data addresses back to `(param, index)`.
struct RunOutcome {
    commits: Vec<CommittedTx>,
    bindings: Vec<(String, u32, u32)>, // (name, base, len)
}

/// Compiles and runs `src` (first kernel) at [`THREADS`] threads with a
/// commit recorder attached. Buggy fixtures may legitimately hang or
/// fault the simulator; those come back as `Err` and are skipped.
fn run_recorded(src: &str) -> Result<RunOutcome, txl::TxlError> {
    let program = compile(src)?;
    let kernel = program.kernels.first().expect("program has a kernel");

    let mut scfg = SimConfig::with_memory(1 << 16);
    scfg.watchdog_cycles = 1 << 26;
    scfg.stall_cycles = 1 << 20;
    let mut sim = Sim::new(scfg);
    let stm_cfg = StmConfig::new(1 << 6);
    let shared = StmShared::init(&mut sim, &stm_cfg).expect("stm init");
    let rec = recorder();
    let stm = Rc::new(LockStm::hv_sorting(shared, stm_cfg).with_observers(Some(rec.clone()), None));

    let mut bindings = Vec::new();
    let mut named = Vec::new();
    for (p, len) in kernel.params.iter().zip(txl::array_lens(kernel, THREADS)) {
        let addr = sim.alloc(len).expect("alloc");
        bindings.push(ArrayBinding::new(p.name.clone(), addr, len));
        named.push((p.name.clone(), addr.0, len));
    }

    launch(&mut sim, &stm, kernel, LaunchConfig::new(2, 32), 7, &bindings)?;
    let commits = rec.borrow().commits.clone();
    Ok(RunOutcome { commits, bindings: named })
}

/// Maps a data address back to `(param name, index)` via the bindings.
fn locate(bindings: &[(String, u32, u32)], addr: u32) -> Option<(usize, u32)> {
    bindings
        .iter()
        .position(|(_, base, len)| addr >= *base && addr < base + len)
        .map(|pi| (pi, addr - bindings[pi].1))
}

/// All `(param, index)` cells a commit touched, reads and writes alike.
fn touched_cells(bindings: &[(String, u32, u32)], tx: &CommittedTx) -> Vec<(usize, u32)> {
    tx.reads.iter().chain(tx.writes.iter()).filter_map(|a| locate(bindings, a.addr.0)).collect()
}

/// Whether two commits from distinct threads conflict: they overlap on
/// an address and at least one side writes it.
fn dyn_conflict(a: &CommittedTx, b: &CommittedTx) -> bool {
    if a.tid == b.tid {
        return false;
    }
    let hits = |xs: &[gpu_stm::Access], ys: &[gpu_stm::Access]| {
        xs.iter().any(|x| ys.iter().any(|y| x.addr == y.addr))
    };
    hits(&a.writes, &b.writes) || hits(&a.writes, &b.reads) || hits(&a.reads, &b.writes)
}

/// Whether block `m` of the profile can account for a commit touching
/// `cells`: every touched cell lies inside the block's static hull for
/// that array. The true originating block always qualifies (that is the
/// footprint soundness the analysis guarantees), so an existential
/// search over `fits` never comes up empty for a real commit.
fn fits(
    profile: &StaticProfile,
    bindings: &[(String, u32, u32)],
    m: usize,
    cells: &[(usize, u32)],
) -> bool {
    cells.iter().all(|&(pi, idx)| {
        profile.tx[m].arrays.iter().any(|a| {
            a.name == bindings[pi].0
                && a.footprint.touched().is_some_and(|h| h.lo <= idx && idx <= h.hi)
        })
    })
}

/// The fixture-corpus half: commit→block attribution is unknown (loops,
/// branches), so the check is existential — some pair of blocks that
/// covers the two commits must be joined by a static edge.
#[test]
fn fixtures_static_graph_covers_dynamic_conflicts() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/txl/tests/fixtures");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("fixture dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "txl"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 15, "fixture corpus shrank: {}", paths.len());

    let mut conflicts_checked = 0usize;
    let mut ran = 0usize;
    for path in &paths {
        let src = std::fs::read_to_string(path).expect("fixture reads");
        let profile = analyze_source(&src, &cost_cfg()).expect("fixture analyzes");
        // Buggy fixtures may deadlock/livelock the simulator; the static
        // analysis still must not crash on them, but only clean runs
        // yield a history to compare against.
        let Ok(out) = run_recorded(&src) else { continue };
        ran += 1;
        for i in 0..out.commits.len() {
            for j in i + 1..out.commits.len() {
                let (a, b) = (&out.commits[i], &out.commits[j]);
                if !dyn_conflict(a, b) {
                    continue;
                }
                conflicts_checked += 1;
                let ca = touched_cells(&out.bindings, a);
                let cb = touched_cells(&out.bindings, b);
                let covered = (0..profile.tx.len()).any(|m| {
                    (0..profile.tx.len()).any(|n| {
                        fits(&profile, &out.bindings, m, &ca)
                            && fits(&profile, &out.bindings, n, &cb)
                            && profile.graph.has_edge(m, n)
                    })
                });
                assert!(
                    covered,
                    "{}: observed conflict (tid {} vs tid {}) has no covering static edge",
                    path.display(),
                    a.tid,
                    b.tid
                );
            }
        }
    }
    assert!(ran >= 8, "too few fixtures ran to completion: {ran}");
    assert!(conflicts_checked > 0, "no fixture produced a dynamic conflict; property vacuous");
}

/// One generated straight-line program: every atomic block is top-level
/// and unconditional, so thread `t`'s `k`-th commit comes from block `k`
/// and the conflict-graph check is exact, not existential.
fn gen_program(g: &mut Gen) -> String {
    let n_blocks = 2 + g.below(3);
    let mut body = String::new();
    for bi in 0..n_blocks {
        let arr = if g.below(2) == 0 { "a" } else { "b" };
        let stmt = match g.below(5) {
            // Hot single cell: every thread collides.
            0 => format!("atomic {{ {arr}[{0}] = {arr}[{0}] + 1; }}", g.below(4)),
            // Striped: collides across SIMT blocks only.
            1 => format!("atomic {{ {arr}[tid() % {WORDS}] = tid(); }}"),
            // Random cell: [0, WORDS) hull, data-dependent collisions.
            2 => {
                format!("atomic {{ let j{bi} = rand({WORDS}); {arr}[j{bi}] = {arr}[j{bi}] + 1; }}")
            }
            // Read-only: the TL007 shape.
            3 => format!("atomic {{ let r{bi} = {arr}[tid() % {WORDS}]; }}"),
            // Two-array transfer on a shared cell.
            _ => format!("atomic {{ a[{0}] = a[{0}] - 1; b[{0}] = b[{0}] + 1; }}", g.below(WORDS)),
        };
        body.push_str("    ");
        body.push_str(&stmt);
        body.push('\n');
    }
    format!("kernel p(a: array[{WORDS}], b: array[{WORDS}]) {{\n{body}}}\n")
}

#[test]
fn generated_conflicts_are_edges_and_tl007_blocks_stay_read_only() {
    let mut conflicts_checked = 0usize;
    let mut read_only_commits = 0usize;
    for seed in 0..40u64 {
        let mut g = Gen::new(0xa9a1 ^ (seed * 0x9e37));
        let src = gen_program(&mut g);
        let profile = analyze_source(&src, &cost_cfg()).expect("generated program analyzes");
        let out = run_recorded(&src).expect("generated program runs");

        // Exact attribution: straight-line programs commit one tx per
        // block per thread, in program order.
        for (k, tx) in profile.tx.iter().enumerate() {
            assert_eq!(tx.index, k, "seed {seed}: profile blocks out of source order");
        }
        let mut per_thread: Vec<Vec<usize>> = vec![Vec::new(); THREADS as usize];
        for (ci, c) in out.commits.iter().enumerate() {
            per_thread[c.tid as usize].push(ci);
        }
        let block_of = |ci: usize| -> usize {
            let c = &out.commits[ci];
            per_thread[c.tid as usize].iter().position(|&x| x == ci).expect("attributed")
        };
        for lane in &per_thread {
            assert_eq!(
                lane.len(),
                profile.tx.len(),
                "seed {seed}: a thread committed a different number of txs than blocks:\n{src}"
            );
        }

        // Soundness: every observed conflict is a static edge.
        for i in 0..out.commits.len() {
            for j in i + 1..out.commits.len() {
                if !dyn_conflict(&out.commits[i], &out.commits[j]) {
                    continue;
                }
                conflicts_checked += 1;
                let (m, n) = (block_of(i), block_of(j));
                assert!(
                    profile.graph.has_edge(m, n),
                    "seed {seed}: observed conflict between blocks {m} and {n} \
                     missing from the static graph:\n{src}"
                );
            }
        }

        // TL007: statically read-only blocks never commit a write, and
        // the lint rule flags exactly the blocks the profile classifies.
        let lint_cfg = txl::LintConfig { flag_read_only: true, ..txl::LintConfig::default() };
        let diags = txl::lint_source(&src, &lint_cfg).expect("generated program lints");
        let flagged: Vec<_> =
            diags.iter().filter(|d| d.rule.id() == "TL007").map(|d| d.span).collect();
        for (k, tx) in profile.tx.iter().enumerate() {
            assert_eq!(
                flagged.contains(&tx.span),
                tx.read_only,
                "seed {seed}: TL007 flags disagree with the profile on block {k}"
            );
            if !tx.read_only {
                continue;
            }
            for lane in &per_thread {
                let c = &out.commits[lane[k]];
                assert!(
                    c.is_read_only(),
                    "seed {seed}: TL007 block {k} committed a write (tid {}):\n{src}",
                    c.tid
                );
                read_only_commits += 1;
            }
        }
    }
    // The corpus must exercise both phenomena, or the property is vacuous.
    assert!(conflicts_checked > 0, "no generated program conflicted; generator too weak");
    assert!(read_only_commits > 0, "no generated program had a TL007 block; generator too weak");
}
