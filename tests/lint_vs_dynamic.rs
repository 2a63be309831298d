//! Property test: the static lint layer is sound with respect to the
//! dynamic happens-before detector on executed paths. Random TXL kernels
//! mixing transactional and plain accesses to one shared array are run on
//! the simulator with race detection; whenever the dynamic layer observes
//! a data race on the array, the static layer must have flagged a
//! weak-isolation hazard (TL001) in that kernel — no false negatives.

use gpu_sim::{race_sink, LaunchConfig, Sim, SimConfig};
use gpu_stm::{LockStm, StmConfig, StmShared};
use std::rc::Rc;
use txl::lint::{lint_source, LintConfig, Rule};
use txl::{compile, launch, ArrayBinding};

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

const WORDS: u32 = 16;

fn index_expr(g: &mut Gen) -> String {
    match g.below(3) {
        0 => format!("{}", g.below(WORDS)),
        1 => format!("tid() % {WORDS}"),
        _ => format!("rand({WORDS})"),
    }
}

/// A random loop-free kernel over one shared array. Every kernel contains
/// at least one `atomic` access to the array, so any plain access is a
/// weak-isolation hazard candidate; whether it *races* depends on the
/// executed indices, which is exactly what the dynamic layer decides.
fn gen_kernel(g: &mut Gen) -> String {
    let mut body = String::new();
    body.push_str(&format!("    atomic {{ a[{0}] = a[{0}] + 1; }}\n", index_expr(g)));
    let extra = 1 + g.below(4);
    for i in 0..extra {
        let stmt = match g.below(4) {
            0 => format!("a[{}] = tid();", index_expr(g)),
            1 => format!("let r{i} = a[{}];", index_expr(g)),
            2 => format!("atomic {{ a[{0}] = a[{0}] + 2; }}", index_expr(g)),
            _ => format!("if tid() % 2 {{ a[{}] = {i}; }}", index_expr(g)),
        };
        body.push_str("    ");
        body.push_str(&stmt);
        body.push('\n');
    }
    format!("kernel p(a: array) {{\n{body}}}\n")
}

fn run_with_detector(src: &str) -> Vec<gpu_sim::DataRace> {
    let program = compile(src).unwrap();
    let sink = race_sink();
    let mut scfg = SimConfig::with_memory(1 << 16);
    scfg.watchdog_cycles = 1 << 32;
    scfg.race = Some(Rc::clone(&sink));
    let mut sim = Sim::new(scfg);
    let cfg = StmConfig::new(1 << 6);
    let shared = StmShared::init(&mut sim, &cfg).unwrap();
    let a = sim.alloc(WORDS).unwrap();
    let stm = Rc::new(LockStm::hv_sorting(shared, cfg));
    launch(
        &mut sim,
        &stm,
        program.kernel("p").unwrap(),
        LaunchConfig::new(2, 64),
        7,
        &[ArrayBinding::new("a", a, WORDS)],
    )
    .unwrap();
    let races = sink.borrow().races.clone();
    races
}

#[test]
fn dynamic_races_are_always_statically_flagged() {
    let mut racy_cases = 0usize;
    let mut clean_cases = 0usize;
    for case in 0..48u64 {
        let mut g = Gen::new(0xc0ffee ^ case);
        let src = gen_kernel(&mut g);
        let diags = lint_source(&src, &LintConfig::default()).unwrap();
        let races = run_with_detector(&src);
        if races.is_empty() {
            clean_cases += 1;
            continue;
        }
        racy_cases += 1;
        // Soundness: an executed weak-isolation race implies a static
        // TL001 verdict on this kernel.
        assert!(
            diags.iter().any(|d| d.rule == Rule::NonAtomicSharedAccess),
            "case {case}: dynamic race {} but no TL001 diagnostic.\nkernel:\n{src}\ndiags: {diags:?}",
            races[0],
        );
    }
    // The corpus must exercise both outcomes, or the property is vacuous.
    assert!(racy_cases > 0, "no generated kernel raced; generator too weak");
    assert!(clean_cases > 0, "every generated kernel raced; generator too strong");
}

/// The inverse direction is deliberately weaker (static analysis is
/// conservative), but fully-transactional kernels must be silent on both
/// layers: no TL001 and no dynamic race.
#[test]
fn fully_transactional_kernels_are_clean_on_both_layers() {
    for case in 0..16u64 {
        let mut g = Gen::new(0xface ^ case);
        let mut body = String::new();
        for _ in 0..1 + g.below(3) {
            body.push_str(&format!("    atomic {{ a[{0}] = a[{0}] + 1; }}\n", index_expr(&mut g)));
        }
        let src = format!("kernel p(a: array) {{\n{body}}}\n");
        let diags = lint_source(&src, &LintConfig::default()).unwrap();
        assert!(
            diags.iter().all(|d| d.rule != Rule::NonAtomicSharedAccess),
            "case {case}: spurious TL001 on fully-transactional kernel:\n{src}"
        );
        let races = run_with_detector(&src);
        assert!(races.is_empty(), "case {case}: race in fully-transactional kernel: {:?}", races);
    }
}
