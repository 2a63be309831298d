//! # bench — the evaluation harness
//!
//! One binary, `bench <subcommand>`, regenerates every table and figure
//! of the paper and every later sweep; this library holds the
//! subcommands ([`cmd`]), the pieces they share ([`args`], [`golden`],
//! [`runner`]) and the scaling rules.
//!
//! ## Output contract
//!
//! A run writes its artifacts under `target/bench/` (`--out DIR`
//! overrides); `bench check` renders all ten goldens and compares each
//! with the committed file; `--bless` is the only writer of a committed
//! file, and only at the golden's pinned configuration.
//!
//! ## Scaling
//!
//! The paper's experiments run 64K threads over multi-megaword arrays on a
//! real C2070; simulating that instruction-by-instruction is possible but
//! slow, so the harness scales *data* sizes by `--data-scale` (default 64)
//! and *thread* counts by `--thread-scale` (default 16), preserving every
//! ratio the paper's conclusions depend on (shared data : lock table,
//! threads : conflicts). Pass `--data-scale 1 --thread-scale 1` to run at
//! paper scale.

#![warn(missing_docs)]

pub mod args;
pub mod cmd;
pub mod golden;
pub mod runner;

use args::Args;
use gpu_sim::LaunchConfig;
use workloads::{
    eigenbench::EbParams, genome::GnParams, ht::HtParams, kmeans::KmParams, labyrinth::LbParams,
    ra::RaParams, RunConfig,
};

/// Why a subcommand did not succeed; the variant is the exit status.
#[derive(Debug)]
pub enum Error {
    /// The command line was wrong (exit 2): nothing ran, nothing was written.
    Usage(String),
    /// The run found something — a violation, a golden mismatch, an
    /// unreadable file (exit 1).
    Failed(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (Error::Usage(msg) | Error::Failed(msg)) = self;
        f.write_str(msg)
    }
}

impl From<String> for Error {
    fn from(msg: String) -> Error {
        Error::Failed(msg)
    }
}

/// A fully parsed subcommand, ready to run.
pub type Job = Box<dyn FnOnce() -> Result<(), Error>>;

/// Parses `<subcommand> [flags]` completely, so a bad command line is
/// rejected before anything runs or is written.
///
/// # Errors
///
/// [`Error::Usage`] on an unknown subcommand or flag, a missing value or
/// a value that does not parse.
pub fn parse(mut args: Args) -> Result<Job, Error> {
    let name = args.subcommand()?;
    let suite_job = |args: &mut Args, run: fn(&Suite)| -> Result<Job, Error> {
        let suite = Suite::parse(args)?;
        Ok(Box::new(move || {
            run(&suite);
            Ok(())
        }))
    };
    let job: Job = match name.as_str() {
        "table1" => suite_job(&mut args, cmd::table1::run)?,
        "table2" => suite_job(&mut args, cmd::table2::run)?,
        "fig2" => suite_job(&mut args, cmd::fig2::run)?,
        "fig3" => suite_job(&mut args, cmd::fig3::run)?,
        "fig4" => suite_job(&mut args, cmd::fig4::run)?,
        "fig5" => suite_job(&mut args, cmd::fig5::run)?,
        "ablations" => suite_job(&mut args, cmd::ablations::run)?,
        "ext_scheduler" => Box::new(cmd::ext_scheduler::run),
        "faults" => Box::new(cmd::faults::run),
        "lint" => cmd::lint::parse(&mut args)?,
        "fix" => cmd::fix::parse(&mut args)?,
        "analyze" => cmd::analyze::parse(&mut args)?,
        "report" => cmd::report::parse(&mut args)?,
        "trace" => cmd::trace::parse(&mut args)?,
        "verify" => cmd::verify::parse(&mut args)?,
        "serve" => cmd::serve::parse(&mut args)?,
        "obs" => cmd::obs::parse(&mut args)?,
        "retry" => cmd::retry::parse(&mut args)?,
        "check" => golden::parse_check(&mut args)?,
        _ => return Err(Error::Usage(format!("unknown subcommand `{name}`"))),
    };
    args.finish()?;
    Ok(job)
}

/// Paper-reference sizes (before scaling).
pub mod paper {
    /// Global version locks (Section 4.2): 1M.
    pub const LOCKS: u64 = 1 << 20;
    /// RA shared array: 8M elements.
    pub const RA_SHARED: u64 = 8 << 20;
    /// LB shared grid: 1.75M cells.
    pub const LB_SHARED: u64 = 1_750_000;
    /// RA/HT launch (Table 2): 256 blocks × 256 threads.
    pub const RA_THREADS: u64 = 256 * 256;
}

/// Harness-wide scaling and filtering options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suite {
    /// Divisor applied to array and lock-table sizes.
    pub data_scale: u64,
    /// Divisor applied to thread counts.
    pub thread_scale: u64,
    /// Optional workload filter (lower-case short name, e.g. `ra`).
    pub only: Option<String>,
}

impl Default for Suite {
    fn default() -> Self {
        Suite { data_scale: 64, thread_scale: 16, only: None }
    }
}

impl Suite {
    /// Takes `--data-scale N`, `--thread-scale N` and `--only NAME`.
    ///
    /// # Errors
    ///
    /// [`Error::Usage`] on a zero scale or an unknown workload name.
    pub fn parse(args: &mut Args) -> Result<Suite, Error> {
        let nonzero = |s: &str| s.parse().ok().filter(|n| *n > 0);
        let default = Suite::default();
        Ok(Suite {
            data_scale: args.value_with("--data-scale", nonzero)?.unwrap_or(default.data_scale),
            thread_scale: args
                .value_with("--thread-scale", nonzero)?
                .unwrap_or(default.thread_scale),
            only: args.value_with("--only", |s| {
                runner::Workload::parse(s).map(|w| w.short().to_string())
            })?,
        })
    }

    /// Whether workload `name` is selected.
    pub fn selected(&self, name: &str) -> bool {
        self.only.as_deref().is_none_or(|o| o == name)
    }

    pub(crate) fn scaled_pow2(&self, paper_value: u64) -> u32 {
        ((paper_value / self.data_scale).max(1024) as u32).next_power_of_two()
    }

    /// Scaled number of global version locks.
    pub fn n_locks(&self) -> u32 {
        self.scaled_pow2(paper::LOCKS)
    }

    fn threads(&self, paper_threads: u64) -> u64 {
        (paper_threads / self.thread_scale).max(64)
    }

    /// RA parameters and launch geometry.
    pub fn ra(&self) -> (RaParams, LaunchConfig) {
        let params =
            RaParams { shared_words: self.scaled_pow2(paper::RA_SHARED), ..RaParams::default() };
        (params, square_grid(self.threads(paper::RA_THREADS)))
    }

    /// HT parameters and launch geometry.
    pub fn ht(&self) -> (HtParams, LaunchConfig) {
        let grid = square_grid(self.threads(paper::RA_THREADS));
        let inserts = grid.total_threads() * 4;
        let params = HtParams {
            table_words: (inserts as u32 * 8).next_power_of_two(),
            inserts_per_tx: 4,
            txs_per_thread: 1,
            ..HtParams::default()
        };
        (params, grid)
    }

    /// EigenBench parameters and launch geometry (Figure 4 defaults).
    pub fn eb(&self) -> (EbParams, LaunchConfig) {
        let params = EbParams { hot_words: self.scaled_pow2(1 << 20), ..EbParams::default() };
        (params, square_grid(self.threads(16 * 1024)))
    }

    /// Genome parameters and the two kernels' launch geometries.
    pub fn gn(&self) -> (GnParams, LaunchConfig, LaunchConfig) {
        let n_segments = self.threads(paper::RA_THREADS) as u32;
        let params = GnParams {
            n_segments,
            value_space: n_segments / 2,
            table_words: (n_segments * 8).next_power_of_two(),
            ..GnParams::default()
        };
        // GN-2 runs over the unique set (roughly value_space × (1-1/e));
        // launch enough threads for the worst case.
        (params, square_grid(n_segments as u64), square_grid((n_segments / 2) as u64))
    }

    /// Labyrinth parameters and launch geometry (paper: one transactional
    /// thread per block on 14 blocks; scaled to a small router pool).
    ///
    /// Path density is kept sparse (a few percent of cells claimed), as in
    /// the paper's 1.75M-cell maze — a dense maze would measure conflict
    /// thrashing instead of claim parallelism.
    pub fn lb(&self) -> (LbParams, LaunchConfig) {
        let side = (((paper::LB_SHARED / self.data_scale) as f64).sqrt() as u32).max(128);
        let cells = side * side;
        // Bounded route spans (mean length ~ span) at ~10% cell occupancy
        // give the "modest conflicts" the paper's LB exhibits.
        let span = (side / 8).max(8);
        let params = LbParams {
            width: side,
            height: side,
            max_span: span,
            n_paths: (cells / (10 * span)).max(24),
            ..LbParams::default()
        };
        (params, LaunchConfig::new(14, 32))
    }

    /// K-means parameters and launch geometry (Table 2: 64 blocks × 2
    /// threads — conflicts cap useful concurrency).
    pub fn km(&self) -> (KmParams, LaunchConfig) {
        let params = KmParams { points_per_thread: 8, ..KmParams::default() };
        (params, LaunchConfig::new(64, 2))
    }

    /// A [`RunConfig`] with enough device memory for `data_words` plus the
    /// lock table and per-thread arrays.
    pub fn run_config(&self, data_words: u64, threads: u64) -> RunConfig {
        let mem = data_words + self.n_locks() as u64 + threads * 64 + (1 << 16);
        RunConfig::with_memory(mem as usize).with_locks(self.n_locks())
    }
}

/// Picks a roughly square `blocks × threads_per_block` decomposition of
/// `threads` with at most 256 threads per block (Table 2's shape).
pub fn square_grid(threads: u64) -> LaunchConfig {
    let threads = threads.max(32);
    let tpb = (threads as f64).sqrt() as u64;
    let tpb = tpb.clamp(32, 256).next_power_of_two().min(256) as u32;
    let blocks = threads.div_ceil(tpb as u64) as u32;
    LaunchConfig::new(blocks.max(1), tpb)
}

/// Formats `value` with thousands separators.
pub fn thousands(value: u64) -> String {
    let s = value.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Prints an aligned text table: `headers`, then `rows`.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        line.trim_end().to_string()
    };
    println!("{}", fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>()));
    println!("{}", widths.iter().map(|w| "-".repeat(*w + 2)).collect::<String>());
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Speedup of `cycles` relative to the baseline, as the paper reports.
pub fn speedup(baseline_cycles: u64, cycles: u64) -> f64 {
    if cycles == 0 {
        0.0
    } else {
        baseline_cycles as f64 / cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_grid_shapes() {
        let g = square_grid(65536);
        assert_eq!(g.total_threads(), 65536);
        assert_eq!(g.threads_per_block, 256);
        let small = square_grid(64);
        assert!(small.total_threads() >= 64);
        assert!(small.threads_per_block >= 32);
    }

    #[test]
    fn scaling_preserves_ratio() {
        let s = Suite::default();
        let (ra, _) = s.ra();
        // Paper ratio RA_SHARED : LOCKS = 8 : 1 must survive scaling.
        assert_eq!(ra.shared_words / s.n_locks(), 8);
    }

    #[test]
    fn thousands_formatting() {
        assert_eq!(thousands(1), "1");
        assert_eq!(thousands(1234), "1,234");
        assert_eq!(thousands(1234567), "1,234,567");
    }

    #[test]
    fn args_default() {
        let s = Suite::default();
        assert!(s.selected("ra"));
        assert_eq!(s.data_scale, 64);
    }

    #[test]
    fn speedup_math() {
        assert_eq!(speedup(100, 50), 2.0);
        assert_eq!(speedup(100, 0), 0.0);
    }
}
