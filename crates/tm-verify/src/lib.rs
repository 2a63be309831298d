//! # tm-verify — stateless model checking of the GPU-STM runtime
//!
//! The rest of the workspace tests the STM variants under the simulator's
//! *default* schedule (plus fault-injection shuffles). This crate asks
//! the stronger question: does a property hold under **every** relevantly
//! different warp interleaving?
//!
//! It drives the simulator through the
//! [`SchedulePolicy`](gpu_sim::SchedulePolicy) hook with a
//! forced-choice [`Schedule`], explores the schedule space with **dynamic
//! partial-order reduction** (happens-before race analysis over the
//! visible memory trace, done-set pruning, trace/state dedup) under
//! **iterative preemption bounding**, and checks every explored terminal
//! state with the `tm-check` opacity replayer, the simulator's
//! happens-before race detector, and per-workload invariants. The TXL
//! footprint analysis ([`txl::thread_footprint`]) supplies provably
//! private address regions whose accesses the explorer never branches
//! on. Litmus instances of the runtime ([`Litmus`]) and TXL witness cases
//! ([`TxlCase`]) share one front end, a [`Model`]. Violating schedules
//! shrink with a ddmin-style minimizer and serialize to `.sched` files
//! ([`sched`]) that reproduce from the file alone.
//!
//! ## Quick start
//!
//! ```
//! use tm_verify::{verify, VerifyConfig, Workload};
//! use workloads::Variant;
//!
//! let cfg = VerifyConfig {
//!     litmus: tm_verify::Litmus::new(Workload::Stripes, Variant::HvSorting, 2, 1),
//!     max_preemptions: 1,
//!     max_schedules: 200,
//!     stop_on_finding: false,
//! };
//! let report = verify(&cfg);
//! assert!(report.is_clean());
//! assert!(report.stats.schedules_run >= 1);
//! ```

#![warn(missing_docs)]

pub mod controller;
pub mod explore;
pub mod litmus;
pub mod model;
pub mod sched;
pub mod witness;

pub use controller::{
    Controller, DecisionRecord, Event, FootprintFilter, ForcedChoice, Schedule, WarpKey,
    SPIN_YIELD_STEPS,
};
pub use explore::{
    explore, ExploreConfig, ExploreReport, ExploreStats, Finding, Fnv, ModelOutcome,
    ModelViolation, ViolationKind,
};
pub use litmus::{Litmus, Workload, MAX_ACTORS, STRIPES_SRC};
pub use model::{Model, Subject};
pub use sched::{claimed_violation, minimize, mutant, parse, serialize, witness_rule, HEADER};
pub use witness::{
    footprint_order, save_witness, unsorted_locks, witness_reproduces, TxlCase, WitnessProvenance,
};

/// A complete verification request: a litmus instance plus exploration
/// limits.
#[derive(Copy, Clone, Debug)]
pub struct VerifyConfig {
    /// The workload/variant/geometry/mutation under test.
    pub litmus: Litmus,
    /// Preemption bound (CHESS-style iterative bounding).
    pub max_preemptions: u32,
    /// Hard cap on schedules run (0 = unlimited).
    pub max_schedules: u64,
    /// Return on the first finding instead of exploring everything.
    pub stop_on_finding: bool,
}

/// Explores the litmus instance's schedule space and reports findings
/// and exploration statistics: [`Model::explore`] on a fresh model.
pub fn verify(cfg: &VerifyConfig) -> ExploreReport {
    Model::new(cfg.litmus).explore(cfg.max_preemptions, cfg.max_schedules, cfg.stop_on_finding)
}
