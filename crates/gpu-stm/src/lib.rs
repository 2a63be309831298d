//! # gpu-stm — Software Transactional Memory for GPU Architectures
//!
//! A from-scratch reproduction of Xu, Wang, Goswami, Li, Gao and Qian,
//! *Software Transactional Memory for GPU Architectures* (CGO 2014),
//! running on the deterministic SIMT simulator of the [`gpu_sim`] crate.
//!
//! GPU-STM is a word- and lock-based STM supporting **per-thread
//! transactions** at GPU scale. Its three ideas (Section 3.1):
//!
//! 1. **Hierarchical validation** — timestamp-based validation against a
//!    table of global version locks, falling back to value-based
//!    validation only when the timestamp is stale, eliminating both the
//!    false conflicts of pure TBV and the standing overhead of pure VBV.
//! 2. **Encounter-time lock-sorting** — every transaction keeps its
//!    commit locks sorted (in an order-preserving hash table) as it
//!    encounters them, so all transactions acquire locks in one global
//!    order and SIMT lockstep execution cannot livelock.
//! 3. **Coalesced read-/write-set organisation** — warp-merged logs whose
//!    entry *i* belongs to lane *i mod 32*, keeping transactional
//!    bookkeeping memory-coalesced.
//!
//! ## Quick start
//!
//! ```
//! use gpu_sim::{LaunchConfig, Sim, SimConfig};
//! use gpu_stm::{lane_addrs, lane_vals, LockStm, Stm, StmConfig, StmShared};
//!
//! # fn main() -> Result<(), gpu_sim::SimError> {
//! let mut sim = Sim::new(SimConfig::with_memory(1 << 18));
//! let cfg = StmConfig::new(1 << 10);
//! let shared = StmShared::init(&mut sim, &cfg)?;      // STM_STARTUP()
//! let counters = sim.alloc(256)?;
//! let stm = std::rc::Rc::new(LockStm::hv_sorting(shared, cfg));
//!
//! let kernel_stm = std::rc::Rc::clone(&stm);
//! sim.launch(LaunchConfig::new(2, 64), move |ctx| {
//!     let stm = std::rc::Rc::clone(&kernel_stm);
//!     async move {
//!         let mut w = stm.new_warp();                  // STM_NEW_WARP()
//!         let mut pending = ctx.id().launch_mask;
//!         while pending.any() {
//!             let active = stm.begin(&mut w, &ctx, pending).await;
//!             // every thread increments a (shared) counter transactionally
//!             let addrs = lane_addrs(active, |l| {
//!                 counters.offset(ctx.id().thread_id(l) % 256)
//!             });
//!             let vals = stm.read(&mut w, &ctx, active, &addrs).await;
//!             let upd = lane_vals(active, |l| vals[l] + 1);
//!             stm.write(&mut w, &ctx, active, &addrs, &upd).await;
//!             let committed = stm.commit(&mut w, &ctx, active).await;
//!             pending &= !committed;
//!         }
//!     }
//! })?;
//! let total: u32 = sim.read_slice(counters, 256).iter().sum();
//! assert_eq!(total, 128);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod api;
mod config;
pub mod history;
mod ledger;
pub mod locklog;
pub mod park;
mod pipeline;
pub mod profile;
pub mod robust;
pub mod scheduler;
pub mod sets;
mod shared;
pub mod stats;
pub mod trace;
pub mod validation;
mod variant;
pub mod variants;
mod version_lock;
mod warptx;

pub use api::{lane_addrs, lane_vals, Stm};
pub use config::{Locking, StmConfig, Validation};
pub use history::{
    recorder, recorder_with_hook, Access, CommitHook, CommittedTx, History, Recorder,
};
pub use park::{BlockingMutation, TxOutcome, Wake, WakerRegistry};
pub use pipeline::{Pipeline, Policies};
pub use profile::ContentionProfile;
pub use robust::RobustConfig;
pub use scheduler::{SchedulerCheckpoint, SchedulerConfig};
pub use shared::StmShared;
pub use stats::{
    phase_label, AbortCause, Breakdown, Phase, StatsHandle, TxStats, ABORT_CAUSES, PHASES,
};
pub use trace::{chrome_trace, tx_trace_sink, TxEvent, TxEventKind, TxTraceBuffer, TxTraceSink};
pub use variant::Variant;
pub use variants::{CglStm, EgpgvStm, LockStm, Mutation, NorecStm};
pub use version_lock::VersionLock;
pub use warptx::WarpTx;
