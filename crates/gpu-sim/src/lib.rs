//! # gpu-sim — a deterministic SIMT GPU simulator
//!
//! This crate is the execution substrate for the GPU-STM reproduction
//! (Xu et al., *Software Transactional Memory for GPU Architectures*,
//! CGO 2014). It models the architectural features the paper's design
//! responds to:
//!
//! - **Massive multithreading**: grids of thread blocks dispatched onto
//!   SMs with residency limits ([`GpuConfig`]).
//! - **SIMT lockstep execution**: kernels are written warp-wide; every
//!   operation takes a [`LaneMask`] and executes for all active lanes in
//!   one warp instruction. Divergence = narrowing masks ([`simt`]).
//! - **Memory-access coalescing**: the 32 lane addresses of an instruction
//!   merge into 128-byte transactions ([`coalesce`]), which the timing
//!   model charges.
//! - **Atomics and fences**: CAS/ADD/OR/… executed in a single global
//!   total order of warp instructions, as at the GPU's L2.
//!
//! Execution is single-threaded and fully deterministic: warps are futures
//! interleaved by a discrete-event scheduler at warp-instruction
//! granularity, and performance is reported in simulated cycles.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{LaunchConfig, Sim, SimConfig};
//!
//! # fn main() -> Result<(), gpu_sim::SimError> {
//! let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
//! let counter = sim.alloc(1)?;
//! sim.launch(LaunchConfig::new(4, 128), move |ctx| async move {
//!     ctx.atomic_add_uniform(ctx.id().launch_mask, counter, 1).await;
//! })?;
//! assert_eq!(sim.read(counter), 4 * 128);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
mod error;
mod exec;
pub mod fault;
pub mod json;
pub mod mask;
pub mod memory;
pub mod race;
mod ready;
pub mod rng;
pub mod schedule;
pub mod simt;
pub mod stats;
pub mod timing;
pub mod trace;
mod warp;

pub use cache::{CacheCheckpoint, CacheConfig, L2Cache};
pub use error::{SimError, WarpProgress};
pub use exec::{GpuConfig, LaunchConfig, RunReport, Sim, SimCheckpoint, SimConfig, WarpId};
pub use fault::FaultPlan;
pub use json::JsonWriter;
pub use mask::{LaneMask, WARP_SIZE};
pub use memory::{Addr, AtomicOp, GlobalMemory};
pub use race::{race_sink, AccessKind, DataRace, RaceAccess, RaceLog, RaceSink};
pub use rng::WarpRng;
pub use schedule::{PolicyHandle, RunnableWarp, SchedulePolicy, StepEffect, StepRecord};
pub use stats::SimStats;
pub use timing::TimingModel;
pub use trace::{trace_sink, MemOp, SimEvent, SimEventKind, TraceBuffer, TraceSink};
pub use warp::{LaneAddrs, LaneVals, ParkOutcome, WakeHandle, WarpCtx};
