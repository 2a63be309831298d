//! # workloads — the GPU-STM evaluation suite
//!
//! The six workloads of the paper's Section 4.1, each runnable under every
//! concurrency-control [`Variant`] (all STM flavours, the EGPGV prior-art
//! STM, and the coarse-grained-lock baseline) with built-in result
//! verification:
//!
//! | Paper name | Module | Character |
//! |---|---|---|
//! | RA (random array) | [`ra`] | uniform random reads/writes, large shared data |
//! | HT (hashtable) | [`ht`] | probing inserts, modest conflicts |
//! | EB (EigenBench) | [`eigenbench`] | reconfigurable TM characteristics |
//! | GN (genome) | [`genome`] | two kernels: dedup insert + overlap linking |
//! | LB (labyrinth) | [`labyrinth`] | long path-claim transactions |
//! | KM (k-means) | [`kmeans`] | tiny hot shared data, high conflicts |
//!
//! Beyond the paper's six, [`queue`] adds two condition-synchronisation
//! shapes (a bounded producer/consumer ring and a work-stealing deque)
//! exercising the blocking `retry()`/`or_else` subsystem of
//! [`gpu_stm::park`], with an abort-respin baseline knob.
//!
//! All workloads are deterministic given their seed, so cycle counts,
//! commit/abort statistics and final memory are reproducible bit-for-bit.

#![warn(missing_docs)]

mod common;
pub mod eigenbench;
pub mod genome;
pub mod ht;
pub mod kmeans;
pub mod labyrinth;
mod outcome;
pub mod queue;
pub mod ra;
mod variant;

pub use common::{mix64, RunConfig};
pub use gpu_stm::Variant;
pub use outcome::{RunError, RunOutcome};
pub use variant::{dispatch, AnyStm, StmRunner};
