//! The STM variants of the paper's evaluation (Section 4.2), one runtime
//! type per design; each [`Variant`](crate::Variant) maps to one of them.
//!
//! | Variant | Type | Summary |
//! |---|---|---|
//! | STM-VBV | [`NorecStm`] | NOrec-like, single global sequence lock |
//! | STM-TBV-Sorting | [`LockStm::tbv_sorting`] | timestamps + lock-sorting |
//! | STM-HV-Sorting | [`LockStm::hv_sorting`] | hierarchical validation + lock-sorting |
//! | STM-HV-Backoff | [`LockStm::hv_backoff`] | hierarchical validation + GPU backoff |
//! | STM-TBV-Backoff | [`LockStm::tbv_backoff`] | timestamps + GPU backoff (ablation only) |
//! | STM-Optimized | [`LockStm::optimized`] | HV or TBV chosen from the shared-data size |
//! | STM-EGPGV | [`EgpgvStm`] | per-thread-block blocking STM (prior art) |
//! | CGL | [`CglStm`] | coarse-grained lock baseline |

mod cgl;
mod egpgv;
mod lockstm;
mod norec;

pub use cgl::CglStm;
pub use egpgv::EgpgvStm;
pub use lockstm::{LockStm, Mutation};
pub use norec::NorecStm;
