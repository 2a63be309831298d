//! The concurrency-control schemes of the paper's evaluation
//! (Section 4.2), named once.
//!
//! Every layer that picks a scheme by name — the workloads, the serving
//! engine, the model checker and `txl`'s cost model — uses this enum, and
//! every runtime reports [`Variant::label`] as its
//! [`Stm::name`](crate::Stm::name).

/// One of the evaluated concurrency-control schemes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Coarse-grained lock baseline (speedup denominator).
    Cgl,
    /// Cederman et al.'s per-thread-block blocking STM.
    Egpgv,
    /// NOrec-like single-sequence-lock STM (STM-VBV).
    Vbv,
    /// Timestamp validation + lock-sorting (STM-TBV-Sorting).
    TbvSorting,
    /// Hierarchical validation + lock-sorting (STM-HV-Sorting).
    HvSorting,
    /// Hierarchical validation + backoff locking (STM-HV-Backoff).
    HvBackoff,
    /// Timestamp validation + backoff locking (ablation only).
    TbvBackoff,
    /// Adaptive HV/TBV selection + lock-sorting (STM-Optimized).
    Optimized,
}

impl Variant {
    /// The STM variants of the paper's Figure 2, in its legend order.
    pub const FIGURE2: [Variant; 6] = [
        Variant::Egpgv,
        Variant::Vbv,
        Variant::TbvSorting,
        Variant::HvBackoff,
        Variant::HvSorting,
        Variant::Optimized,
    ];

    /// Every variant including the baseline and ablation extras.
    pub const ALL: [Variant; 8] = [
        Variant::Cgl,
        Variant::Egpgv,
        Variant::Vbv,
        Variant::TbvSorting,
        Variant::HvSorting,
        Variant::HvBackoff,
        Variant::TbvBackoff,
        Variant::Optimized,
    ];

    /// Paper display name.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Cgl => "CGL",
            Variant::Egpgv => "STM-EGPGV",
            Variant::Vbv => "STM-VBV",
            Variant::TbvSorting => "STM-TBV-Sorting",
            Variant::HvSorting => "STM-HV-Sorting",
            Variant::HvBackoff => "STM-HV-Backoff",
            Variant::TbvBackoff => "STM-TBV-Backoff",
            Variant::Optimized => "STM-Optimized",
        }
    }

    /// Short machine-friendly name (CLI arguments, report keys).
    pub fn short_name(self) -> &'static str {
        match self {
            Variant::Cgl => "cgl",
            Variant::Egpgv => "egpgv",
            Variant::Vbv => "vbv",
            Variant::TbvSorting => "tbv-sorting",
            Variant::HvSorting => "hv-sorting",
            Variant::HvBackoff => "hv-backoff",
            Variant::TbvBackoff => "tbv-backoff",
            Variant::Optimized => "optimized",
        }
    }

    /// Parses a variant from its short name or paper label
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<Variant> {
        let lower = s.to_ascii_lowercase();
        Variant::ALL
            .into_iter()
            .find(|v| v.short_name() == lower || v.label().to_ascii_lowercase() == lower)
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CglStm, EgpgvStm, LockStm, NorecStm, Stm, StmConfig, StmShared};
    use gpu_sim::{Sim, SimConfig};

    #[test]
    fn labels_are_unique() {
        let set: std::collections::HashSet<_> = Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(set.len(), Variant::ALL.len());
    }

    #[test]
    fn figure2_excludes_baseline() {
        assert!(!Variant::FIGURE2.contains(&Variant::Cgl));
        assert_eq!(Variant::FIGURE2.len(), 6);
    }

    #[test]
    fn parse_round_trips_short_names_and_labels() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.short_name()), Some(v));
            assert_eq!(Variant::parse(v.label()), Some(v));
            assert_eq!(Variant::parse(&v.label().to_uppercase()), Some(v));
        }
        assert_eq!(Variant::parse("no-such-stm"), None);
    }

    /// The label is the only copy of each runtime's name.
    #[test]
    fn every_runtime_is_named_by_its_label() {
        for v in Variant::ALL {
            let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
            let cfg = StmConfig::new(1 << 8);
            let shared = StmShared::init(&mut sim, &cfg).unwrap();
            let name = match v {
                Variant::Cgl => CglStm::init(&mut sim).unwrap().name(),
                Variant::Egpgv => EgpgvStm::init(&mut sim, shared, cfg).unwrap().name(),
                Variant::Vbv => NorecStm::new(shared, cfg).name(),
                Variant::Optimized => LockStm::optimized(shared, cfg, 0).name(),
                lock => LockStm::for_variant(lock, shared, cfg).unwrap().name(),
            };
            assert_eq!(name, v.label());
        }
    }
}
