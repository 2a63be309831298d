//! The simulator's timing model.
//!
//! Latencies are in shader-core cycles, calibrated to published Fermi-class
//! figures (global memory ~400–800 cycles, L2 hit ~120–200, ALU pipeline a
//! few cycles). The evaluation compares *ratios* of simulated cycle counts
//! (speedup over CGL), so the model needs the right order relationships —
//! memory ≫ L2 ≫ local ≫ ALU, extra coalesced transactions serialise —
//! rather than exact magnitudes.

use crate::json::JsonWriter;

/// Cycle costs charged per warp instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TimingModel {
    /// Pipeline latency of an arithmetic warp instruction.
    pub alu: u64,
    /// Latency of a global access whose line hits in L2.
    pub l2_hit: u64,
    /// Latency of a global access that goes to DRAM.
    pub dram: u64,
    /// Additional issue cycles for each coalesced transaction past the
    /// first (address-divergence serialisation in the load/store unit).
    pub extra_transaction: u64,
    /// Base latency of an atomic operation (executed at the L2).
    pub atomic: u64,
    /// Extra serialisation per additional lane hitting the *same word*
    /// in one atomic warp instruction.
    pub atomic_same_word: u64,
    /// Cost of `threadfence()`.
    pub fence: u64,
    /// Cost of one warp access to thread-local metadata (L1-cached
    /// read-/write-set storage: the paper keeps local metadata cacheable
    /// at L1 and L2).
    pub local_access: u64,
}

impl TimingModel {
    /// Fermi C2070-like defaults.
    pub fn fermi() -> Self {
        TimingModel {
            alu: 4,
            l2_hit: 130,
            dram: 440,
            extra_transaction: 20,
            atomic: 160,
            atomic_same_word: 40,
            fence: 60,
            local_access: 28,
        }
    }

    /// A uniform unit-cost model: every instruction costs 1 cycle.
    /// Useful in tests where only the interleaving matters.
    pub fn unit() -> Self {
        TimingModel {
            alu: 1,
            l2_hit: 1,
            dram: 1,
            extra_transaction: 0,
            atomic: 1,
            atomic_same_word: 0,
            fence: 1,
            local_access: 1,
        }
    }

    /// Latency of a memory instruction that issued `transactions`
    /// transactions, `any_miss` telling whether one of them missed in L2.
    ///
    /// The slowest transaction dominates the latency; each extra
    /// transaction adds issue serialisation on top.
    pub fn memory_cost(&self, transactions: u32, any_miss: bool) -> u64 {
        if transactions == 0 {
            return self.alu;
        }
        let worst = if any_miss { self.dram } else { self.l2_hit };
        worst + (transactions as u64 - 1) * self.extra_transaction
    }

    /// Latency of an atomic warp instruction: `transactions` distinct
    /// lines, `depth` = max lanes contending on one word.
    pub fn atomic_cost(&self, transactions: u32, depth: u32) -> u64 {
        if transactions == 0 {
            return self.alu;
        }
        self.atomic
            + (transactions as u64 - 1) * self.extra_transaction
            + depth.saturating_sub(1) as u64 * self.atomic_same_word
    }

    /// Serializes the latency table into `w` as a JSON object (stable
    /// field order), so run reports record the model they were produced
    /// under.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("alu", self.alu);
        w.field_u64("l2_hit", self.l2_hit);
        w.field_u64("dram", self.dram);
        w.field_u64("extra_transaction", self.extra_transaction);
        w.field_u64("atomic", self.atomic);
        w.field_u64("atomic_same_word", self.atomic_same_word);
        w.field_u64("fence", self.fence);
        w.field_u64("local_access", self.local_access);
        w.end_object();
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::fermi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_cost_orders_hit_below_miss() {
        let t = TimingModel::fermi();
        assert!(t.memory_cost(1, false) < t.memory_cost(1, true));
    }

    #[test]
    fn one_miss_dominates() {
        let t = TimingModel::fermi();
        assert_eq!(t.memory_cost(2, true), t.dram + t.extra_transaction);
    }

    #[test]
    fn empty_access_costs_alu() {
        let t = TimingModel::fermi();
        assert_eq!(t.memory_cost(0, false), t.alu);
        assert_eq!(t.atomic_cost(0, 0), t.alu);
    }

    #[test]
    fn uncoalesced_costs_more() {
        let t = TimingModel::fermi();
        let one = t.memory_cost(1, false);
        let many = t.memory_cost(32, false);
        assert_eq!(many - one, 31 * t.extra_transaction);
    }

    #[test]
    fn atomic_contention_serialises() {
        let t = TimingModel::fermi();
        let free = t.atomic_cost(1, 1);
        let contended = t.atomic_cost(1, 32);
        assert_eq!(contended - free, 31 * t.atomic_same_word);
    }

    #[test]
    fn unit_model_is_unit() {
        let t = TimingModel::unit();
        assert_eq!(t.memory_cost(4, true), 1);
        assert_eq!(t.atomic_cost(4, 8), 1);
    }
}
