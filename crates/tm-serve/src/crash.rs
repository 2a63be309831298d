//! Seeded crash-point injection for kill-and-restart testing.
//!
//! A [`CrashPlan`] kills exactly one shard worker at a chosen (or
//! seeded-random) point in a batch's durability lifecycle, mirroring
//! the `gpu_sim::FaultPlan` idiom: every unspecified coordinate is
//! drawn from an independent splitmix64 stream, so a plan with a given
//! seed is fully reproducible while still exploring the crash space.
//!
//! The four [`CrashPoint`]s cover the distinct failure classes of the
//! write-ahead protocol:
//!
//! - [`WalAppend`](CrashPoint::WalAppend) — mid-append of the batch
//!   record: the log gains a torn tail that recovery must truncate.
//! - [`PrePrepare`](CrashPoint::PrePrepare) — batch logged but not
//!   executed: replay must re-execute it from the log.
//! - [`PostPrepare`](CrashPoint::PostPrepare) — executed and sealed in
//!   the log, but the coordinator never saw the result: replay must
//!   *verify* re-execution against the logged seal, not duplicate it.
//! - [`PreAck`](CrashPoint::PreAck) — like post-prepare but after the
//!   snapshot cadence ran, so recovery may restore a snapshot that
//!   already contains the batch and must answer from the log alone.

use gpu_sim::rng::splitmix64;
use std::fmt;

/// Where in the batch durability lifecycle the worker dies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Mid-append of the batch's WAL record (torn tail).
    WalAppend,
    /// After the batch record is durable, before execution.
    PrePrepare,
    /// After execution and the sealing result record, before the
    /// snapshot cadence runs.
    PostPrepare,
    /// After the snapshot cadence, before acknowledging the batch to
    /// the coordinator.
    PreAck,
}

impl CrashPoint {
    /// Every crash point, in lifecycle order.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::WalAppend,
        CrashPoint::PrePrepare,
        CrashPoint::PostPrepare,
        CrashPoint::PreAck,
    ];

    /// Parses a point by name (`wal-append`, `pre-prepare`,
    /// `post-prepare`, `pre-ack`).
    pub fn parse(name: &str) -> Option<CrashPoint> {
        match name.to_ascii_lowercase().as_str() {
            "wal-append" => Some(CrashPoint::WalAppend),
            "pre-prepare" => Some(CrashPoint::PrePrepare),
            "post-prepare" => Some(CrashPoint::PostPrepare),
            "pre-ack" => Some(CrashPoint::PreAck),
            _ => None,
        }
    }

    /// Short machine-friendly name (the `parse` spelling).
    pub fn short_name(self) -> &'static str {
        match self {
            CrashPoint::WalAppend => "wal-append",
            CrashPoint::PrePrepare => "pre-prepare",
            CrashPoint::PostPrepare => "post-prepare",
            CrashPoint::PreAck => "pre-ack",
        }
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A seed-controlled plan to kill one shard worker once. Unspecified
/// coordinates (shard, point, batch) are resolved from the seed.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    /// Seed for resolving unspecified coordinates.
    pub seed: u64,
    /// Shard whose worker dies; `None` = seeded choice.
    pub shard: Option<usize>,
    /// Lifecycle point of death; `None` = seeded choice.
    pub point: Option<CrashPoint>,
    /// The worker dies while processing its batch number
    /// `after_batches + 1` (per-shard sequence); `None` = seeded
    /// choice in a small early window.
    pub after_batches: Option<u64>,
}

impl CrashPlan {
    /// Fully pinned plan: kill `shard` at `point` during its batch
    /// `after_batches + 1`.
    pub fn at(shard: usize, point: CrashPoint, after_batches: u64) -> CrashPlan {
        CrashPlan {
            seed: 0,
            shard: Some(shard),
            point: Some(point),
            after_batches: Some(after_batches),
        }
    }

    /// Fully seeded plan: every coordinate drawn from `seed`.
    pub fn seeded(seed: u64) -> CrashPlan {
        CrashPlan { seed, shard: None, point: None, after_batches: None }
    }

    /// Resolves the plan against a service of `shards` shards. Each
    /// coordinate uses an independent stream (seed XOR a distinct
    /// square-root constant), so pinning one never shifts another's
    /// draw.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or a pinned shard is out of range.
    pub fn resolve(&self, shards: usize) -> ResolvedCrash {
        assert!(shards > 0, "cannot resolve a crash against zero shards");
        let shard = match self.shard {
            Some(s) => {
                assert!(s < shards, "crash shard {s} out of range for {shards} shards");
                s
            }
            None => {
                let mut rng = self.seed ^ 0x6a09_e667_f3bc_c908; // sqrt(2) bits
                (splitmix64(&mut rng) % shards as u64) as usize
            }
        };
        let point = self.point.unwrap_or_else(|| {
            let mut rng = self.seed ^ 0xbb67_ae85_84ca_a73b; // sqrt(3) bits
            CrashPoint::ALL[(splitmix64(&mut rng) % 4) as usize]
        });
        let seq = match self.after_batches {
            Some(n) => n + 1,
            None => {
                let mut rng = self.seed ^ 0x3c6e_f372_fe94_f82b; // sqrt(5) bits
                1 + splitmix64(&mut rng) % 4
            }
        };
        ResolvedCrash { shard, seq, point }
    }
}

/// A concrete crash: shard `shard` dies at `point` while processing its
/// `seq`-th batch (per-shard sequence numbers start at 1).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ResolvedCrash {
    /// Shard whose worker dies.
    pub shard: usize,
    /// Per-shard batch sequence number during which it dies.
    pub seq: u64,
    /// Lifecycle point of death.
    pub point: CrashPoint,
}

impl ResolvedCrash {
    /// Whether this crash fires for `shard` processing batch `seq` at
    /// `point`.
    pub(crate) fn fires(&self, shard: usize, seq: u64, point: CrashPoint) -> bool {
        self.shard == shard && self.seq == seq && self.point == point
    }
}

/// A seeded single-commit loss for replica-divergence testing: replica
/// `replica` of shard `shard` silently drops its `at_commit`-th applied
/// commit (writes and log-hash fold both lost), so the quorum vote must
/// demote it at the next epoch boundary.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ReplicaFault {
    /// Shard whose replica group is targeted.
    pub shard: usize,
    /// Replica index within the group.
    pub replica: usize,
    /// 1-based index of the applied commit to corrupt.
    pub at_commit: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_parse_round_trips() {
        for p in CrashPoint::ALL {
            assert_eq!(CrashPoint::parse(p.short_name()), Some(p));
        }
        assert_eq!(CrashPoint::parse("mid-lunch"), None);
    }

    #[test]
    fn resolve_is_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = CrashPlan::seeded(seed).resolve(4);
            let b = CrashPlan::seeded(seed).resolve(4);
            assert_eq!(a, b);
            assert!(a.shard < 4);
            assert!((1..=4).contains(&a.seq));
        }
    }

    #[test]
    fn seeded_resolution_covers_the_space() {
        let mut shards = [false; 4];
        let mut points = [false; 4];
        for seed in 0..256u64 {
            let r = CrashPlan::seeded(seed).resolve(4);
            shards[r.shard] = true;
            points[CrashPoint::ALL.iter().position(|p| *p == r.point).unwrap()] = true;
        }
        assert!(shards.iter().all(|&s| s), "all shards reachable");
        assert!(points.iter().all(|&p| p), "all points reachable");
    }

    #[test]
    fn pinned_coordinates_are_honoured_independently() {
        let r = CrashPlan::at(2, CrashPoint::PreAck, 5).resolve(3);
        assert_eq!(r, ResolvedCrash { shard: 2, seq: 6, point: CrashPoint::PreAck });
        // Pinning only the point must not disturb the seeded shard draw.
        let seeded = CrashPlan::seeded(7).resolve(4);
        let pinned =
            CrashPlan { point: Some(CrashPoint::WalAppend), ..CrashPlan::seeded(7) }.resolve(4);
        assert_eq!(pinned.shard, seeded.shard);
        assert_eq!(pinned.seq, seeded.seq);
        assert_eq!(pinned.point, CrashPoint::WalAppend);
    }

    #[test]
    fn fires_matches_exact_coordinates_only() {
        let r = CrashPlan::at(1, CrashPoint::PrePrepare, 0).resolve(2);
        assert!(r.fires(1, 1, CrashPoint::PrePrepare));
        assert!(!r.fires(0, 1, CrashPoint::PrePrepare));
        assert!(!r.fires(1, 2, CrashPoint::PrePrepare));
        assert!(!r.fires(1, 1, CrashPoint::PostPrepare));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pinned_shard_panics() {
        let _ = CrashPlan::at(5, CrashPoint::PreAck, 0).resolve(2);
    }
}
