//! Transaction-lifecycle event tracing and the Chrome-trace exporter.
//!
//! The STM side of the telemetry layer (DESIGN.md §10). Every variant
//! emits cycle-timestamped [`TxEvent`]s — begin / read / write / validate
//! / lock / conflict / abort-with-[`AbortCause`] / commit — and the
//! policies of a [`Pipeline`](crate::Pipeline) add escalation, backoff,
//! concurrency-throttle and park/wake events. A sink is attached once,
//! to the base runtime (`with_observers`); a pipeline's policies emit to
//! the same sink. Emission follows the simulator's tracing contract
//! ([`gpu_sim::trace`]): pure observation, zero cycles charged, no-op
//! when no sink is attached.
//!
//! Two stream invariants are maintained (and pinned by the workspace's
//! `trace_invariants` test):
//!
//! - **Well-nesting per warp**: every `Begin` with a non-empty admitted
//!   mask is followed by exactly one `Commit` (the attempt-resolution
//!   event) before the warp's next `Begin`; instantaneous events (reads,
//!   validation, aborts, conflicts) appear between them.
//! - **Reconciliation**: summed over the stream, `Commit.committed`
//!   equals [`TxStats::commits`] and `Abort.lanes` equals
//!   [`TxStats::aborts`] exactly, by construction: a runtime reports
//!   each commit and abort to its stats, history and trace in one call.
//!
//! One caveat on abort *causes*: STM-VBV (NOrec) first records a
//! commit-time value-validation failure as `ReadValidation` and then
//! reclassifies it in the stats; events carry the initial cause, so
//! per-cause event counts can differ from the stats' per-cause split for
//! that variant (totals always reconcile).
//!
//! [`chrome_trace`] merges a simulator event stream with a transaction
//! event stream into Chrome's JSON trace-event format (one process per
//! block, one thread track per warp, transaction attempts as nested
//! slices), which <https://ui.perfetto.dev> loads directly.

use crate::stats::AbortCause;
use gpu_sim::json::JsonWriter;
use gpu_sim::trace::{SimEvent, SimEventKind};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::rc::Rc;

/// What happened (the payload of a [`TxEvent`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TxEventKind {
    /// A transaction attempt started on `lanes` lanes (only emitted when
    /// the admitted mask is non-empty).
    Begin {
        /// Admitted lanes.
        lanes: u32,
    },
    /// A transactional read instruction.
    Read {
        /// Active lanes.
        lanes: u32,
    },
    /// A transactional write instruction.
    Write {
        /// Active lanes.
        lanes: u32,
    },
    /// A consistency-validation step (read-time or commit-time).
    Validate {
        /// Lanes whose read-sets were checked.
        checked: u32,
        /// Lanes that failed and must abort.
        failed: u32,
    },
    /// A commit-lock acquisition round.
    Lock {
        /// Lanes that tried to acquire.
        lanes: u32,
        /// Lanes that found a lock busy and backed out.
        busy: u32,
    },
    /// One lane observed one busy/contended lock stripe (the contention
    /// profiler's unit of conflict).
    Conflict {
        /// Index of the contended stripe in the lock table.
        stripe: u32,
    },
    /// `lanes` lane-transactions aborted for `cause`.
    Abort {
        /// Why the attempt(s) aborted.
        cause: AbortCause,
        /// Number of aborting lanes.
        lanes: u32,
    },
    /// The attempt-resolution event closing a `Begin`: emitted exactly
    /// once per `commit` call.
    Commit {
        /// Lanes that committed in this call.
        committed: u32,
        /// Lanes of the attempt that resolved as aborted.
        aborted: u32,
    },
    /// A starving lane escalated to the serialized fallback-lock path.
    Escalate {
        /// Global thread id of the escalating lane.
        tid: u32,
    },
    /// The escalation policy charged an abort-backoff delay.
    Backoff {
        /// Length of the backoff span in cycles.
        cycles: u64,
    },
    /// The admission policy changed its AIMD concurrency limit.
    Throttle {
        /// The new limit (warps allowed to run transactions).
        limit: u32,
    },
    /// `lanes` retrying lane-transactions registered on `watched` read-set
    /// addresses and parked the warp (the blocking `retry()` path).
    Park {
        /// Lanes whose transactions parked.
        lanes: u32,
        /// Distinct read-set addresses registered in the waker registry.
        watched: u32,
    },
    /// A parked warp resumed because a commit's write set intersected its
    /// registration (or its park budget expired).
    Wake {
        /// Whether the wake was a budget timeout rather than a commit.
        timed_out: bool,
    },
    /// A fault-injected wake fired with no intersecting commit: the warp
    /// must revalidate and re-park (tests waker-loop robustness).
    SpuriousWake,
}

/// One cycle-timestamped transaction-lifecycle event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TxEvent {
    /// Simulated cycle of emission.
    pub cycle: u64,
    /// Block index of the emitting warp.
    pub block: u32,
    /// Warp index within its block.
    pub warp: u32,
    /// Event payload.
    pub kind: TxEventKind,
}

/// Bounded ring buffer of [`TxEvent`]s (same semantics as
/// [`gpu_sim::trace::TraceBuffer`]).
#[derive(Debug)]
pub struct TxTraceBuffer {
    events: VecDeque<TxEvent>,
    capacity: usize,
    emitted: u64,
    dropped: u64,
}

impl TxTraceBuffer {
    /// Creates a buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TxTraceBuffer {
            events: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            emitted: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: TxEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
        self.emitted += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TxEvent> {
        self.events.iter()
    }

    /// Copies the retained events out, oldest first.
    pub fn snapshot(&self) -> Vec<TxEvent> {
        self.events.iter().copied().collect()
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever pushed (including later-dropped ones).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards all retained events (counters keep accumulating).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Moves the retained events out, oldest first, leaving the buffer
    /// empty (counters keep accumulating). The epoch-windowed tap used
    /// by live observability: drain once per window and ship the slice.
    pub fn drain(&mut self) -> Vec<TxEvent> {
        self.events.drain(..).collect()
    }
}

/// Shared handle to a [`TxTraceBuffer`].
pub type TxTraceSink = Rc<RefCell<TxTraceBuffer>>;

/// Creates a [`TxTraceSink`] with the given ring capacity.
pub fn tx_trace_sink(capacity: usize) -> TxTraceSink {
    Rc::new(RefCell::new(TxTraceBuffer::new(capacity)))
}

fn write_event_head(
    w: &mut JsonWriter,
    name: &str,
    ph: &str,
    cycle: u64,
    block: u32,
    warp: u32,
    cat: &str,
) {
    w.begin_object();
    w.field_str("name", name);
    w.field_str("cat", cat);
    w.field_str("ph", ph);
    w.field_u64("ts", cycle);
    w.field_u64("pid", block as u64);
    w.field_u64("tid", warp as u64);
}

fn write_sim_event(w: &mut JsonWriter, e: &SimEvent) {
    match e.kind {
        SimEventKind::WarpStart => {
            write_event_head(w, "warp", "B", e.cycle, e.block, e.warp, "sim");
            w.end_object();
        }
        SimEventKind::WarpRetire => {
            write_event_head(w, "warp", "E", e.cycle, e.block, e.warp, "sim");
            w.end_object();
        }
        SimEventKind::Mem { op, lanes, transactions, l2_hits, l2_misses } => {
            write_event_head(w, op.label(), "i", e.cycle, e.block, e.warp, "mem");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("lanes", lanes as u64);
            w.field_u64("transactions", transactions as u64);
            w.field_u64("l2_hits", l2_hits as u64);
            w.field_u64("l2_misses", l2_misses as u64);
            w.end_object();
            w.end_object();
        }
        SimEventKind::Fence => {
            write_event_head(w, "fence", "i", e.cycle, e.block, e.warp, "mem");
            w.field_str("s", "t");
            w.end_object();
        }
        SimEventKind::Idle { cycles } => {
            write_event_head(w, "idle", "X", e.cycle, e.block, e.warp, "sim");
            w.field_u64("dur", cycles);
            w.end_object();
        }
        SimEventKind::Park { watched } => {
            write_event_head(w, "park", "i", e.cycle, e.block, e.warp, "sim");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("watched", watched as u64);
            w.end_object();
            w.end_object();
        }
        SimEventKind::Wake { timed_out } => {
            write_event_head(w, "wake", "i", e.cycle, e.block, e.warp, "sim");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("timed_out", timed_out as u64);
            w.end_object();
            w.end_object();
        }
    }
}

fn write_tx_event(w: &mut JsonWriter, e: &TxEvent) {
    match e.kind {
        TxEventKind::Begin { lanes } => {
            write_event_head(w, "tx", "B", e.cycle, e.block, e.warp, "stm");
            w.key("args");
            w.begin_object();
            w.field_u64("lanes", lanes as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Commit { committed, aborted } => {
            write_event_head(w, "tx", "E", e.cycle, e.block, e.warp, "stm");
            w.key("args");
            w.begin_object();
            w.field_u64("committed", committed as u64);
            w.field_u64("aborted", aborted as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Read { lanes } => {
            write_event_head(w, "tx-read", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("lanes", lanes as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Write { lanes } => {
            write_event_head(w, "tx-write", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("lanes", lanes as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Validate { checked, failed } => {
            write_event_head(w, "validate", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("checked", checked as u64);
            w.field_u64("failed", failed as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Lock { lanes, busy } => {
            write_event_head(w, "lock", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("lanes", lanes as u64);
            w.field_u64("busy", busy as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Conflict { stripe } => {
            write_event_head(w, "conflict", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("stripe", stripe as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Abort { cause, lanes } => {
            let name = format!("abort:{}", cause.label());
            write_event_head(w, &name, "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("lanes", lanes as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Escalate { tid } => {
            write_event_head(w, "escalate", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("tid", tid as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Backoff { cycles } => {
            write_event_head(w, "backoff", "X", e.cycle, e.block, e.warp, "stm");
            w.field_u64("dur", cycles);
            w.end_object();
        }
        TxEventKind::Throttle { limit } => {
            write_event_head(w, "throttle", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("limit", limit as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Park { lanes, watched } => {
            write_event_head(w, "tx-park", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("lanes", lanes as u64);
            w.field_u64("watched", watched as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::Wake { timed_out } => {
            write_event_head(w, "tx-wake", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.key("args");
            w.begin_object();
            w.field_u64("timed_out", timed_out as u64);
            w.end_object();
            w.end_object();
        }
        TxEventKind::SpuriousWake => {
            write_event_head(w, "tx-spurious-wake", "i", e.cycle, e.block, e.warp, "stm");
            w.field_str("s", "t");
            w.end_object();
        }
    }
}

/// Renders merged simulator and transaction event streams as Chrome
/// trace-event JSON (load at <https://ui.perfetto.dev> or
/// `chrome://tracing`).
///
/// Layout: one *process* per thread block, one *thread* track per warp.
/// Warp residency (`warp`) and transaction attempts (`tx`) are nested
/// B/E slices; memory operations, validation steps, lock rounds, aborts
/// and conflicts are thread-scoped instants; idle and backoff spans are
/// complete (`X`) slices with a duration. Timestamps are simulated
/// cycles (the `ts` microsecond unit is reinterpreted; only relative
/// placement matters).
///
/// Both inputs must be cycle-ordered (buffers fill in event-loop order);
/// the merge is stable with simulator events first on ties, so output is
/// byte-deterministic for a deterministic run — the golden test pins it.
pub fn chrome_trace(sim: &[SimEvent], tx: &[TxEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("traceEvents");
    w.begin_array();

    // Metadata: name the per-block processes so Perfetto groups tracks.
    let blocks: BTreeSet<u32> =
        sim.iter().map(|e| e.block).chain(tx.iter().map(|e| e.block)).collect();
    for b in blocks {
        w.begin_object();
        w.field_str("name", "process_name");
        w.field_str("ph", "M");
        w.field_u64("pid", b as u64);
        w.key("args");
        w.begin_object();
        w.field_str("name", &format!("block {b}"));
        w.end_object();
        w.end_object();
    }

    let (mut i, mut j) = (0usize, 0usize);
    while i < sim.len() || j < tx.len() {
        let take_sim = match (sim.get(i), tx.get(j)) {
            (Some(s), Some(t)) => s.cycle <= t.cycle,
            (Some(_), None) => true,
            _ => false,
        };
        if take_sim {
            write_sim_event(&mut w, &sim[i]);
            i += 1;
        } else {
            write_tx_event(&mut w, &tx[j]);
            j += 1;
        }
    }

    w.end_array();
    w.field_str("displayTimeUnit", "ns");
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(cycle: u64, kind: TxEventKind) -> TxEvent {
        TxEvent { cycle, block: 0, warp: 1, kind }
    }

    #[test]
    fn ring_buffer_bounds() {
        let mut b = TxTraceBuffer::new(2);
        for c in 0..5 {
            b.push(tx(c, TxEventKind::Begin { lanes: 32 }));
        }
        assert_eq!(b.len(), 2);
        assert_eq!(b.emitted(), 5);
        assert_eq!(b.dropped(), 3);
    }

    #[test]
    fn chrome_trace_shape() {
        let sim = vec![
            SimEvent { cycle: 0, block: 0, warp: 0, kind: SimEventKind::WarpStart },
            SimEvent { cycle: 9, block: 0, warp: 0, kind: SimEventKind::Fence },
            SimEvent { cycle: 30, block: 0, warp: 0, kind: SimEventKind::WarpRetire },
        ];
        let txe = vec![
            tx(5, TxEventKind::Begin { lanes: 32 }),
            tx(9, TxEventKind::Abort { cause: AbortCause::LockBusy, lanes: 2 }),
            tx(20, TxEventKind::Commit { committed: 30, aborted: 2 }),
        ];
        let json = chrome_trace(&sim, &txe);
        assert!(json.starts_with(r#"{"traceEvents":[{"name":"process_name""#), "{json}");
        assert!(json.contains(r#""name":"tx","cat":"stm","ph":"B","ts":5"#), "{json}");
        assert!(json.contains(r#""name":"abort:lock-busy""#), "{json}");
        assert!(json.contains(r#""committed":30,"aborted":2"#), "{json}");
        assert!(json.ends_with(r#"],"displayTimeUnit":"ns"}"#), "{json}");
        // Tie at cycle 9: the simulator fence precedes the tx abort.
        let fence = json.find(r#""name":"fence""#).unwrap();
        let abort = json.find(r#""name":"abort:lock-busy""#).unwrap();
        assert!(fence < abort);
    }

    #[test]
    fn chrome_trace_empty_inputs() {
        let json = chrome_trace(&[], &[]);
        assert_eq!(json, r#"{"traceEvents":[],"displayTimeUnit":"ns"}"#);
    }
}
