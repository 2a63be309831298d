//! One ledger per runtime: the run statistics, the optional history
//! recorder and the optional trace sink, updated together.
//!
//! Every runtime owns one [`Ledger`] and reports each commit and abort
//! through it in one call, so [`TxStats`](crate::TxStats), the recorded
//! [`History`](crate::History) and the [`TxEvent`](crate::TxEvent) stream
//! cannot disagree on the totals (DESIGN.md §10, invariant 3). A
//! [`Pipeline`](crate::Pipeline) reports its policies through a ledger
//! on the same stats and sink as the runtime it wraps.

use crate::history::{Access, CommittedTx, Recorder};
use crate::sets::Entry;
use crate::stats::{stats_handle, AbortCause, Phase, StatsHandle};
use crate::trace::{TxEvent, TxEventKind, TxTraceSink};
use crate::warptx::WarpTx;
use gpu_sim::{LaneMask, WarpCtx};

/// A runtime's statistics plus the observers attached to it. Emitting to
/// an absent observer is a branch on `None`: pure observation, zero
/// simulated cycles.
#[derive(Clone, Debug)]
pub(crate) struct Ledger {
    pub(crate) stats: StatsHandle,
    recorder: Option<Recorder>,
    pub(crate) trace: Option<TxTraceSink>,
}

impl Ledger {
    /// Fresh statistics, nothing attached.
    pub(crate) fn new() -> Self {
        Ledger { stats: stats_handle(), recorder: None, trace: None }
    }

    /// A ledger on `stats` and `trace` that records no history: the one a
    /// [`Pipeline`](crate::Pipeline) reports its policies through.
    pub(crate) fn policies(stats: StatsHandle, trace: Option<TxTraceSink>) -> Self {
        Ledger { stats, recorder: None, trace }
    }

    /// Attaches the optional history recorder and trace sink.
    pub(crate) fn attach(&mut self, recorder: Option<Recorder>, trace: Option<TxTraceSink>) {
        self.recorder = recorder;
        self.trace = trace;
    }

    /// Whether a history recorder is attached.
    pub(crate) fn records(&self) -> bool {
        self.recorder.is_some()
    }

    /// Emits `kind` stamped with `ctx`'s current cycle and warp identity.
    pub(crate) fn emit(&self, ctx: &WarpCtx, kind: TxEventKind) {
        if let Some(sink) = &self.trace {
            let id = ctx.id();
            sink.borrow_mut().push(TxEvent {
                cycle: ctx.now(),
                block: id.block,
                warp: id.warp_in_block,
                kind,
            });
        }
    }

    /// Counts `lanes` aborted attempts of `cause` in the stats and the
    /// history, and emits one `Abort` event for them (none for zero).
    pub(crate) fn abort(&self, ctx: &WarpCtx, cause: AbortCause, lanes: u32) {
        if lanes == 0 {
            return;
        }
        let mut st = self.stats.borrow_mut();
        for _ in 0..lanes {
            st.record_abort(cause);
        }
        drop(st);
        if let Some(rec) = &self.recorder {
            rec.borrow_mut().aborts += u64::from(lanes);
        }
        self.emit(ctx, TxEventKind::Abort { cause, lanes });
    }

    /// Counts `lane`'s commit and records it, built from the lane's logs,
    /// at `version` (`None` for a read-only commit) after `snapshot`.
    pub(crate) fn commit(
        &self,
        ctx: &WarpCtx,
        w: &WarpTx,
        lane: usize,
        version: Option<u32>,
        snapshot: u32,
    ) {
        {
            let mut st = self.stats.borrow_mut();
            st.commits += 1;
            st.reads_committed += w.reads.len(lane) as u64;
            st.writes_committed += w.writes.len(lane) as u64;
        }
        if let Some(rec) = &self.recorder {
            let access = |e: Entry| Access { addr: e.addr, val: e.val };
            rec.borrow_mut().record(CommittedTx {
                tid: ctx.id().thread_id(lane),
                version,
                snapshot,
                reads: w.reads.iter_lane(lane).map(access).collect(),
                writes: w.writes.iter_lane(lane).map(access).collect(),
            });
        }
    }

    /// The CGL serial version of the next commit: one past the commits
    /// recorded so far (lock order is the serial order). Zero when no
    /// history is recorded.
    pub(crate) fn next_serial_version(&self) -> u32 {
        self.recorder.as_ref().map_or(0, |rec| rec.borrow().commits.len() as u32 + 1)
    }

    /// The read-only fast path (Algorithm 3 lines 68–69): the lanes of
    /// `active` that buffered no writes commit at their snapshot. Counts
    /// and records them, resets them, and returns them.
    pub(crate) fn commit_read_only(
        &self,
        ctx: &WarpCtx,
        w: &mut WarpTx,
        active: LaneMask,
    ) -> LaneMask {
        let ro = active.filter(|l| w.is_read_only(l));
        for l in ro.iter() {
            self.stats.borrow_mut().read_only_commits += 1;
            self.commit(ctx, w, l, None, w.snapshot[l]);
            w.reset_lane(l);
        }
        ro
    }

    /// Ends a `commit` call: moves the attempt's phase time into the
    /// breakdown, split between `committed` lanes and `aborted` ones,
    /// emits the `Commit` event and, if anything committed, tells the
    /// simulator's progress monitor. Returns `committed`.
    pub(crate) fn finish(
        &self,
        ctx: &WarpCtx,
        w: &mut WarpTx,
        committed: LaneMask,
        aborted: u32,
    ) -> LaneMask {
        w.enter_phase(ctx.now(), Phase::Native);
        w.flush_attempt(&mut self.stats.borrow_mut().breakdown, committed.count(), aborted);
        self.emit(ctx, TxEventKind::Commit { committed: committed.count(), aborted });
        if committed.any() {
            // Contention then shows as livelock or budget pressure, not
            // as a false deadlock diagnosis.
            ctx.mark_progress();
        }
        committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::tx_trace_sink;
    use std::rc::Rc;

    #[test]
    fn attach_connects_both_observers() {
        let mut ledger = Ledger::new();
        assert!(!ledger.records() && ledger.trace.is_none());
        ledger.attach(Some(crate::recorder()), Some(tx_trace_sink(8)));
        assert!(ledger.records() && ledger.trace.is_some());
        assert_eq!(ledger.next_serial_version(), 1);
        let policies = Ledger::policies(Rc::clone(&ledger.stats), ledger.trace.clone());
        assert!(!policies.records() && Rc::ptr_eq(&policies.stats, &ledger.stats));
    }
}
