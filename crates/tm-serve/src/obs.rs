//! tm-obs: deterministic live observability for the serving layer.
//!
//! Everything here is aggregated on the **virtual epoch clock** (DESIGN.md
//! §12): counters roll over on epoch-window boundaries, incidents open and
//! close at epochs, and flight-recorder frames are stamped with the round
//! and epoch at which their batch folded. No wall-clock value ever enters
//! a snapshot, so a [`MetricsSnapshot`] — like every other serialized
//! report in this workspace — is byte-identical at any worker count and on
//! any machine for a fixed seed.
//!
//! Three layers, consumed by `service::serve`:
//!
//! 1. **Windowed metrics** — per-shard [`WinCounter`]s (total + last
//!    completed window), fixed-bucket [`Hist`]ograms for batch cycles and
//!    retry-after hints, and point gauges (queue depth, cost estimate,
//!    abort permille). Exposed as JSON (via
//!    [`JsonWriter`](gpu_sim::json::JsonWriter)) and Prometheus text.
//! 2. **Health + incidents** — a per-shard state machine
//!    ([`HealthState`]) driven by `Pipeline::abort_storm` with hysteresis,
//!    crash-recovery windows, replica divergence and tm-check violations.
//!    Transitions produce structured [`Incident`] records with evidence
//!    FNV fingerprints.
//! 3. **Flight recorder** — a bounded ring of [`FlightFrame`]s per shard
//!    (the last N folded batches, optionally carrying the batch's drained
//!    trace events). When an incident opens, a [`FlightBundle`] is cut:
//!    a replayable post-mortem with a Chrome-trace slice, a `.sched`-style
//!    context block and the shard's store fingerprint.
//!
//! Visibility discipline: anything serialized into `ServeReport` must be
//! **durability-independent** (a durable no-crash run and a volatile run
//! produce identical report JSON — `tests/recovery.rs` enforces this), so
//! epoch-visible incidents (abort storms, asynchronous recovery windows,
//! check violations) live in the serve report while crash bundles and
//! divergence demotions live in `RecoveryReport`. WAL positions appear
//! only in crash bundles, never in storm or violation bundles.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};

use gpu_sim::json::JsonWriter;
use gpu_sim::rng::Fnv;
use gpu_sim::trace::SimEvent;
use gpu_stm::trace::{chrome_trace, TxEvent};

use crate::engine::BatchReport;

/// Tuning knobs for the observability subsystem.
///
/// The defaults are cheap enough to leave on for every run: with
/// `flight_events == 0` no trace events are captured and the flight
/// recorder holds only per-batch counters.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Width of a metrics window in virtual cycles. Counters roll over
    /// each time the epoch clock crosses a multiple of this value.
    pub window_cycles: u64,
    /// Flight-recorder depth: how many folded batches (≈ epochs of shard
    /// activity) each shard retains for post-mortem bundles.
    pub flight_epochs: usize,
    /// Per-batch trace-event ring capacity wired into the engines. Zero
    /// disables event capture; bundles then carry counters only.
    pub flight_events: usize,
    /// Consecutive storming batches before a shard enters `Storming` and
    /// an [`IncidentCause::AbortStorm`] incident opens.
    pub storm_open: u32,
    /// Consecutive calm batches before the storm incident closes.
    pub storm_close: u32,
    /// Parked-admission depth at or above which a round counts toward a
    /// park storm (blocking admission only; see `ServeConfig::blocking`).
    pub park_open_depth: u64,
    /// Consecutive rounds at or above [`Self::park_open_depth`] before a
    /// [`IncidentCause::ParkStorm`] incident opens.
    pub park_storm_open: u32,
    /// Consecutive rounds below the depth threshold before the park
    /// storm incident closes.
    pub park_storm_close: u32,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            window_cycles: 1 << 16,
            flight_epochs: 8,
            flight_events: 0,
            storm_open: 2,
            storm_close: 2,
            park_open_depth: 1,
            park_storm_open: 2,
            park_storm_close: 2,
        }
    }
}

/// Per-shard health, derived — never sampled — from epoch-clock signals.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// Serving normally.
    Healthy,
    /// The shard's STM reports a sustained abort storm.
    Storming,
    /// A crash-recovery window is in progress and no replica can answer.
    Recovering,
    /// A crash-recovery window is in progress but a healthy replica group
    /// is available to answer for the shard.
    ReplicaServing,
    /// A tm-check violation or replica divergence was detected; the shard
    /// stays degraded for the rest of the run.
    Degraded,
}

impl HealthState {
    /// Stable lowercase label used by both encoders.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Storming => "storming",
            HealthState::Recovering => "recovering",
            HealthState::ReplicaServing => "replica_serving",
            HealthState::Degraded => "degraded",
        }
    }
}

/// Why an [`Incident`] opened.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum IncidentCause {
    /// Sustained abort storm (AIMD high-water mark held for
    /// [`ObsConfig::storm_open`] batches).
    AbortStorm,
    /// A `CrashPlan` kill landed and the shard entered a recovery window.
    CrashRecovery,
    /// A verified replica disagreed with the primary's epoch fingerprint.
    ReplicaDivergence,
    /// The tm-check oracle reported a consistency violation at drain.
    CheckViolation,
    /// Blocking admission held parked requests at or above the
    /// [`ObsConfig::park_open_depth`] threshold for
    /// [`ObsConfig::park_storm_open`] consecutive rounds.
    ParkStorm,
}

impl IncidentCause {
    /// Stable lowercase label used in JSON, bundle names and filenames.
    pub fn label(self) -> &'static str {
        match self {
            IncidentCause::AbortStorm => "abort_storm",
            IncidentCause::CrashRecovery => "crash_recovery",
            IncidentCause::ReplicaDivergence => "replica_divergence",
            IncidentCause::CheckViolation => "check_violation",
            IncidentCause::ParkStorm => "park_storm",
        }
    }

    fn ordinal(self) -> u64 {
        match self {
            IncidentCause::AbortStorm => 1,
            IncidentCause::CrashRecovery => 2,
            IncidentCause::ReplicaDivergence => 3,
            IncidentCause::CheckViolation => 4,
            IncidentCause::ParkStorm => 5,
        }
    }
}

/// Provenance link from an incident bundle back to a model-checker
/// witness: the violated rule and the minimized `.sched` schedule path
/// produced by `tm_verify::witness::save_witness`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessRef {
    /// Lint/check rule id the witness demonstrates (e.g. `TL002`).
    pub rule: String,
    /// Path of the minimized `.sched` witness file.
    pub path: String,
}

/// A structured health incident: one open/close span on the epoch clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Incident {
    /// Shard the incident belongs to.
    pub shard: u32,
    /// Why it opened.
    pub cause: IncidentCause,
    /// Epoch at which the incident opened.
    pub open_epoch: u64,
    /// Coordinator round at which it opened.
    pub open_round: u64,
    /// Epoch at which it closed (`None` while still open).
    pub close_epoch: Option<u64>,
    /// Round at which it closed (`None` while still open).
    pub close_round: Option<u64>,
    /// FNV-1a fingerprint of the evidence folded at open time (shard,
    /// cause, epoch, round and the cause-specific counters).
    pub evidence_fnv: u64,
    /// Name of the flight-recorder bundle cut when the incident opened.
    pub bundle: Option<String>,
    /// Model-checker witness provenance, when the incident originated
    /// from a verified violation.
    pub witness: Option<WitnessRef>,
}

impl Incident {
    fn close(&mut self, round: u64, epoch: u64) {
        self.close_epoch = Some(epoch);
        self.close_round = Some(round);
    }

    /// Serializes the incident with stable field order.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("shard", self.shard as u64);
        w.field_str("cause", self.cause.label());
        w.field_u64("open_epoch", self.open_epoch);
        w.field_u64("open_round", self.open_round);
        if let Some(e) = self.close_epoch {
            w.field_u64("close_epoch", e);
        }
        if let Some(r) = self.close_round {
            w.field_u64("close_round", r);
        }
        w.field_str("evidence_fnv", &format!("{:016x}", self.evidence_fnv));
        if let Some(b) = &self.bundle {
            w.field_str("bundle", b);
        }
        if let Some(wit) = &self.witness {
            w.key("witness");
            w.begin_object();
            w.field_str("rule", &wit.rule);
            w.field_str("path", &wit.path);
            w.end_object();
        }
        w.end_object();
    }
}

/// A counter with a windowed view: the all-run total, the window
/// currently accumulating, and the last completed window (what a live
/// dashboard would graph as the current rate).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WinCounter {
    /// All-run total.
    pub total: u64,
    /// Amount accumulated in the currently open window.
    pub window: u64,
    /// Amount of the last completed window.
    pub last_window: u64,
}

impl WinCounter {
    /// Adds to both the total and the open window.
    pub fn add(&mut self, v: u64) {
        self.total += v;
        self.window += v;
    }

    /// Completes the open window (called on a window boundary).
    pub fn roll(&mut self) {
        self.last_window = self.window;
        self.window = 0;
    }
}

/// A fixed-bucket cumulative histogram (Prometheus semantics: bucket `i`
/// counts observations `<= bounds[i]`, with an implicit `+Inf` bucket).
///
/// Bounds are fixed at construction so the encoding — and therefore the
/// report bytes — cannot depend on the data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Upper bounds of the finite buckets, strictly increasing.
    pub bounds: Vec<u64>,
    /// Non-cumulative per-bucket counts; `counts[bounds.len()]` is the
    /// overflow (`+Inf`) bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Hist {
    /// Creates an empty histogram over the given bucket bounds.
    pub fn new(bounds: &[u64]) -> Self {
        Hist { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], count: 0, sum: 0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Serializes the histogram with stable field order.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("bounds");
        w.begin_array();
        for &b in &self.bounds {
            w.u64(b);
        }
        w.end_array();
        w.key("counts");
        w.begin_array();
        for &c in &self.counts {
            w.u64(c);
        }
        w.end_array();
        w.field_u64("count", self.count);
        w.field_u64("sum", self.sum);
        w.end_object();
    }
}

/// Batch-cycle histogram bounds (virtual cycles per dispatched batch).
pub const BATCH_CYCLE_BOUNDS: [u64; 7] =
    [1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18];

/// Retry-after-hint histogram bounds (virtual cycles clients are told to
/// back off on admission rejection).
pub const RETRY_AFTER_BOUNDS: [u64; 6] = [1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18];

/// One flight-recorder frame: the counters (and optionally the drained
/// trace events) of a single folded batch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlightFrame {
    /// Coordinator round at which the batch folded.
    pub round: u64,
    /// Epoch clock after folding.
    pub epoch: u64,
    /// WAL sequence number of the batch (0 in volatile runs).
    pub seq: u64,
    /// Simulated cycles charged by the batch.
    pub cycles: u64,
    /// Transactions committed by the batch.
    pub commits: u64,
    /// Aborts observed during the batch.
    pub aborts: u64,
    /// Whether the shard's STM reported an abort storm during the batch.
    pub storm: bool,
    /// Simulator events drained from the batch's trace tap.
    pub sim_events: Vec<SimEvent>,
    /// Transaction-lifecycle events drained from the batch's trace tap.
    pub tx_events: Vec<TxEvent>,
}

impl FlightFrame {
    /// Serializes the frame's metadata (event payloads are exported via
    /// [`FlightBundle::chrome_trace`], not inline JSON). `seq` is
    /// intentionally omitted: report-embedded frames must not leak WAL
    /// positions, which differ between durable and volatile runs.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("round", self.round);
        w.field_u64("epoch", self.epoch);
        w.field_u64("cycles", self.cycles);
        w.field_u64("commits", self.commits);
        w.field_u64("aborts", self.aborts);
        w.field_bool("storm", self.storm);
        w.field_u64("sim_events", self.sim_events.len() as u64);
        w.field_u64("tx_events", self.tx_events.len() as u64);
        w.end_object();
    }
}

/// A replayable post-mortem cut from a shard's flight recorder when an
/// incident opens, a tm-check violation fires, or a `CrashPlan` kill
/// lands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightBundle {
    /// Deterministic bundle name: `s{shard:03}-r{round:06}-{cause}`.
    pub name: String,
    /// Shard the bundle was cut from.
    pub shard: u32,
    /// The triggering cause.
    pub cause: IncidentCause,
    /// Epoch at which the bundle was cut.
    pub epoch: u64,
    /// Coordinator round at which the bundle was cut.
    pub round: u64,
    /// WAL sequence at the cut (crash bundles only; 0 otherwise so that
    /// report-embedded bundles stay durability-independent).
    pub wal_seq: u64,
    /// Store fingerprint `(fnv, bytes)` at the cut (crash bundles only).
    pub store_fnv: u64,
    /// Identity context: variant name, engine mode, run seed.
    pub variant: String,
    /// Engine mode label.
    pub mode: String,
    /// Run seed.
    pub seed: u64,
    /// The retained flight frames, oldest first.
    pub frames: Vec<FlightFrame>,
    /// Model-checker witness provenance, when applicable.
    pub witness: Option<WitnessRef>,
}

impl FlightBundle {
    /// Attaches model-checker witness provenance, so a bundle born from
    /// a verified violation carries the minimized `.sched` reproduction
    /// path alongside the trace.
    pub fn with_witness(mut self, rule: &str, path: &str) -> Self {
        self.witness = Some(WitnessRef { rule: rule.to_string(), path: path.to_string() });
        self
    }

    /// Flattens the retained frames into a Chrome trace via the existing
    /// exporter, so a bundle's slice replays in the same tooling as a
    /// full-run trace.
    pub fn chrome_trace(&self) -> String {
        let sim: Vec<SimEvent> = self.frames.iter().flat_map(|f| f.sim_events.clone()).collect();
        let tx: Vec<TxEvent> = self.frames.iter().flat_map(|f| f.tx_events.clone()).collect();
        chrome_trace(&sim, &tx)
    }

    /// `.sched`-style context block: `meta <key> <value>` lines a human
    /// (or the replay tooling) reads to situate the trace slice.
    pub fn context(&self) -> String {
        let mut out = String::new();
        let mut meta = |k: &str, v: &str| {
            out.push_str("meta ");
            out.push_str(k);
            out.push(' ');
            out.push_str(v);
            out.push('\n');
        };
        meta("bundle", &self.name);
        meta("shard", &self.shard.to_string());
        meta("cause", self.cause.label());
        meta("variant", &self.variant);
        meta("mode", &self.mode);
        meta("seed", &self.seed.to_string());
        meta("epoch", &self.epoch.to_string());
        meta("round", &self.round.to_string());
        meta("wal_seq", &self.wal_seq.to_string());
        meta("store_fnv", &format!("{:016x}", self.store_fnv));
        meta("frames", &self.frames.len().to_string());
        if let Some(wit) = &self.witness {
            meta("rule", &wit.rule);
            meta("witness", &wit.path);
        }
        out
    }

    /// Serializes the bundle summary (context + frame metadata, no raw
    /// event payloads) with stable field order.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("name", &self.name);
        w.field_u64("shard", self.shard as u64);
        w.field_str("cause", self.cause.label());
        w.field_u64("epoch", self.epoch);
        w.field_u64("round", self.round);
        w.field_u64("wal_seq", self.wal_seq);
        w.field_str("store_fnv", &format!("{:016x}", self.store_fnv));
        w.key("frames");
        w.begin_array();
        for f in &self.frames {
            f.write_json(w);
        }
        w.end_array();
        if let Some(wit) = &self.witness {
            w.key("witness");
            w.begin_object();
            w.field_str("rule", &wit.rule);
            w.field_str("path", &wit.path);
            w.end_object();
        }
        w.end_object();
    }

    /// The bundle summary as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Dumps the bundle into `dir` as `<name>.json` (summary + context)
    /// and `<name>.trace.json` (replayable Chrome trace). Returns the
    /// summary path.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("bundle");
        self.write_json(&mut w);
        w.key("context");
        w.begin_array();
        for line in self.context().lines() {
            w.string(line);
        }
        w.end_array();
        w.field_str("trace", &format!("{}.trace.json", self.name));
        w.end_object();
        let summary = dir.join(format!("{}.json", self.name));
        std::fs::write(&summary, w.finish())?;
        std::fs::write(dir.join(format!("{}.trace.json", self.name)), self.chrome_trace())?;
        Ok(summary)
    }
}

/// Point-in-time view of one shard's metrics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: u32,
    /// Derived health state at snapshot time.
    pub health: HealthState,
    /// Committed transactions.
    pub commits: WinCounter,
    /// Aborted transaction attempts.
    pub aborts: WinCounter,
    /// Admission rejections.
    pub rejected: WinCounter,
    /// Requests parked by blocking admission (park events, not depth).
    pub parked: WinCounter,
    /// Dispatched batches.
    pub batches: WinCounter,
    /// Batches during which the STM reported an abort storm.
    pub storm_rounds: WinCounter,
    /// Cumulative abort rate in permille (exact integer arithmetic).
    pub abort_permille: u32,
    /// Queue depth gauge at snapshot time.
    pub queue_depth: u64,
    /// Parked-admission depth gauge at snapshot time (blocking mode).
    pub parked_depth: u64,
    /// Admission cost estimate gauge (cycles per entry).
    pub cost_per_entry: u64,
    /// Whether the last folded batch reported a storm.
    pub storm: bool,
    /// Histogram of per-batch simulated cycles.
    pub batch_cycles: Hist,
    /// Histogram of retry-after hints handed to rejected clients.
    pub retry_after: Hist,
    /// Incidents currently open on this shard.
    pub incidents_open: u64,
    /// Incidents ever opened on this shard (epoch-visible causes only).
    pub incidents_total: u64,
}

impl ShardSnapshot {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("shard", self.shard as u64);
        w.field_str("health", self.health.label());
        for (name, c) in [
            ("commits", &self.commits),
            ("aborts", &self.aborts),
            ("rejected", &self.rejected),
            ("parked", &self.parked),
            ("batches", &self.batches),
            ("storm_rounds", &self.storm_rounds),
        ] {
            w.key(name);
            w.begin_object();
            w.field_u64("total", c.total);
            w.field_u64("last_window", c.last_window);
            w.end_object();
        }
        w.field_u64("abort_permille", self.abort_permille as u64);
        w.field_u64("queue_depth", self.queue_depth);
        w.field_u64("parked_depth", self.parked_depth);
        w.field_u64("cost_per_entry", self.cost_per_entry);
        w.field_bool("storm", self.storm);
        w.key("batch_cycles");
        self.batch_cycles.write_json(w);
        w.key("retry_after");
        self.retry_after.write_json(w);
        w.field_u64("incidents_open", self.incidents_open);
        w.field_u64("incidents_total", self.incidents_total);
        w.end_object();
    }
}

/// The exposition unit: all shards' windowed metrics at one epoch, plus
/// the run identity needed to label them. Byte-identical for a fixed
/// seed at any worker count — both encoders serialize only virtual-clock
/// quantities in a fixed order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Epoch clock at snapshot time.
    pub epoch: u64,
    /// Window width the counters rolled on.
    pub window_cycles: u64,
    /// Index of the open window (`epoch / window_cycles`).
    pub window: u64,
    /// STM variant label.
    pub variant: String,
    /// Engine mode label.
    pub mode: String,
    /// Per-shard views, in shard order.
    pub shards: Vec<ShardSnapshot>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot with stable field order.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("epoch", self.epoch);
        w.field_u64("window_cycles", self.window_cycles);
        w.field_u64("window", self.window);
        w.field_str("variant", &self.variant);
        w.field_str("mode", &self.mode);
        w.key("shards");
        w.begin_array();
        for s in &self.shards {
            s.write_json(w);
        }
        w.end_array();
        w.end_object();
    }

    /// The snapshot as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Prometheus text exposition (spec-conforming `# HELP`/`# TYPE`
    /// headers, `_total` counters, `_bucket`/`_sum`/`_count` histograms).
    /// Deterministic: shards ascending, buckets ascending, fixed metric
    /// order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let labels = |shard: u32| {
            format!("shard=\"{}\",variant=\"{}\",mode=\"{}\"", shard, self.variant, self.mode)
        };
        let counter =
            |out: &mut String, name: &str, help: &str, get: &dyn Fn(&ShardSnapshot) -> u64| {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
                for s in &self.shards {
                    out.push_str(&format!("{name}{{{}}} {}\n", labels(s.shard), get(s)));
                }
            };
        counter(&mut out, "tm_commits_total", "Committed transactions.", &|s| s.commits.total);
        counter(&mut out, "tm_aborts_total", "Aborted transaction attempts.", &|s| s.aborts.total);
        counter(&mut out, "tm_rejected_total", "Admission rejections.", &|s| s.rejected.total);
        counter(&mut out, "tm_parked_total", "Requests parked by blocking admission.", &|s| {
            s.parked.total
        });
        counter(&mut out, "tm_batches_total", "Dispatched batches.", &|s| s.batches.total);
        counter(&mut out, "tm_storm_rounds_total", "Batches under abort storm.", &|s| {
            s.storm_rounds.total
        });
        counter(&mut out, "tm_incidents_total", "Incidents opened.", &|s| s.incidents_total);
        let gauge =
            |out: &mut String, name: &str, help: &str, get: &dyn Fn(&ShardSnapshot) -> u64| {
                out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
                for s in &self.shards {
                    out.push_str(&format!("{name}{{{}}} {}\n", labels(s.shard), get(s)));
                }
            };
        gauge(&mut out, "tm_commits_last_window", "Commits in the last completed window.", &|s| {
            s.commits.last_window
        });
        gauge(&mut out, "tm_aborts_last_window", "Aborts in the last completed window.", &|s| {
            s.aborts.last_window
        });
        gauge(&mut out, "tm_abort_permille", "Cumulative abort rate (permille).", &|s| {
            s.abort_permille as u64
        });
        gauge(&mut out, "tm_queue_depth", "Shard queue depth.", &|s| s.queue_depth);
        gauge(&mut out, "tm_parked_depth", "Requests currently parked on the shard.", &|s| {
            s.parked_depth
        });
        gauge(&mut out, "tm_cost_per_entry", "Admission cost estimate (cycles).", &|s| {
            s.cost_per_entry
        });
        gauge(&mut out, "tm_storm", "Abort storm in progress (0/1).", &|s| s.storm as u64);
        gauge(&mut out, "tm_incidents_open", "Incidents currently open.", &|s| s.incidents_open);
        out.push_str("# HELP tm_health Shard health state (1 = current state).\n");
        out.push_str("# TYPE tm_health gauge\n");
        for s in &self.shards {
            out.push_str(&format!(
                "tm_health{{{},state=\"{}\"}} 1\n",
                labels(s.shard),
                s.health.label()
            ));
        }
        for (name, help, batch) in [
            ("tm_batch_cycles", "Simulated cycles per dispatched batch.", true),
            ("tm_retry_after", "Retry-after hints handed to rejected clients (cycles).", false),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            for s in &self.shards {
                let h = if batch { &s.batch_cycles } else { &s.retry_after };
                let mut cum = 0u64;
                for (i, &b) in h.bounds.iter().enumerate() {
                    cum += h.counts[i];
                    out.push_str(&format!(
                        "{name}_bucket{{{},le=\"{}\"}} {}\n",
                        labels(s.shard),
                        b,
                        cum
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{{{},le=\"+Inf\"}} {}\n",
                    labels(s.shard),
                    h.count
                ));
                out.push_str(&format!("{name}_sum{{{}}} {}\n", labels(s.shard), h.sum));
                out.push_str(&format!("{name}_count{{{}}} {}\n", labels(s.shard), h.count));
            }
        }
        out
    }
}

/// The observability block embedded in every `ServeReport`: the final
/// snapshot plus the epoch-visible incidents and their bundles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ObsReport {
    /// Final metrics snapshot of the run.
    pub snapshot: MetricsSnapshot,
    /// Epoch-visible incidents (abort storms, asynchronous recovery
    /// windows, check violations), open-order.
    pub incidents: Vec<Incident>,
    /// Bundles cut for those incidents (summaries; event payloads are
    /// exported to disk separately).
    pub bundles: Vec<FlightBundle>,
}

impl ObsReport {
    /// Serializes the block with stable field order.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("snapshot");
        self.snapshot.write_json(w);
        w.key("incidents");
        w.begin_array();
        for i in &self.incidents {
            i.write_json(w);
        }
        w.end_array();
        w.key("bundles");
        w.begin_array();
        for b in &self.bundles {
            b.write_json(w);
        }
        w.end_array();
        w.end_object();
    }
}

/// Per-shard live state inside [`ObsState`].
#[derive(Debug)]
struct ShardObs {
    commits: WinCounter,
    aborts: WinCounter,
    rejected: WinCounter,
    parked: WinCounter,
    batches: WinCounter,
    storm_rounds: WinCounter,
    batch_cycles: Hist,
    retry_after: Hist,
    queue_depth: u64,
    parked_depth: u64,
    cost_per_entry: u64,
    storm: bool,
    frames: VecDeque<FlightFrame>,
    storm_streak: u32,
    calm_streak: u32,
    storming: bool,
    park_streak: u32,
    park_calm_streak: u32,
    park_storming: bool,
    recovering: bool,
    replica_serving: bool,
    degraded: bool,
    /// Index into the epoch-visible incident list of the open storm
    /// incident, if any.
    storm_incident: Option<usize>,
    /// Index of the open park-storm incident, if any.
    park_incident: Option<usize>,
    /// Index of the open crash-recovery incident, if any.
    crash_incident: Option<usize>,
}

impl ShardObs {
    fn new(cfg: &ObsConfig) -> Self {
        ShardObs {
            commits: WinCounter::default(),
            aborts: WinCounter::default(),
            rejected: WinCounter::default(),
            parked: WinCounter::default(),
            batches: WinCounter::default(),
            storm_rounds: WinCounter::default(),
            batch_cycles: Hist::new(&BATCH_CYCLE_BOUNDS),
            retry_after: Hist::new(&RETRY_AFTER_BOUNDS),
            queue_depth: 0,
            parked_depth: 0,
            cost_per_entry: 0,
            storm: false,
            frames: VecDeque::with_capacity(cfg.flight_epochs),
            storm_streak: 0,
            calm_streak: 0,
            storming: false,
            park_streak: 0,
            park_calm_streak: 0,
            park_storming: false,
            recovering: false,
            replica_serving: false,
            degraded: false,
            storm_incident: None,
            park_incident: None,
            crash_incident: None,
        }
    }

    fn health(&self) -> HealthState {
        if self.degraded {
            HealthState::Degraded
        } else if self.replica_serving {
            HealthState::ReplicaServing
        } else if self.recovering {
            HealthState::Recovering
        } else if self.storming || self.park_storming {
            HealthState::Storming
        } else {
            HealthState::Healthy
        }
    }

    fn abort_permille(&self) -> u32 {
        let attempts = self.commits.total + self.aborts.total;
        (self.aborts.total * 1000).checked_div(attempts).unwrap_or(0) as u32
    }

    fn roll(&mut self) {
        self.commits.roll();
        self.aborts.roll();
        self.rejected.roll();
        self.parked.roll();
        self.batches.roll();
        self.storm_rounds.roll();
    }

    fn push_frame(&mut self, cap: usize, frame: FlightFrame) {
        if self.frames.len() == cap.max(1) {
            self.frames.pop_front();
        }
        self.frames.push_back(frame);
    }
}

/// The coordinator-side observability engine: fed by `service::serve`'s
/// round loop, queried for snapshots and reports at drain.
#[derive(Debug)]
pub struct ObsState {
    cfg: ObsConfig,
    variant: String,
    mode: String,
    seed: u64,
    shards: Vec<ShardObs>,
    /// Epoch-visible incidents (serialized into `ServeReport`).
    incidents: Vec<Incident>,
    /// Durability-dependent incidents (serialized into `RecoveryReport`).
    rec_incidents: Vec<Incident>,
    /// Bundles for epoch-visible incidents.
    bundles: Vec<FlightBundle>,
    /// Bundles for crash/divergence incidents.
    rec_bundles: Vec<FlightBundle>,
    window: u64,
}

impl ObsState {
    /// Creates the engine for `shards` shards with the run's identity
    /// labels (used by both encoders and the bundle context blocks).
    pub fn new(cfg: ObsConfig, shards: usize, variant: &str, mode: &str, seed: u64) -> Self {
        let per_shard = (0..shards).map(|_| ShardObs::new(&cfg)).collect();
        ObsState {
            cfg,
            variant: variant.to_string(),
            mode: mode.to_string(),
            seed,
            shards: per_shard,
            incidents: Vec::new(),
            rec_incidents: Vec::new(),
            bundles: Vec::new(),
            rec_bundles: Vec::new(),
            window: 0,
        }
    }

    /// Rolls metric windows forward to the window containing `epoch`.
    /// Called once per round after the epoch clock advances; rolling on
    /// the virtual clock (never on wall time) is what keeps windowed
    /// values worker-count-independent.
    pub fn roll_to(&mut self, epoch: u64) {
        let target = epoch / self.cfg.window_cycles.max(1);
        while self.window < target {
            for s in &mut self.shards {
                s.roll();
            }
            self.window += 1;
        }
    }

    /// Records an admission rejection and the retry-after hint handed to
    /// the client.
    pub fn on_reject(&mut self, shard: usize, retry_after: u64) {
        let s = &mut self.shards[shard];
        s.rejected.add(1);
        s.retry_after.observe(retry_after);
    }

    /// Updates the queue-depth and cost gauges (once per fold).
    pub fn on_gauges(&mut self, shard: usize, queue_depth: u64, cost_per_entry: u64) {
        let s = &mut self.shards[shard];
        s.queue_depth = queue_depth;
        s.cost_per_entry = cost_per_entry;
    }

    /// Records one request parking at blocking admission (a park event;
    /// depth is tracked separately by [`Self::on_park_depth`]).
    pub fn on_park(&mut self, shard: usize) {
        self.shards[shard].parked.add(1);
    }

    /// Updates the parked-depth gauge for one coordinator round and
    /// drives the park-storm state machine: `park_storm_open`
    /// consecutive rounds at or above `park_open_depth` open a
    /// [`IncidentCause::ParkStorm`] incident, `park_storm_close` calm
    /// rounds close it.
    pub fn on_park_depth(&mut self, shard: usize, depth: u64, round: u64, epoch: u64) {
        let (open_depth, park_open, park_close) =
            (self.cfg.park_open_depth, self.cfg.park_storm_open, self.cfg.park_storm_close);
        let s = &mut self.shards[shard];
        s.parked_depth = depth;
        if depth >= open_depth.max(1) {
            s.park_streak += 1;
            s.park_calm_streak = 0;
        } else {
            s.park_calm_streak += 1;
            s.park_streak = 0;
        }
        let opens = !s.park_storming && s.park_streak >= park_open;
        let closes = s.park_storming && s.park_calm_streak >= park_close;
        if opens {
            s.park_storming = true;
            let evidence = [depth, s.parked.total];
            let cause = IncidentCause::ParkStorm;
            let i = self.open_incident(shard, cause, round, epoch, &evidence, true);
            self.shards[shard].park_incident = Some(i);
        } else if closes {
            s.park_storming = false;
            if let Some(i) = s.park_incident.take() {
                self.incidents[i].close(round, epoch);
            }
        }
    }

    /// Folds one batch report: counters, histograms, a flight frame, and
    /// the storm state machine (with hysteresis). Drains the report's
    /// trace events into the frame.
    pub fn on_batch(&mut self, shard: usize, round: u64, epoch: u64, rep: &mut BatchReport) {
        let frame = FlightFrame {
            round,
            epoch,
            seq: rep.seq,
            cycles: rep.cycles,
            commits: rep.commits,
            aborts: rep.aborts,
            storm: rep.storm,
            sim_events: std::mem::take(&mut rep.sim_events),
            tx_events: std::mem::take(&mut rep.tx_events),
        };
        let cap = self.cfg.flight_epochs;
        let (storm_open, storm_close) = (self.cfg.storm_open, self.cfg.storm_close);
        let s = &mut self.shards[shard];
        s.commits.add(rep.commits);
        s.aborts.add(rep.aborts);
        s.batches.add(1);
        s.batch_cycles.observe(rep.cycles);
        s.storm = rep.storm;
        if rep.storm {
            s.storm_rounds.add(1);
            s.storm_streak += 1;
            s.calm_streak = 0;
        } else {
            s.calm_streak += 1;
            s.storm_streak = 0;
        }
        s.push_frame(cap, frame);
        let opens = !s.storming && s.storm_streak >= storm_open;
        let closes = s.storming && s.calm_streak >= storm_close;
        if opens {
            s.storming = true;
            let evidence = [s.aborts.total, s.commits.total];
            let cause = IncidentCause::AbortStorm;
            let i = self.open_incident(shard, cause, round, epoch, &evidence, true);
            self.shards[shard].storm_incident = Some(i);
        } else if closes {
            s.storming = false;
            if let Some(i) = s.storm_incident.take() {
                self.incidents[i].close(round, epoch);
            }
        }
    }

    /// Records a `CrashPlan` kill. Always cuts a crash bundle (with WAL
    /// position and store fingerprint) into the recovery-side list; when
    /// the recovery is asynchronous (`recovery_rounds > 0`, so the shard
    /// is epoch-visibly unavailable) it also opens a `CrashRecovery`
    /// incident, marked `ReplicaServing` when a healthy replica group can
    /// answer for the shard meanwhile.
    #[allow(clippy::too_many_arguments)]
    pub fn on_crash(
        &mut self,
        shard: usize,
        round: u64,
        epoch: u64,
        wal_seq: u64,
        store_fnv: u64,
        recovery_rounds: u64,
        replicas_available: bool,
    ) {
        let (cause, visible) = (IncidentCause::CrashRecovery, recovery_rounds > 0);
        let i = self.open_incident(shard, cause, round, epoch, &[wal_seq, store_fnv], visible);
        if visible {
            let s = &mut self.shards[shard];
            s.recovering = true;
            s.replica_serving = replicas_available;
            s.crash_incident = Some(i);
        } else {
            // Synchronous recovery heals within the round: invisible on
            // the epoch clock, so the record goes to the recovery report
            // with a zero-length span.
            self.rec_incidents[i].close(round, epoch);
        }
    }

    /// Closes the shard's recovery window (the shard finished replaying
    /// and resumed serving).
    pub fn on_recovered(&mut self, shard: usize, round: u64, epoch: u64) {
        let s = &mut self.shards[shard];
        s.recovering = false;
        s.replica_serving = false;
        if let Some(i) = s.crash_incident.take() {
            self.incidents[i].close(round, epoch);
        }
    }

    /// Records a replica divergence: the shard is demoted to `Degraded`
    /// for the rest of the run and a never-closing incident lands in the
    /// recovery report.
    pub fn on_diverged(&mut self, shard: usize, round: u64, epoch: u64, replica: u64) {
        self.shards[shard].degraded = true;
        let cause = IncidentCause::ReplicaDivergence;
        self.open_incident(shard, cause, round, epoch, &[replica], false);
    }

    /// Records tm-check violations reported by a shard at drain: the
    /// shard is demoted to `Degraded` and a zero-length `CheckViolation`
    /// incident (with bundle) becomes part of the serve report.
    pub fn on_violations(&mut self, shard: usize, round: u64, epoch: u64, violations: u64) {
        if violations == 0 {
            return;
        }
        self.shards[shard].degraded = true;
        let cause = IncidentCause::CheckViolation;
        let i = self.open_incident(shard, cause, round, epoch, &[violations], true);
        self.incidents[i].close(round, epoch);
    }

    /// Opens an incident: fingerprints `(shard, cause, epoch, round)`
    /// followed by the cause's `evidence`, cuts a flight bundle from the
    /// shard's recorder, and files the incident in the serve report
    /// (`visible`) or the recovery report. Crash and divergence bundles
    /// always go to the recovery report; only a crash bundle carries a
    /// WAL position and store fingerprint, its evidence
    /// `[wal_seq, store_fnv]`. Returns the incident's index in its list.
    fn open_incident(
        &mut self,
        shard: usize,
        cause: IncidentCause,
        round: u64,
        epoch: u64,
        evidence: &[u64],
        visible: bool,
    ) -> usize {
        let mut f = Fnv::new();
        for &v in [shard as u64, cause.ordinal(), epoch, round].iter().chain(evidence) {
            f.u64(v);
        }
        let (wal_seq, store_fnv) = match (cause, evidence) {
            (IncidentCause::CrashRecovery, &[seq, fnv]) => (seq, fnv),
            _ => (0, 0),
        };
        let bundle = FlightBundle {
            name: format!("s{:03}-r{:06}-{}", shard, round, cause.label()),
            shard: shard as u32,
            cause,
            epoch,
            round,
            wal_seq,
            store_fnv,
            variant: self.variant.clone(),
            mode: self.mode.clone(),
            seed: self.seed,
            frames: self.shards[shard].frames.iter().cloned().collect(),
            witness: None,
        };
        let incident = Incident {
            shard: shard as u32,
            cause,
            open_epoch: epoch,
            open_round: round,
            close_epoch: None,
            close_round: None,
            evidence_fnv: f.finish(),
            bundle: Some(bundle.name.clone()),
            witness: None,
        };
        if matches!(cause, IncidentCause::CrashRecovery | IncidentCause::ReplicaDivergence) {
            self.rec_bundles.push(bundle);
        } else {
            self.bundles.push(bundle);
        }
        let list = if visible { &mut self.incidents } else { &mut self.rec_incidents };
        list.push(incident);
        list.len() - 1
    }

    /// Builds the point-in-time snapshot at `epoch`.
    pub fn snapshot(&self, epoch: u64) -> MetricsSnapshot {
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let open = self
                    .incidents
                    .iter()
                    .filter(|inc| inc.shard as usize == i && inc.close_epoch.is_none())
                    .count() as u64;
                let total =
                    self.incidents.iter().filter(|inc| inc.shard as usize == i).count() as u64;
                ShardSnapshot {
                    shard: i as u32,
                    health: s.health(),
                    commits: s.commits,
                    aborts: s.aborts,
                    rejected: s.rejected,
                    parked: s.parked,
                    batches: s.batches,
                    storm_rounds: s.storm_rounds,
                    abort_permille: s.abort_permille(),
                    queue_depth: s.queue_depth,
                    parked_depth: s.parked_depth,
                    cost_per_entry: s.cost_per_entry,
                    storm: s.storm,
                    batch_cycles: s.batch_cycles.clone(),
                    retry_after: s.retry_after.clone(),
                    incidents_open: open,
                    incidents_total: total,
                }
            })
            .collect();
        MetricsSnapshot {
            epoch,
            window_cycles: self.cfg.window_cycles,
            window: self.window,
            variant: self.variant.clone(),
            mode: self.mode.clone(),
            shards,
        }
    }

    /// The serve-report observability block: final snapshot plus the
    /// epoch-visible incidents and bundles.
    pub fn report(&self, epoch: u64) -> ObsReport {
        ObsReport {
            snapshot: self.snapshot(epoch),
            incidents: self.incidents.clone(),
            bundles: self.bundles.clone(),
        }
    }

    /// Durability-dependent incidents (crash recoveries healed in-round,
    /// replica divergences) destined for the recovery report.
    pub fn recovery_incidents(&self) -> Vec<Incident> {
        self.rec_incidents.clone()
    }

    /// Crash and divergence bundles destined for the recovery report.
    pub fn recovery_bundles(&self) -> Vec<FlightBundle> {
        self.rec_bundles.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(cycles: u64, commits: u64, aborts: u64, storm: bool) -> BatchReport {
        BatchReport {
            outcomes: Vec::new(),
            cycles,
            commits,
            aborts,
            storm,
            seq: 0,
            sim_events: Vec::new(),
            tx_events: Vec::new(),
        }
    }

    fn state() -> ObsState {
        ObsState::new(ObsConfig::default(), 2, "STM-VBV", "base", 42)
    }

    #[test]
    fn windows_roll_on_epoch_boundaries() {
        let mut obs = state();
        let wc = obs.cfg.window_cycles;
        obs.on_batch(0, 1, 100, &mut rep(100, 10, 2, false));
        assert_eq!(obs.snapshot(100).shards[0].commits.window, 10);
        obs.roll_to(wc + 1);
        let snap = obs.snapshot(wc + 1);
        assert_eq!(snap.window, 1);
        assert_eq!(snap.shards[0].commits.last_window, 10);
        assert_eq!(snap.shards[0].commits.total, 10);
        // A multi-window jump leaves last_window at zero (nothing folded
        // in the skipped windows).
        obs.roll_to(3 * wc + 1);
        assert_eq!(obs.snapshot(3 * wc + 1).shards[0].commits.last_window, 0);
    }

    #[test]
    fn storm_hysteresis_opens_and_closes_one_incident() {
        let mut obs = state();
        let mut round = 0u64;
        let mut fold = |obs: &mut ObsState, storm: bool| {
            round += 1;
            obs.on_batch(0, round, round * 1000, &mut rep(500, 5, 20, storm));
        };
        fold(&mut obs, true);
        assert_eq!(obs.incidents.len(), 0, "one storming batch is not an incident");
        fold(&mut obs, true);
        assert_eq!(obs.incidents.len(), 1);
        assert_eq!(obs.snapshot(2000).shards[0].health, HealthState::Storming);
        fold(&mut obs, true);
        assert_eq!(obs.incidents.len(), 1, "no duplicate incident while open");
        fold(&mut obs, false);
        assert!(obs.incidents[0].close_epoch.is_none(), "one calm batch does not close");
        fold(&mut obs, false);
        assert_eq!(obs.incidents[0].close_epoch, Some(5000));
        assert_eq!(obs.snapshot(5000).shards[0].health, HealthState::Healthy);
        assert_eq!(obs.bundles.len(), 1);
        assert_eq!(obs.bundles[0].cause, IncidentCause::AbortStorm);
    }

    #[test]
    fn park_storm_hysteresis_opens_and_closes_one_incident() {
        let mut obs = state();
        let mut round = 0u64;
        let mut tick = |obs: &mut ObsState, depth: u64| {
            round += 1;
            obs.on_park_depth(0, depth, round, round * 1000);
        };
        tick(&mut obs, 3);
        assert_eq!(obs.incidents.len(), 0, "one deep round is not an incident");
        tick(&mut obs, 2);
        assert_eq!(obs.incidents.len(), 1);
        assert_eq!(obs.incidents[0].cause, IncidentCause::ParkStorm);
        assert_eq!(obs.snapshot(2000).shards[0].health, HealthState::Storming);
        assert_eq!(obs.snapshot(2000).shards[0].parked_depth, 2);
        tick(&mut obs, 5);
        assert_eq!(obs.incidents.len(), 1, "no duplicate incident while open");
        tick(&mut obs, 0);
        assert!(obs.incidents[0].close_epoch.is_none(), "one calm round does not close");
        tick(&mut obs, 0);
        assert_eq!(obs.incidents[0].close_epoch, Some(5000));
        assert_eq!(obs.snapshot(5000).shards[0].health, HealthState::Healthy);
        assert_eq!(obs.bundles.len(), 1);
        assert_eq!(obs.bundles[0].cause, IncidentCause::ParkStorm);
    }

    #[test]
    fn parked_counters_enter_snapshot_and_scrape() {
        let mut obs = state();
        obs.on_park(1);
        obs.on_park(1);
        obs.on_park_depth(1, 2, 1, 100);
        let snap = obs.snapshot(100);
        assert_eq!(snap.shards[1].parked.total, 2);
        assert_eq!(snap.shards[1].parked_depth, 2);
        assert!(snap.to_json().contains("\"parked\""));
        assert!(snap.to_json().contains("\"parked_depth\":2"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("tm_parked_total"));
        assert!(prom.contains("tm_parked_depth"));
    }

    #[test]
    fn sync_crash_is_invisible_to_the_serve_report() {
        let mut obs = state();
        obs.on_crash(1, 3, 9000, 7, 0xdead, 0, false);
        assert!(obs.incidents.is_empty());
        assert!(obs.bundles.is_empty());
        assert_eq!(obs.rec_incidents.len(), 1);
        assert_eq!(obs.rec_incidents[0].close_epoch, Some(9000));
        assert_eq!(obs.rec_bundles.len(), 1);
        assert_eq!(obs.rec_bundles[0].wal_seq, 7);
        assert_eq!(obs.snapshot(9000).shards[1].health, HealthState::Healthy);
    }

    #[test]
    fn async_crash_opens_and_recovery_closes() {
        let mut obs = state();
        obs.on_crash(0, 3, 9000, 7, 0xdead, 2, true);
        assert_eq!(obs.snapshot(9000).shards[0].health, HealthState::ReplicaServing);
        assert_eq!(obs.incidents.len(), 1);
        assert!(obs.incidents[0].close_epoch.is_none());
        obs.on_recovered(0, 5, 15000);
        assert_eq!(obs.incidents[0].close_epoch, Some(15000));
        assert_eq!(obs.snapshot(15000).shards[0].health, HealthState::Healthy);
    }

    #[test]
    fn divergence_and_violations_degrade() {
        let mut obs = state();
        obs.on_diverged(0, 4, 8000, 1);
        assert_eq!(obs.snapshot(8000).shards[0].health, HealthState::Degraded);
        assert_eq!(obs.rec_incidents.len(), 1);
        obs.on_violations(1, 9, 20000, 3);
        assert_eq!(obs.snapshot(20000).shards[1].health, HealthState::Degraded);
        assert_eq!(obs.incidents.len(), 1);
        assert_eq!(obs.incidents[0].close_epoch, Some(20000));
        obs.on_violations(0, 9, 20000, 0);
        assert_eq!(obs.incidents.len(), 1, "zero violations open nothing");
    }

    #[test]
    fn hist_buckets_are_cumulative_in_prometheus_only() {
        let mut h = Hist::new(&[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 555);
    }

    #[test]
    fn flight_ring_is_bounded() {
        let cfg = ObsConfig { flight_epochs: 2, ..ObsConfig::default() };
        let mut obs = ObsState::new(cfg, 1, "STM-VBV", "base", 1);
        for r in 1..=5 {
            obs.on_batch(0, r, r * 1000, &mut rep(100, 1, 0, false));
        }
        obs.on_crash(0, 6, 6000, 9, 0, 0, false);
        let b = &obs.rec_bundles[0];
        assert_eq!(b.frames.len(), 2);
        assert_eq!(b.frames[0].round, 4);
        assert_eq!(b.frames[1].round, 5);
    }

    #[test]
    fn bundle_trace_replays_and_context_carries_witness() {
        let mut obs = state();
        obs.on_batch(0, 1, 1000, &mut rep(100, 1, 0, false));
        obs.on_crash(0, 2, 2000, 3, 0xbeef, 0, false);
        let b = obs.rec_bundles[0].clone().with_witness("TL002", "witness/tl002.sched");
        // Empty event rings still produce a valid, replayable trace doc.
        assert_eq!(b.chrome_trace(), "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}");
        let ctx = b.context();
        assert!(ctx.contains("meta cause crash_recovery"));
        assert!(ctx.contains("meta wal_seq 3"));
        assert!(ctx.contains("meta rule TL002"));
        assert!(ctx.contains("meta witness witness/tl002.sched"));
        assert!(b.to_json().contains("\"witness\":{\"rule\":\"TL002\""));
    }

    #[test]
    fn snapshot_encoders_are_deterministic() {
        let build = || {
            let mut obs = state();
            obs.on_reject(1, 300);
            obs.on_gauges(1, 4, 120);
            obs.on_batch(0, 1, 1000, &mut rep(5000, 10, 3, false));
            obs.on_batch(1, 1, 1000, &mut rep(9000, 8, 9, true));
            obs.snapshot(1000)
        };
        let (a, b) = (build(), build());
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
        let prom = a.to_prometheus();
        assert!(prom.contains("tm_commits_total{shard=\"0\",variant=\"STM-VBV\",mode=\"base\"} 10"));
        assert!(prom.contains(
            "tm_retry_after_bucket{shard=\"1\",variant=\"STM-VBV\",mode=\"base\",le=\"1024\"} 1"
        ));
        assert!(
            prom.contains("tm_retry_after_sum{shard=\"1\",variant=\"STM-VBV\",mode=\"base\"} 300")
        );
        assert!(prom.contains(
            "tm_health{shard=\"1\",variant=\"STM-VBV\",mode=\"base\",state=\"healthy\"} 1"
        ));
        let json = a.to_json();
        assert!(json.contains("\"abort_permille\""));
        assert!(json.contains("\"retry_after\""));
    }
}
