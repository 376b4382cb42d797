//! Sessionized job layer over the router: a [`JobQueue`] of routing
//! [`Job`]s, each advanced one budgeted slice at a time, suspended to a
//! real serialized checkpoint between slices, and audited by the
//! independent verifier on completion (DESIGN.md §13).
//!
//! # State machine
//!
//! ```text
//! Created ──▶ Running ──▶ Suspended(checkpoint) ──▶ Completed
//!                ▲             │        │
//!                └─────────────┘        └──────────▶ Failed
//! ```
//!
//! [`JobQueue::run_round`] advances every runnable job by one slice,
//! fanning the slices over `bgr_core::par::scoped_map`. A slice is:
//! restore the session from the job's checkpoint text (or start it),
//! run one [`RouteSession::step`] under the job's selection quota, then
//! either write a fresh checkpoint (suspension) or finish and audit.
//! **Every suspension round-trips through the serialized codec** —
//! `bgr_io::write_checkpoint` / `bgr_io::parse_checkpoint` — never a
//! kept-alive in-memory session, so the resume path is exercised on
//! every boundary, and a queue can in principle be drained by a
//! different process than the one that filled it.
//!
//! # Streams
//!
//! Each job accumulates a JSONL stream: the deterministic trace-event
//! lines of every slice (serialized at the slice's global `seq` offset,
//! so the concatenation is byte-identical to an uninterrupted run's
//! event lines) interleaved with `{"type":"progress",...}` /
//! `{"type":"done",...}` records at slice boundaries.
//!
//! # Cancellation
//!
//! [`JobQueue::cancel`] is cooperative and lands at the next slice
//! boundary: the in-flight slice (if any) completes and checkpoints,
//! after which the job is skipped by subsequent rounds — parked as
//! `Suspended` with its checkpoint intact. [`JobQueue::reactivate`]
//! clears the flag and the job continues from exactly where it stopped.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bgr_core::probe::CollectingProbe;
use bgr_core::session::{RouteSession, SessionStage, StepOutcome};
use bgr_core::{par, RouteError, Routed, RouterConfig};
use bgr_io::{
    deterministic_event_lines, escape_json, parse_checkpoint, segment_seq_span, write_checkpoint,
    write_trace_jsonl_offset,
};
use bgr_layout::Placement;
use bgr_metrics::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
use bgr_netlist::Circuit;
use bgr_timing::PathConstraint;
use bgr_verify::{audit, AuditReport};

/// Deterministic summary of a *finished* route slice: everything a
/// coordinator needs to build the job's `done` stream record and to
/// rank speculative-portfolio arms, with nothing non-serializable.
///
/// Every field is a pure function of the slice's inputs (checkpoint +
/// quota), so two workers finishing the same lease produce equal
/// verdicts — the property `bgr-net`'s deterministic result acceptance
/// rests on.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishVerdict {
    /// Whether the independent completion audit found no divergence.
    pub audit_clean: bool,
    /// Comparisons the audit performed.
    pub audit_checks: u64,
    /// The audit report's stable one-line `Display`.
    pub audit_line: String,
    /// The residual-violation report's one-line `Display`, when the
    /// route finished best-effort with constraints still violated.
    pub violations_line: Option<String>,
    /// No residual violations (the portfolio's first-rank key).
    pub feasible: bool,
    /// Worst constraint margin in ps (`+∞` with no constraints) — the
    /// portfolio's delay key, larger is better.
    pub worst_margin_ps: f64,
    /// Sum of final channel track maxima — the portfolio's area key,
    /// smaller is better.
    pub area_tracks: u64,
    /// Total routed wirelength in µm (reporting only).
    pub total_length_um: f64,
}

impl FinishVerdict {
    /// Whether this verdict wins over `other` under the portfolio's
    /// total deterministic order: audited feasibility first, then worst
    /// margin (descending — more slack wins), then area tracks
    /// (ascending), then total length (ascending). Ties fall through to
    /// `false` so the caller's arm-index order (ascending) decides —
    /// completing the total order.
    pub fn beats(&self, other: &FinishVerdict) -> bool {
        let ok_self = self.audit_clean && self.feasible;
        let ok_other = other.audit_clean && other.feasible;
        if ok_self != ok_other {
            return ok_self;
        }
        match self.worst_margin_ps.total_cmp(&other.worst_margin_ps) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Equal => {}
        }
        if self.area_tracks != other.area_tracks {
            return self.area_tracks < other.area_tracks;
        }
        self.total_length_um.total_cmp(&other.total_length_um) == std::cmp::Ordering::Less
    }
}

/// What one budgeted slice of a checkpointed session concluded — the
/// transport-agnostic result of [`run_slice`], applied to a [`Job`] by
/// the local queue and shipped over `bgr-net` by remote workers.
#[derive(Debug)]
pub enum SliceOutcome {
    /// The session suspended again: a fresh checkpoint plus the slice's
    /// deterministic event lines (already serialized at the stream's
    /// global `seq` offset).
    Suspended {
        /// Serialized checkpoint of the suspension.
        checkpoint: String,
        /// Stable label of the stage the session parked at.
        stage: &'static str,
        /// Deterministic events emitted across the whole session.
        events_emitted: u64,
        /// Global selections performed across the whole session.
        selections_done: u64,
        /// The slice's `"type":"event"` lines, newline-terminated.
        events_jsonl: String,
    },
    /// The session finished and was audited.
    Finished {
        /// Deterministic events emitted across the whole session.
        events_emitted: u64,
        /// Global selections performed across the whole session.
        selections_done: u64,
        /// The slice's `"type":"event"` lines, newline-terminated.
        events_jsonl: String,
        /// The deterministic completion verdict.
        verdict: FinishVerdict,
        /// The finished route — present only when the slice ran
        /// in-process (never crosses the wire).
        routed: Option<Box<Routed>>,
        /// The full audit report — in-process only, like `routed`.
        report: Option<AuditReport>,
    },
    /// The slice failed structurally.
    Failed {
        /// The structured error.
        error: RouteError,
    },
}

/// Runs one budgeted slice from a serialized checkpoint: parse →
/// resume → one [`RouteSession::step`] → re-checkpoint or finish +
/// independent audit. **This is the single slice execution path** —
/// [`JobQueue`] calls it for local rounds and `bgr-net` workers call it
/// for leased slices, so a distributed drain is byte-identical to a
/// local one by construction, not by parallel maintenance of two
/// pipelines.
///
/// Self-contained: the checkpoint embeds the design, configuration and
/// the global event offset, so `(checkpoint, quota)` fully determines
/// the outcome.
pub fn run_slice(checkpoint: &str, quota: Option<u64>) -> SliceOutcome {
    let snap = match parse_checkpoint(checkpoint) {
        Ok(snap) => snap,
        Err(e) => {
            return SliceOutcome::Failed {
                error: RouteError::Checkpoint {
                    message: e.to_string(),
                },
            }
        }
    };
    let start_events = snap.events_emitted;
    let constraints = snap.constraints.clone();
    let config = snap.config.clone();
    let mut session = match RouteSession::resume(snap, CollectingProbe::new()) {
        Ok(s) => s,
        Err(e) => return SliceOutcome::Failed { error: e },
    };
    let outcome = match session.step(quota) {
        Ok(o) => o,
        Err(e) => return SliceOutcome::Failed { error: e },
    };
    match outcome {
        StepOutcome::Suspended => {
            let snap = session.snapshot();
            let stage = snap.stage.label();
            let events_emitted = snap.events_emitted;
            let selections_done = session.selections_done();
            let checkpoint = write_checkpoint(&snap);
            let trace = session.into_probe().finish();
            SliceOutcome::Suspended {
                checkpoint,
                stage,
                events_emitted,
                selections_done,
                events_jsonl: deterministic_event_lines(&write_trace_jsonl_offset(
                    &trace,
                    start_events,
                )),
            }
        }
        StepOutcome::Ready => {
            let events_emitted = session.events_emitted();
            let selections_done = session.selections_done();
            match session.finish() {
                Ok((routed, probe)) => {
                    let trace = probe.finish();
                    let events_jsonl =
                        deterministic_event_lines(&write_trace_jsonl_offset(&trace, start_events));
                    let report = audit(
                        &routed.circuit,
                        &routed.placement,
                        &constraints,
                        &config,
                        &routed.result,
                    );
                    let verdict = FinishVerdict {
                        audit_clean: report.is_clean(),
                        audit_checks: report.total_checks(),
                        audit_line: report.to_string(),
                        violations_line: routed.result.violations.as_ref().map(|v| v.to_string()),
                        feasible: routed.result.violations.is_none(),
                        worst_margin_ps: routed.result.timing.worst_margin_ps(),
                        area_tracks: routed
                            .result
                            .channel_tracks
                            .iter()
                            .map(|&t| t.max(0) as u64)
                            .sum(),
                        total_length_um: routed.result.total_length_um,
                    };
                    SliceOutcome::Finished {
                        events_emitted,
                        selections_done,
                        events_jsonl,
                        verdict,
                        routed: Some(Box::new(routed)),
                        report: Some(report),
                    }
                }
                Err(e) => SliceOutcome::Failed { error: e },
            }
        }
    }
}

/// Admission limits for a [`JobQueue`] — the serve layer's half of the
/// overload-governance ladder (DESIGN.md §15).
///
/// Every field is `None` by default, which makes the policy **provably
/// inert**: an ungoverned queue accepts exactly what it always did and
/// produces byte-identical streams. Set a limit and the corresponding
/// intake check turns on; a trip is a structured [`Rejected`] verdict,
/// never a panic and never a silent drop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Maximum live (non-terminal) jobs the queue will hold.
    pub max_jobs: Option<usize>,
    /// Maximum total serialized checkpoint bytes held by live jobs at
    /// admission time. A queue already holding this much parked state
    /// refuses new work until something drains.
    pub max_checkpoint_bytes: Option<u64>,
    /// Wall-clock budget per admitted job, in milliseconds, measured
    /// from its first slice materialization. Propagated into every
    /// [`LeaseSpec`] so remote workers abandon slices whose budget has
    /// already expired; an expired job fails with
    /// [`RouteError::DeadlineExpired`] instead of consuming more fleet.
    pub deadline_ms: Option<u64>,
}

impl QueuePolicy {
    /// The default no-limits policy.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Whether no limit is configured (the inert state).
    pub fn is_unbounded(&self) -> bool {
        self.max_jobs.is_none() && self.max_checkpoint_bytes.is_none() && self.deadline_ms.is_none()
    }
}

/// Structured admission verdict from [`JobQueue::try_submit`]: why the
/// queue refused a job. Callers (the serve binary, the coordinator)
/// surface the reason instead of crashing or blocking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The queue already holds [`QueuePolicy::max_jobs`] live jobs.
    QueueFull {
        /// The configured cap.
        max_jobs: usize,
        /// Live jobs at the moment of refusal.
        live: usize,
    },
    /// Live jobs already hold [`QueuePolicy::max_checkpoint_bytes`] of
    /// serialized checkpoint state.
    CheckpointBytes {
        /// The configured cap.
        max_bytes: u64,
        /// Bytes held at the moment of refusal.
        held: u64,
    },
}

impl Rejected {
    /// Stable kebab-case reason tag (metrics labels, wire details).
    pub fn code(&self) -> &'static str {
        match self {
            Self::QueueFull { .. } => "queue-full",
            Self::CheckpointBytes { .. } => "checkpoint-bytes",
        }
    }
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { max_jobs, live } => {
                write!(f, "queue full: {live} live jobs at cap {max_jobs}")
            }
            Self::CheckpointBytes { max_bytes, held } => {
                write!(
                    f,
                    "checkpoint budget exhausted: {held} bytes held at cap {max_bytes}"
                )
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// The serve layer's operational metrics, registered on a shared
/// [`MetricsRegistry`] and updated at slice boundaries.
///
/// Everything here is *diagnostic*: the registry observes the queue
/// from the outside and is never consulted by routing decisions, so
/// attaching one changes no deterministic observable — job streams,
/// checkpoints and audits are byte-identical with and without metrics
/// (asserted by `tests/metrics_determinism.rs`). Wall clock touches
/// exactly one cell, `slice_latency_us`.
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Runnable jobs at the start of the most recent round.
    pub queue_depth: GaugeHandle,
    /// Wall-clock of one job slice, µs (the only wall-clock metric).
    pub slice_latency_us: HistogramHandle,
    /// Slices executed across all jobs.
    pub slices_total: CounterHandle,
    /// Deletion-loop selections performed across all jobs.
    pub selections_total: CounterHandle,
    /// Deterministic trace events emitted across all jobs.
    pub events_total: CounterHandle,
    /// Serialized checkpoint bytes written at suspensions.
    pub checkpoint_bytes_total: CounterHandle,
    /// Completion audits where every invariant held.
    pub audit_clean_total: CounterHandle,
    /// Completion audits with at least one divergence.
    pub audit_failed_total: CounterHandle,
    /// Cooperative cancellation requests accepted.
    pub cancellations_total: CounterHandle,
    /// Jobs that reached `Completed`.
    pub jobs_completed_total: CounterHandle,
    /// Jobs that reached `Failed` (structural error or failed audit).
    pub jobs_failed_total: CounterHandle,
    /// Submissions refused by the admission policy: queue full.
    pub rejected_queue_full_total: CounterHandle,
    /// Submissions refused by the admission policy: checkpoint budget.
    pub rejected_checkpoint_bytes_total: CounterHandle,
    /// Jobs failed because their wall-clock deadline budget expired.
    pub deadline_missed_total: CounterHandle,
}

impl ServeMetrics {
    /// Registers the serve metric family on `registry`. Idempotent:
    /// registering twice attaches to the same underlying cells.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            queue_depth: registry.gauge(
                "bgr_queue_depth",
                "Runnable jobs at the start of the most recent round",
                &[],
            ),
            slice_latency_us: registry.histogram(
                "bgr_slice_latency_us",
                "Wall-clock latency of one job slice in microseconds",
                &[],
            ),
            slices_total: registry.counter("bgr_slices_total", "Job slices executed", &[]),
            selections_total: registry.counter(
                "bgr_selections_total",
                "Deletion-loop selections performed across all jobs",
                &[],
            ),
            events_total: registry.counter(
                "bgr_trace_events_total",
                "Deterministic trace events emitted across all jobs",
                &[],
            ),
            checkpoint_bytes_total: registry.counter(
                "bgr_checkpoint_bytes_total",
                "Serialized checkpoint bytes written at suspensions",
                &[],
            ),
            audit_clean_total: registry.counter(
                "bgr_audit_total",
                "Completion audits by verdict",
                &[("verdict", "clean")],
            ),
            audit_failed_total: registry.counter(
                "bgr_audit_total",
                "Completion audits by verdict",
                &[("verdict", "failed")],
            ),
            cancellations_total: registry.counter(
                "bgr_cancellations_total",
                "Cooperative cancellation requests accepted",
                &[],
            ),
            jobs_completed_total: registry.counter(
                "bgr_jobs_terminal_total",
                "Jobs that reached a terminal state",
                &[("state", "completed")],
            ),
            jobs_failed_total: registry.counter(
                "bgr_jobs_terminal_total",
                "Jobs that reached a terminal state",
                &[("state", "failed")],
            ),
            rejected_queue_full_total: registry.counter(
                "bgr_jobs_rejected_total",
                "Submissions refused by the admission policy, by reason",
                &[("reason", "queue-full")],
            ),
            rejected_checkpoint_bytes_total: registry.counter(
                "bgr_jobs_rejected_total",
                "Submissions refused by the admission policy, by reason",
                &[("reason", "checkpoint-bytes")],
            ),
            deadline_missed_total: registry.counter(
                "bgr_deadline_missed_total",
                "Jobs failed because their wall-clock deadline budget expired",
                &[],
            ),
        }
    }
}

/// Where a job stands in its lifecycle (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Submitted; no slice has run yet.
    Created,
    /// A slice is executing right now (transient — never observed
    /// between [`JobQueue::run_round`] calls).
    Running,
    /// Parked at a checkpoint; the next round resumes it (unless
    /// cancelled).
    Suspended,
    /// Finished with a clean independent audit.
    Completed,
    /// A structured error ([`Job::error`]) or a failed audit
    /// ([`Job::audit`]) stopped the job.
    Failed,
}

impl SessionState {
    /// Stable snake_case label (used in stream records).
    pub fn label(&self) -> &'static str {
        match self {
            Self::Created => "created",
            Self::Running => "running",
            Self::Suspended => "suspended",
            Self::Completed => "completed",
            Self::Failed => "failed",
        }
    }

    /// Whether the job can never advance again.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Self::Completed | Self::Failed)
    }
}

/// One routing session managed by the queue.
#[derive(Debug)]
pub struct Job {
    name: String,
    circuit: Circuit,
    placement: Placement,
    constraints: Vec<PathConstraint>,
    config: RouterConfig,
    /// Max deletion-loop selections per slice (`None` = run each stage
    /// to its natural end).
    slice_quota: Option<u64>,
    /// Wall-clock budget in ms from the governing [`QueuePolicy`]
    /// (`None` = no deadline — the inert default).
    deadline_ms: Option<u64>,
    /// When the budget runs out; armed at first materialization.
    deadline_at: Option<Instant>,
    /// Remaining-budget value frozen into the [`LeaseSpec`] of the
    /// current slice, keyed by slice index — expiry-driven re-grants
    /// must hand out the *identical* spec (DESIGN.md §15 rule 3), so
    /// the remaining budget is computed once per slice, not per grant.
    spec_deadline: Option<(u64, u64)>,
    state: SessionState,
    checkpoint: Option<String>,
    stream: String,
    cancelled: bool,
    stage: &'static str,
    slices: u64,
    events_emitted: u64,
    selections_done: u64,
    error: Option<RouteError>,
    audit: Option<AuditReport>,
    routed: Option<Routed>,
    verdict: Option<FinishVerdict>,
}

impl Job {
    /// The submitted name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The serialized checkpoint of the last suspension, if any.
    pub fn checkpoint(&self) -> Option<&str> {
        self.checkpoint.as_deref()
    }

    /// The accumulated JSONL stream (trace events + progress records).
    pub fn stream(&self) -> &str {
        &self.stream
    }

    /// Whether [`JobQueue::cancel`] parked this job.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Stable label of the pipeline stage the job is parked at.
    pub fn stage(&self) -> &'static str {
        self.stage
    }

    /// Slices executed so far.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// Deterministic trace events emitted across all slices.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Deletion-loop selections performed across all slices.
    pub fn selections_done(&self) -> u64 {
        self.selections_done
    }

    /// The structured error that failed the job, if one did.
    pub fn error(&self) -> Option<&RouteError> {
        self.error.as_ref()
    }

    /// The completion audit (present on `Completed` and on `Failed`
    /// when the route finished but the audit flagged it).
    pub fn audit(&self) -> Option<&AuditReport> {
        self.audit.as_ref()
    }

    /// The finished route (present once the session completed, even if
    /// the audit then failed it). Absent when the finishing slice ran on
    /// a remote worker — the wire ships the [`FinishVerdict`] instead.
    pub fn routed(&self) -> Option<&Routed> {
        self.routed.as_ref()
    }

    /// The deterministic completion verdict (present once the session
    /// finished, locally or remotely).
    pub fn verdict(&self) -> Option<&FinishVerdict> {
        self.verdict.as_ref()
    }

    /// The job's wall-clock budget in milliseconds, when governed.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    fn runnable(&self) -> bool {
        !self.state.is_terminal() && !self.cancelled
    }

    fn deadline_expired(&self) -> bool {
        self.deadline_at.is_some_and(|at| Instant::now() >= at)
    }

    fn fail(&mut self, err: RouteError) {
        self.stream_record(&format!(
            "{{\"type\":\"done\",\"slice\":{},\"state\":\"failed\"}}",
            self.slices
        ));
        self.error = Some(err);
        self.state = SessionState::Failed;
    }

    fn stream_record(&mut self, line: &str) {
        self.stream.push_str(line);
        self.stream.push('\n');
    }

    fn progress_record(&mut self) {
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"type\":\"progress\",\"slice\":{},\"stage\":\"{}\",\"selections\":{},\"events\":{}}}",
            self.slices, self.stage, self.selections_done, self.events_emitted
        );
        self.stream_record(&line);
    }

    /// Starts the session and parks it at a step-0 checkpoint without
    /// advancing, so *every* slice — local round or remote lease — runs
    /// from a checkpoint through [`run_slice`]. Setup events (feed
    /// assignment, graph build) land in the stream at offset 0, exactly
    /// where the monolithic run puts them; the first real slice then
    /// continues at the checkpoint's embedded `seq` offset, keeping the
    /// concatenated stream byte-identical to the pre-distributed path.
    fn materialize_checkpoint(&mut self) -> Result<(), RouteError> {
        // The deadline clock starts at the job's first activity, not at
        // submission, so a job parked behind a long backlog gets its
        // full budget once it finally runs.
        if self.deadline_at.is_none() {
            if let Some(ms) = self.deadline_ms {
                self.deadline_at = Some(Instant::now() + Duration::from_millis(ms));
            }
        }
        if self.checkpoint.is_some() {
            return Ok(());
        }
        let session = RouteSession::start(
            self.config.clone(),
            self.circuit.clone(),
            self.placement.clone(),
            self.constraints.clone(),
            CollectingProbe::new(),
        )?;
        let snap = session.snapshot();
        self.stage = snap.stage.label();
        self.events_emitted = snap.events_emitted;
        self.selections_done = session.selections_done();
        self.checkpoint = Some(write_checkpoint(&snap));
        let trace = session.into_probe().finish();
        self.stream
            .push_str(&deterministic_event_lines(&write_trace_jsonl_offset(
                &trace, 0,
            )));
        Ok(())
    }

    /// Folds a [`SliceOutcome`] into the job — the one place slice
    /// results become job state, shared by the local round path and
    /// [`JobQueue::apply_remote`].
    fn apply_outcome(&mut self, out: SliceOutcome) {
        match out {
            SliceOutcome::Suspended {
                checkpoint,
                stage,
                events_emitted,
                selections_done,
                events_jsonl,
            } => {
                self.slices += 1;
                self.stage = stage;
                self.events_emitted = events_emitted;
                self.selections_done = selections_done;
                self.checkpoint = Some(checkpoint);
                self.stream.push_str(&events_jsonl);
                self.progress_record();
                self.state = SessionState::Suspended;
            }
            SliceOutcome::Finished {
                events_emitted,
                selections_done,
                events_jsonl,
                verdict,
                routed,
                report,
            } => {
                self.slices += 1;
                self.stage = SessionStage::Finished.label();
                self.events_emitted = events_emitted;
                self.selections_done = selections_done;
                self.checkpoint = None;
                self.stream.push_str(&events_jsonl);
                let clean = verdict.audit_clean;
                // One-line `Display`s of the audit and (when present)
                // the residual-violation report embed as single JSON
                // strings — both deterministic, so the stream stays
                // thread-count invariant, and both carried by the
                // verdict so a remotely finished job writes the same
                // bytes a local finish would.
                let mut line = format!(
                    "{{\"type\":\"done\",\"slice\":{},\"state\":\"{}\",\"audit_clean\":{clean},\"checks\":{},\"audit\":\"{}\"",
                    self.slices,
                    if clean { "completed" } else { "failed" },
                    verdict.audit_checks,
                    escape_json(&verdict.audit_line),
                );
                if let Some(v) = &verdict.violations_line {
                    let _ = write!(line, ",\"violations\":\"{}\"", escape_json(v));
                }
                line.push('}');
                self.stream_record(&line);
                self.audit = report;
                self.routed = routed.map(|b| *b);
                self.verdict = Some(verdict);
                self.state = if clean {
                    SessionState::Completed
                } else {
                    SessionState::Failed
                };
            }
            SliceOutcome::Failed { error } => self.fail(error),
        }
    }

    /// Runs one slice in-process: materialize the first checkpoint if
    /// needed, then [`run_slice`] → [`Job::apply_outcome`]. Local
    /// rounds and remote leases thus execute the identical slice code.
    fn advance_slice(&mut self) {
        self.state = SessionState::Running;
        if let Err(e) = self.materialize_checkpoint() {
            return self.fail(e);
        }
        if self.deadline_expired() {
            return self.fail(RouteError::DeadlineExpired {
                budget_ms: self.deadline_ms.unwrap_or(0),
            });
        }
        // A missing checkpoint after a successful materialization is an
        // internal invariant violation; it degrades this one job with a
        // structured error instead of tearing the process down.
        let Some(checkpoint) = self.checkpoint.clone() else {
            return self.fail(RouteError::Internal {
                phase: "serve",
                message: "runnable job has no checkpoint after materialization".into(),
            });
        };
        let out = run_slice(&checkpoint, self.slice_quota);
        self.apply_outcome(out);
    }
}

/// A leasable unit of work: everything a worker needs to run one slice
/// of a job, with no reference back to in-process state — the
/// checkpoint embeds the design and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseSpec {
    /// Queue id of the job this lease advances.
    pub job: usize,
    /// The slice index this lease will produce (the job's current
    /// [`Job::slices`] count). Results for any other index are stale
    /// and rejected by [`JobQueue::apply_remote`].
    pub slice: u64,
    /// The job's per-slice selection quota.
    pub quota: Option<u64>,
    /// Remaining wall-clock budget in ms under the queue's
    /// [`QueuePolicy::deadline_ms`], frozen per slice so re-grants are
    /// identical. `Some(0)` means the budget already expired: a worker
    /// receiving this abandons the slice with
    /// [`RouteError::DeadlineExpired`] instead of routing. `None` = no
    /// deadline governance (the inert default).
    pub deadline_ms: Option<u64>,
    /// The serialized checkpoint the slice resumes from.
    pub checkpoint: String,
}

/// A queue of routing jobs advanced in budgeted, checkpointed slices.
#[derive(Debug, Default)]
pub struct JobQueue {
    jobs: Vec<Job>,
    metrics: Option<ServeMetrics>,
    policy: QueuePolicy,
}

impl JobQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue reporting into `registry` (see [`ServeMetrics`]).
    pub fn with_metrics(registry: &MetricsRegistry) -> Self {
        Self {
            jobs: Vec::new(),
            metrics: Some(ServeMetrics::register(registry)),
            policy: QueuePolicy::default(),
        }
    }

    /// Attaches (or replaces) the queue's metrics sink.
    pub fn attach_metrics(&mut self, metrics: ServeMetrics) {
        self.metrics = Some(metrics);
    }

    /// Installs (or replaces) the queue's admission policy. Only
    /// [`JobQueue::try_submit`] consults it; jobs already admitted keep
    /// the deadline they were stamped with.
    pub fn set_policy(&mut self, policy: QueuePolicy) {
        self.policy = policy;
    }

    /// The governing admission policy (unbounded by default).
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Live (non-terminal) jobs currently held.
    pub fn live_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| !j.state.is_terminal()).count()
    }

    /// Serialized checkpoint bytes held by live jobs — the quantity
    /// [`QueuePolicy::max_checkpoint_bytes`] bounds.
    pub fn held_checkpoint_bytes(&self) -> u64 {
        self.jobs
            .iter()
            .filter(|j| !j.state.is_terminal())
            .filter_map(|j| j.checkpoint.as_ref())
            .map(|c| c.len() as u64)
            .sum()
    }

    fn admission_verdict(&self) -> Result<(), Rejected> {
        if let Some(max_jobs) = self.policy.max_jobs {
            let live = self.live_jobs();
            if live >= max_jobs {
                return Err(Rejected::QueueFull { max_jobs, live });
            }
        }
        if let Some(max_bytes) = self.policy.max_checkpoint_bytes {
            let held = self.held_checkpoint_bytes();
            if held >= max_bytes {
                return Err(Rejected::CheckpointBytes { max_bytes, held });
            }
        }
        Ok(())
    }

    fn count_rejection(&self, verdict: &Rejected) {
        if let Some(m) = &self.metrics {
            match verdict {
                Rejected::QueueFull { .. } => m.rejected_queue_full_total.inc(),
                Rejected::CheckpointBytes { .. } => m.rejected_checkpoint_bytes_total.inc(),
            }
        }
    }

    /// Submits a job; returns its id (stable index into the queue).
    /// `slice_quota` bounds the deletion-loop selections a single slice
    /// may perform (`None` = whole stages per slice).
    ///
    /// This is the ungoverned intake: the [`QueuePolicy`] is *not*
    /// consulted and no deadline is stamped, so pre-governance callers
    /// keep byte-identical behavior. Bounded intake goes through
    /// [`JobQueue::try_submit`].
    pub fn submit(
        &mut self,
        name: impl Into<String>,
        circuit: Circuit,
        placement: Placement,
        constraints: Vec<PathConstraint>,
        config: RouterConfig,
        slice_quota: Option<u64>,
    ) -> usize {
        self.push_job(
            name.into(),
            circuit,
            placement,
            constraints,
            config,
            slice_quota,
            None,
        )
    }

    /// Governed intake: checks the [`QueuePolicy`] and either admits
    /// the job (stamping the policy's deadline budget on it) or returns
    /// a structured [`Rejected`] verdict. With the default unbounded
    /// policy this is exactly [`JobQueue::submit`].
    ///
    /// # Errors
    ///
    /// [`Rejected`] when a configured limit is at capacity; the queue
    /// is unchanged and the refusal is counted in
    /// `bgr_jobs_rejected_total` when metrics are attached.
    #[allow(clippy::too_many_arguments)]
    pub fn try_submit(
        &mut self,
        name: impl Into<String>,
        circuit: Circuit,
        placement: Placement,
        constraints: Vec<PathConstraint>,
        config: RouterConfig,
        slice_quota: Option<u64>,
    ) -> Result<usize, Rejected> {
        if let Err(verdict) = self.admission_verdict() {
            self.count_rejection(&verdict);
            return Err(verdict);
        }
        Ok(self.push_job(
            name.into(),
            circuit,
            placement,
            constraints,
            config,
            slice_quota,
            self.policy.deadline_ms,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn push_job(
        &mut self,
        name: String,
        circuit: Circuit,
        placement: Placement,
        constraints: Vec<PathConstraint>,
        config: RouterConfig,
        slice_quota: Option<u64>,
        deadline_ms: Option<u64>,
    ) -> usize {
        self.jobs.push(Job {
            name,
            circuit,
            placement,
            constraints,
            config,
            slice_quota,
            deadline_ms,
            deadline_at: None,
            spec_deadline: None,
            state: SessionState::Created,
            checkpoint: None,
            stream: String::new(),
            cancelled: false,
            stage: "setup",
            slices: 0,
            events_emitted: 0,
            selections_done: 0,
            error: None,
            audit: None,
            routed: None,
            verdict: None,
        });
        self.jobs.len() - 1
    }

    /// The job behind an id.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn job(&self, id: usize) -> &Job {
        &self.jobs[id]
    }

    /// All jobs, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Requests cooperative cancellation: the job stops at its next
    /// slice boundary and parks as `Suspended` with its checkpoint
    /// intact. No-op on terminal jobs.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn cancel(&mut self, id: usize) {
        if !self.jobs[id].state.is_terminal() {
            if !self.jobs[id].cancelled {
                if let Some(m) = &self.metrics {
                    m.cancellations_total.inc();
                }
            }
            self.jobs[id].cancelled = true;
        }
    }

    /// Clears a cancellation; the job resumes from its checkpoint on
    /// the next round.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn reactivate(&mut self, id: usize) {
        self.jobs[id].cancelled = false;
    }

    /// Whether no job can advance (every job terminal or cancelled).
    pub fn settled(&self) -> bool {
        self.jobs.iter().all(|j| !j.runnable())
    }

    /// Advances every runnable job by one slice, fanning the slices
    /// over `threads` workers. Returns how many jobs advanced.
    ///
    /// Slices are independent (each owns its job's state), and
    /// `scoped_map` preserves submission order, so round outcomes are
    /// deterministic for any thread count.
    pub fn run_round(&mut self, threads: usize) -> usize {
        let metrics = self.metrics.clone();
        let mut active: Vec<&mut Job> = self.jobs.iter_mut().filter(|j| j.runnable()).collect();
        if let Some(m) = &metrics {
            m.queue_depth.set(active.len() as i64);
        }
        if active.is_empty() {
            return 0;
        }
        par::scoped_map(threads, &mut active, |job| match &metrics {
            None => job.advance_slice(),
            Some(m) => {
                let before_selections = job.selections_done;
                let before_events = job.events_emitted;
                let had_audit = job.audit.is_some();
                let start = Instant::now();
                job.advance_slice();
                m.slice_latency_us
                    .observe(start.elapsed().as_micros() as u64);
                m.slices_total.inc();
                m.selections_total
                    .add(job.selections_done - before_selections);
                m.events_total.add(job.events_emitted - before_events);
                if let Some(cp) = &job.checkpoint {
                    m.checkpoint_bytes_total.add(cp.len() as u64);
                }
                if !had_audit {
                    if let Some(report) = &job.audit {
                        if report.is_clean() {
                            m.audit_clean_total.inc();
                        } else {
                            m.audit_failed_total.inc();
                        }
                    }
                }
                match job.state {
                    SessionState::Completed => m.jobs_completed_total.inc(),
                    SessionState::Failed => {
                        m.jobs_failed_total.inc();
                        if matches!(job.error, Some(RouteError::DeadlineExpired { .. })) {
                            m.deadline_missed_total.inc();
                        }
                    }
                    _ => {}
                }
            }
        });
        active.len()
    }

    /// Rounds until the queue settles; returns the number of rounds.
    pub fn run(&mut self, threads: usize) -> usize {
        let mut rounds = 0;
        while self.run_round(threads) > 0 {
            rounds += 1;
        }
        rounds
    }

    /// Submits a job that starts from an existing serialized checkpoint
    /// instead of raw design inputs — the speculative-portfolio path:
    /// fan one suspended checkpoint under several configuration arms
    /// (see `bgr_io::reconfigure_checkpoint`) and race them.
    ///
    /// The job parks `Suspended` with its counters adopted from the
    /// snapshot; its stream begins at the checkpoint (earlier slices
    /// belong to whichever job produced it).
    ///
    /// # Errors
    ///
    /// Structured [`RouteError::Checkpoint`] when `checkpoint` does not
    /// parse.
    pub fn submit_checkpoint(
        &mut self,
        name: impl Into<String>,
        checkpoint: &str,
        slice_quota: Option<u64>,
    ) -> Result<usize, RouteError> {
        let snap = parse_checkpoint(checkpoint).map_err(|e| RouteError::Checkpoint {
            message: e.to_string(),
        })?;
        self.jobs.push(Job {
            name: name.into(),
            circuit: snap.circuit,
            placement: snap.placement,
            constraints: snap.constraints,
            config: snap.config,
            slice_quota,
            deadline_ms: None,
            deadline_at: None,
            spec_deadline: None,
            state: SessionState::Suspended,
            checkpoint: Some(checkpoint.to_string()),
            stream: String::new(),
            cancelled: false,
            stage: snap.stage.label(),
            slices: 0,
            events_emitted: snap.events_emitted,
            selections_done: snap.stats.selection_log.len() as u64,
            error: None,
            audit: None,
            routed: None,
            verdict: None,
        });
        Ok(self.jobs.len() - 1)
    }

    /// The next leasable slice of job `id`, materializing the first
    /// checkpoint of a `Created` job on demand. Returns `Ok(None)` for
    /// terminal or cancelled jobs.
    ///
    /// Leasing consumes nothing: the identical spec is returned until a
    /// result for it is applied, which is what makes expiry-driven
    /// re-leasing deterministic — every worker handed this lease
    /// computes the same [`SliceOutcome`].
    ///
    /// # Errors
    ///
    /// Propagates the structured error when materializing the first
    /// checkpoint fails (the job is failed as a side effect, exactly as
    /// a local round would).
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn lease_spec(&mut self, id: usize) -> Result<Option<LeaseSpec>, RouteError> {
        if !self.jobs[id].runnable() {
            return Ok(None);
        }
        if self.jobs[id].checkpoint.is_none() {
            if let Err(e) = self.jobs[id].materialize_checkpoint() {
                self.jobs[id].fail(e.clone());
                if let Some(m) = &self.metrics {
                    m.jobs_failed_total.inc();
                }
                return Err(e);
            }
        }
        let job = &mut self.jobs[id];
        // Freeze the remaining deadline budget once per slice: an
        // expiry-driven re-grant of the same slice must hand out the
        // byte-identical spec (DESIGN.md §15 rule 3), so the wall clock
        // is consulted only when the slice index moves.
        let deadline_ms = job.deadline_at.map(|at| {
            let slice = job.slices;
            match job.spec_deadline {
                Some((s, ms)) if s == slice => ms,
                _ => {
                    let ms = at
                        .saturating_duration_since(Instant::now())
                        .as_millis()
                        .min(u128::from(u64::MAX)) as u64;
                    job.spec_deadline = Some((slice, ms));
                    ms
                }
            }
        });
        let Some(checkpoint) = job.checkpoint.clone() else {
            // Invariant violation (runnable job, no checkpoint after a
            // successful materialization): degrade the one job with a
            // structured error instead of panicking the coordinator.
            let e = RouteError::Internal {
                phase: "serve",
                message: "runnable job has no checkpoint after materialization".into(),
            };
            self.jobs[id].fail(e.clone());
            if let Some(m) = &self.metrics {
                m.jobs_failed_total.inc();
            }
            return Err(e);
        };
        let job = &self.jobs[id];
        Ok(Some(LeaseSpec {
            job: id,
            slice: job.slices,
            quota: job.slice_quota,
            deadline_ms,
            checkpoint,
        }))
    }

    /// Applies a slice outcome computed elsewhere (a worker draining a
    /// lease). Accepted only when `slice` equals the job's current
    /// [`Job::slices`] count and the job can still advance — duplicate
    /// results from expired-and-reassigned leases and stale
    /// re-deliveries return `false` and change nothing. Acceptance is
    /// deterministic despite racing workers because any worker's
    /// outcome for a given `(checkpoint, quota)` lease is
    /// byte-identical, so *which* duplicate lands first cannot matter.
    ///
    /// The outcome's trace segment is validated with
    /// [`bgr_io::segment_seq_span`] before splicing: every line must be
    /// a parsable `"type":"event"` record whose `seq` numbers
    /// contiguously continue the job's stream (first = the job's
    /// [`Job::events_emitted`], last + 1 = the outcome's
    /// `events_emitted`). A truncated, reordered, or otherwise damaged
    /// segment is rejected (`false`, job unchanged and still leasable)
    /// instead of silently corrupting the stream.
    ///
    /// Updates the queue's metrics exactly as a local round would,
    /// except `bgr_slice_latency_us`: a remote slice's wall clock is
    /// observed by the worker's own registry and folded in via
    /// snapshot merging, not re-measured here.
    ///
    /// # Panics
    ///
    /// Panics on an id [`JobQueue::submit`] never returned.
    pub fn apply_remote(&mut self, id: usize, slice: u64, out: SliceOutcome) -> bool {
        {
            let job = &self.jobs[id];
            if !job.runnable() || slice != job.slices {
                return false;
            }
            if let SliceOutcome::Suspended {
                events_emitted,
                events_jsonl,
                ..
            }
            | SliceOutcome::Finished {
                events_emitted,
                events_jsonl,
                ..
            } = &out
            {
                let contiguous = match segment_seq_span(events_jsonl) {
                    Ok(Some((first, last))) => {
                        first == job.events_emitted && last.checked_add(1) == Some(*events_emitted)
                    }
                    Ok(None) => *events_emitted == job.events_emitted,
                    Err(_) => false,
                };
                if !contiguous {
                    return false;
                }
            }
        }
        let job = &mut self.jobs[id];
        let before_selections = job.selections_done;
        let before_events = job.events_emitted;
        let had_verdict = job.verdict.is_some();
        job.apply_outcome(out);
        if let Some(m) = &self.metrics {
            let job = &self.jobs[id];
            m.slices_total.inc();
            m.selections_total
                .add(job.selections_done - before_selections);
            m.events_total.add(job.events_emitted - before_events);
            if let Some(cp) = &job.checkpoint {
                m.checkpoint_bytes_total.add(cp.len() as u64);
            }
            if !had_verdict {
                if let Some(verdict) = &job.verdict {
                    if verdict.audit_clean {
                        m.audit_clean_total.inc();
                    } else {
                        m.audit_failed_total.inc();
                    }
                }
            }
            match job.state {
                SessionState::Completed => m.jobs_completed_total.inc(),
                SessionState::Failed => {
                    m.jobs_failed_total.inc();
                    if matches!(job.error, Some(RouteError::DeadlineExpired { .. })) {
                        m.deadline_missed_total.inc();
                    }
                }
                _ => {}
            }
        }
        true
    }

    /// Replays journaled slice outcomes in order, applying each through
    /// [`JobQueue::apply_remote`]'s full validation — so a torn,
    /// duplicated, or stale record is counted and skipped, never
    /// spliced. The queue must hold the same jobs (same submission
    /// order) as the run that produced the journal; after replay it is
    /// in exactly the state the original coordinator had when it last
    /// journaled, and the drain can resume from there.
    pub fn replay(
        &mut self,
        outcomes: impl IntoIterator<Item = (usize, u64, SliceOutcome)>,
    ) -> ReplayStats {
        let mut stats = ReplayStats::default();
        for (id, slice, out) in outcomes {
            if id < self.jobs.len() {
                // The run that wrote the journal materialized the first
                // checkpoint (emitting the deterministic setup events)
                // before any slice executed; replay must do the same or
                // the first record's event span has nothing to anchor
                // to. A materialization failure fails the job exactly
                // as it would have live, and the record lands stale.
                let _ = self.lease_spec(id);
            }
            if id < self.jobs.len() && self.apply_remote(id, slice, out) {
                stats.applied += 1;
            } else {
                stats.stale += 1;
            }
        }
        stats
    }
}

/// What a journal replay applied (see [`JobQueue::replay`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records that advanced a job.
    pub applied: u64,
    /// Records rejected by validation (stale duplicates, unknown jobs).
    pub stale: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_core::GlobalRouter;
    use bgr_io::write_trace_jsonl;

    fn small_case(seed: u64) -> (Circuit, Placement, Vec<PathConstraint>) {
        let params = bgr_gen::GenParams::small(seed);
        let design = bgr_gen::generate(&params);
        let placement = bgr_gen::place_design(&design, &params, bgr_gen::PlacementStyle::EvenFeed);
        (design.circuit, placement, design.constraints)
    }

    /// Event lines of the uninterrupted route of the same inputs.
    fn monolithic_events(
        circuit: &Circuit,
        placement: &Placement,
        cons: &[PathConstraint],
        config: &RouterConfig,
    ) -> String {
        let (_, trace) = GlobalRouter::new(config.clone())
            .route_traced(circuit.clone(), placement.clone(), cons.to_vec())
            .unwrap();
        deterministic_event_lines(&write_trace_jsonl(&trace))
    }

    #[test]
    fn queue_drains_jobs_to_audited_completion() {
        let mut q = JobQueue::new();
        let config = RouterConfig::default();
        let mut want = Vec::new();
        for (i, seed) in [3u64, 11, 42].iter().enumerate() {
            let (c, p, k) = small_case(*seed);
            want.push(monolithic_events(&c, &p, &k, &config));
            let quota = if i == 0 { None } else { Some(4 * i as u64) };
            q.submit(format!("job{i}"), c, p, k, config.clone(), quota);
        }
        let rounds = q.run(4);
        assert!(rounds > 1, "quota'd jobs must take multiple rounds");
        for (i, job) in q.jobs().iter().enumerate() {
            assert_eq!(job.state(), SessionState::Completed, "{:?}", job.error());
            assert!(job.audit().unwrap().is_clean());
            assert!(job.routed().is_some());
            assert!(
                job.checkpoint().is_none(),
                "completed job keeps no checkpoint"
            );
            // The concatenated per-slice event lines are byte-identical
            // to the uninterrupted run's — seq numbers included.
            assert_eq!(
                deterministic_event_lines(job.stream()),
                want[i],
                "job {i} stream diverged"
            );
            assert!(job.stream().contains("\"type\":\"done\""));
            // The audit's stable one-line `Display` is embedded in the
            // done record verbatim.
            let want_audit = format!(
                "\"audit\":\"{}\"",
                escape_json(&job.audit().unwrap().to_string())
            );
            assert!(job.stream().contains(&want_audit), "{}", job.stream());
            assert!(job.stream().contains("\"audit\":\"audit clean: "));
        }
        assert!(q.settled());
    }

    #[test]
    fn metrics_observe_the_queue_without_touching_streams() {
        let config = RouterConfig::default();
        let registry = MetricsRegistry::new();
        let mut plain = JobQueue::new();
        let mut metered = JobQueue::with_metrics(&registry);
        for seed in [3u64, 11] {
            let (c, p, k) = small_case(seed);
            plain.submit(
                format!("s{seed}"),
                c.clone(),
                p.clone(),
                k.clone(),
                config.clone(),
                Some(4),
            );
            metered.submit(format!("s{seed}"), c, p, k, config.clone(), Some(4));
        }
        metered.cancel(1);
        metered.reactivate(1);
        plain.run(2);
        metered.run(2);

        // Deterministic observables are byte-identical with and
        // without a registry attached.
        for (a, b) in plain.jobs().iter().zip(metered.jobs()) {
            assert_eq!(a.stream(), b.stream());
            assert_eq!(a.state(), b.state());
        }

        let m = ServeMetrics::register(&registry); // idempotent re-attach
        let slices: u64 = metered.jobs().iter().map(|j| j.slices()).sum();
        let selections: u64 = metered.jobs().iter().map(|j| j.selections_done()).sum();
        let events: u64 = metered.jobs().iter().map(|j| j.events_emitted()).sum();
        assert_eq!(m.slices_total.get(), slices);
        assert_eq!(m.selections_total.get(), selections);
        assert_eq!(m.events_total.get(), events);
        assert_eq!(m.slice_latency_us.count(), slices);
        assert_eq!(m.audit_clean_total.get(), 2);
        assert_eq!(m.audit_failed_total.get(), 0);
        assert_eq!(m.jobs_completed_total.get(), 2);
        assert_eq!(m.jobs_failed_total.get(), 0);
        assert_eq!(m.cancellations_total.get(), 1);
        assert!(m.checkpoint_bytes_total.get() > 0, "quota'd jobs suspend");
        assert_eq!(m.queue_depth.get(), 0, "settled queue reports empty");

        let text = registry.render_prometheus();
        for name in [
            "bgr_queue_depth",
            "bgr_slice_latency_us_bucket",
            "bgr_slices_total",
            "bgr_selections_total",
            "bgr_trace_events_total",
            "bgr_checkpoint_bytes_total",
            "bgr_audit_total{verdict=\"clean\"}",
            "bgr_jobs_terminal_total{state=\"completed\"}",
            "bgr_cancellations_total",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn round_outcomes_match_across_thread_counts() {
        let config = RouterConfig::default();
        let mut streams: Vec<Vec<String>> = Vec::new();
        for threads in [1, 4] {
            let mut q = JobQueue::new();
            for seed in [5u64, 9] {
                let (c, p, k) = small_case(seed);
                q.submit(format!("s{seed}"), c, p, k, config.clone(), Some(3));
            }
            q.run(threads);
            streams.push(q.jobs().iter().map(|j| j.stream().to_string()).collect());
        }
        assert_eq!(streams[0], streams[1]);
    }

    #[test]
    fn cancellation_parks_and_reactivation_continues_identically() {
        let config = RouterConfig::default();
        let (c, p, k) = small_case(17);
        let want = monolithic_events(&c, &p, &k, &config);

        let mut q = JobQueue::new();
        let id = q.submit("cancel-me", c, p, k, config, Some(2));
        assert_eq!(q.job(id).state(), SessionState::Created);
        q.run_round(2);
        assert_eq!(q.job(id).state(), SessionState::Suspended);
        q.cancel(id);
        assert_eq!(q.run(2), 0, "cancelled job must not advance");
        assert_eq!(q.job(id).state(), SessionState::Suspended);
        assert!(q.job(id).is_cancelled());
        let checkpoint = q.job(id).checkpoint().unwrap().to_string();
        assert!(checkpoint.starts_with("bgr-checkpoint v3"));
        assert!(q.settled());

        q.reactivate(id);
        q.run(2);
        assert_eq!(q.job(id).state(), SessionState::Completed);
        assert_eq!(deterministic_event_lines(q.job(id).stream()), want);
    }

    #[test]
    fn apply_remote_rejects_damaged_trace_segments() {
        let config = RouterConfig::default();
        let (c, p, k) = small_case(29);
        let mut q = JobQueue::new();
        let id = q.submit("remote", c, p, k, config, Some(2));
        let spec = q.lease_spec(id).unwrap().unwrap();
        let out = run_slice(&spec.checkpoint, spec.quota);
        let SliceOutcome::Suspended {
            checkpoint,
            stage,
            events_emitted,
            selections_done,
            events_jsonl,
        } = out
        else {
            panic!("quota 2 must suspend");
        };
        assert!(
            events_jsonl.lines().count() >= 2,
            "damage variants below need at least two event lines"
        );
        let stream_before = q.job(id).stream().to_string();

        // Each damaged variant of the honest segment must be rejected
        // with the job unchanged and still leasable.
        let truncated = events_jsonl
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        let reordered = {
            let mut lines: Vec<&str> = events_jsonl.lines().collect();
            lines.reverse();
            lines.iter().map(|l| format!("{l}\n")).collect::<String>()
        };
        for damaged in [truncated, reordered, "not json\n".to_string()] {
            let out = SliceOutcome::Suspended {
                checkpoint: checkpoint.clone(),
                stage,
                events_emitted,
                selections_done,
                events_jsonl: damaged,
            };
            assert!(!q.apply_remote(id, spec.slice, out));
            assert_eq!(q.job(id).stream(), stream_before);
            assert_eq!(q.job(id).slices(), spec.slice);
        }

        // The honest segment is accepted.
        assert!(q.apply_remote(
            id,
            spec.slice,
            SliceOutcome::Suspended {
                checkpoint,
                stage,
                events_emitted,
                selections_done,
                events_jsonl,
            }
        ));
        assert_eq!(q.job(id).slices(), spec.slice + 1);
    }

    #[test]
    fn untripped_policy_is_byte_identical_to_no_policy() {
        let config = RouterConfig::default();
        let mut plain = JobQueue::new();
        let mut governed = JobQueue::new();
        governed.set_policy(QueuePolicy {
            max_jobs: Some(64),
            max_checkpoint_bytes: Some(u64::MAX),
            deadline_ms: Some(3_600_000),
        });
        assert!(!governed.policy().is_unbounded());
        for seed in [3u64, 11] {
            let (c, p, k) = small_case(seed);
            plain.submit(
                format!("s{seed}"),
                c.clone(),
                p.clone(),
                k.clone(),
                config.clone(),
                Some(4),
            );
            governed
                .try_submit(format!("s{seed}"), c, p, k, config.clone(), Some(4))
                .expect("generous limits admit everything");
        }
        plain.run(2);
        governed.run(2);
        for (a, b) in plain.jobs().iter().zip(governed.jobs()) {
            assert_eq!(a.stream(), b.stream(), "governance-on-untripped diverged");
            assert_eq!(a.state(), b.state());
        }
    }

    #[test]
    fn admission_limits_trip_with_structured_verdicts() {
        let config = RouterConfig::default();
        let registry = MetricsRegistry::new();
        let mut q = JobQueue::with_metrics(&registry);
        q.set_policy(QueuePolicy {
            max_jobs: Some(2),
            max_checkpoint_bytes: None,
            deadline_ms: None,
        });
        for seed in [3u64, 11] {
            let (c, p, k) = small_case(seed);
            q.try_submit(format!("s{seed}"), c, p, k, config.clone(), Some(4))
                .expect("under the cap");
        }
        let (c, p, k) = small_case(42);
        match q.try_submit("over", c, p, k, config.clone(), Some(4)) {
            Err(Rejected::QueueFull {
                max_jobs: 2,
                live: 2,
            }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }

        // Terminal jobs release their admission slot.
        q.run(2);
        assert_eq!(q.live_jobs(), 0);
        let (c, p, k) = small_case(42);
        let id = q
            .try_submit("after-drain", c, p, k, config.clone(), Some(4))
            .expect("drained queue admits again");

        // The bytes cap counts live parked checkpoints.
        q.run_round(1);
        assert!(q.held_checkpoint_bytes() > 0);
        q.set_policy(QueuePolicy {
            max_jobs: None,
            max_checkpoint_bytes: Some(1),
            deadline_ms: None,
        });
        let (c, p, k) = small_case(7);
        match q.try_submit("bytes", c, p, k, config.clone(), None) {
            Err(v @ Rejected::CheckpointBytes { max_bytes: 1, .. }) => {
                assert_eq!(v.code(), "checkpoint-bytes");
                assert!(v.to_string().contains("checkpoint budget"));
            }
            other => panic!("expected CheckpointBytes, got {other:?}"),
        }
        let m = ServeMetrics::register(&registry);
        assert_eq!(m.rejected_queue_full_total.get(), 1);
        assert_eq!(m.rejected_checkpoint_bytes_total.get(), 1);
        q.reactivate(id); // quiet unused warnings: id stays live
        let _ = q.job(id);
    }

    #[test]
    fn expired_deadline_sheds_the_job_with_a_structured_error() {
        let config = RouterConfig::default();
        let registry = MetricsRegistry::new();
        let mut q = JobQueue::with_metrics(&registry);
        q.set_policy(QueuePolicy {
            max_jobs: None,
            max_checkpoint_bytes: None,
            deadline_ms: Some(0),
        });
        let (c, p, k) = small_case(13);
        let id = q
            .try_submit("doomed", c, p, k, config.clone(), Some(4))
            .expect("admission is separate from deadline");
        assert_eq!(q.job(id).deadline_ms(), Some(0));

        // The lease spec a worker would receive carries the exhausted
        // budget, and re-requesting it yields the identical spec.
        let spec = q.lease_spec(id).unwrap().unwrap();
        assert_eq!(spec.deadline_ms, Some(0));
        assert_eq!(q.lease_spec(id).unwrap().unwrap(), spec);

        q.run(1);
        assert_eq!(q.job(id).state(), SessionState::Failed);
        assert!(
            matches!(
                q.job(id).error(),
                Some(RouteError::DeadlineExpired { budget_ms: 0 })
            ),
            "{:?}",
            q.job(id).error()
        );
        assert!(q.job(id).stream().ends_with("\"state\":\"failed\"}\n"));
        let m = ServeMetrics::register(&registry);
        assert_eq!(m.deadline_missed_total.get(), 1);

        // An ungoverned job in the same queue is untouched.
        q.set_policy(QueuePolicy::unbounded());
        let (c, p, k) = small_case(13);
        let ok = q
            .try_submit("fine", c, p, k, config, Some(4))
            .expect("unbounded");
        q.run(1);
        assert_eq!(q.job(ok).state(), SessionState::Completed);
        assert_eq!(m.deadline_missed_total.get(), 1);
    }

    #[test]
    fn corrupt_checkpoint_fails_structurally() {
        let config = RouterConfig::default();
        let (c, p, k) = small_case(23);
        let mut q = JobQueue::new();
        let id = q.submit("corrupt", c, p, k, config, Some(2));
        q.run_round(1);
        assert_eq!(q.job(id).state(), SessionState::Suspended);
        // Sabotage the checkpoint text between rounds.
        let garbled = q.jobs[id].checkpoint.take().unwrap().replacen(
            "bgr-checkpoint v3",
            "bgr-checkpoint v9",
            1,
        );
        q.jobs[id].checkpoint = Some(garbled);
        q.run(1);
        assert_eq!(q.job(id).state(), SessionState::Failed);
        assert!(
            matches!(q.job(id).error(), Some(RouteError::Checkpoint { .. })),
            "{:?}",
            q.job(id).error()
        );
    }
}
