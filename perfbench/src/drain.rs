//! The `c1_drain` fleet: a closed batch of checkpointed jobs drained
//! over TCP loopback by `run_worker` threads, checked byte for byte
//! against a local `JobQueue::run` of the same designs.

use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

use bgr_core::{Routed, RouterConfig};
use bgr_gen::DataSet;
use bgr_io::JournalWriter;
use bgr_metrics::MetricsRegistry;
use bgr_net::{run_worker, serve_drain, Coordinator, WorkerMetrics, WorkerOptions, WorkerReport};
use bgr_serve::{FinishVerdict, JobQueue, ServeMetrics, SessionState};

use crate::inputs::SLICE_QUOTA;
use crate::stats::Tally;

/// Jobs in the closed batch.
pub const JOBS: usize = 100;

/// Distinct designs the batch cycles over.
pub const DESIGNS: u64 = 4;

/// Lease timeout: long enough that no healthy slice ever expires.
const LEASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Submits the batch: job `i` routes design `order[i]`.
pub fn submit(
    designs: &[DataSet],
    order: &[usize],
    registry: &MetricsRegistry,
    config: &RouterConfig,
) -> JobQueue {
    let mut queue = JobQueue::with_metrics(registry);
    for (i, &d) in order.iter().enumerate() {
        let ds = &designs[d];
        queue.submit(
            format!("job{i}"),
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
            config.clone(),
            Some(SLICE_QUOTA),
        );
    }
    queue
}

/// One design's local reference: its stream, slice count, verdict and
/// route.
pub struct Reference {
    /// The job's complete JSONL stream.
    pub stream: String,
    /// Slices the job took.
    pub slices: u64,
    /// The completion verdict.
    pub verdict: FinishVerdict,
    /// The finished route.
    pub routed: Routed,
}

/// Runs one job per design through a local `JobQueue::run`.
///
/// # Errors
///
/// A message when a reference job does not complete cleanly.
pub fn local_reference(
    designs: &[DataSet],
    config: &RouterConfig,
    threads: usize,
) -> Result<Vec<Reference>, String> {
    let mut queue = JobQueue::new();
    for (i, ds) in designs.iter().enumerate() {
        queue.submit(
            format!("ref{i}"),
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
            config.clone(),
            Some(SLICE_QUOTA),
        );
    }
    queue.run(threads);
    queue
        .jobs()
        .iter()
        .enumerate()
        .map(
            |(i, job)| match (job.state(), job.verdict(), job.routed()) {
                (SessionState::Completed, Some(v), Some(routed)) if v.audit_clean => {
                    Ok(Reference {
                        stream: job.stream().to_owned(),
                        slices: job.slices(),
                        verdict: v.clone(),
                        routed: routed.clone(),
                    })
                }
                (state, ..) => Err(format!(
                    "reference job {i} ended {} ({:?})",
                    state.label(),
                    job.error()
                )),
            },
        )
        .collect()
}

/// A finished drain.
pub struct Drained {
    /// The coordinator, holding the drained queue and its metrics.
    pub coordinator: Coordinator,
    /// When the fleet started (every job was submitted before it).
    pub start: Instant,
    /// Completion instants, in completion order.
    pub completions: Vec<Instant>,
    /// Each worker's report and registry.
    pub workers: Vec<(WorkerReport, MetricsRegistry)>,
}

impl Drained {
    /// Submit-to-audited-done latency of each completed job, seconds.
    pub fn latencies_s(&self) -> Vec<f64> {
        self.completions
            .iter()
            .map(|t| t.duration_since(self.start).as_secs_f64())
            .collect()
    }

    /// Wall seconds from fleet start to the last completion.
    pub fn makespan_s(&self) -> f64 {
        self.latencies_s().into_iter().fold(0.0, f64::max)
    }

    /// Summed worker slice latency, seconds, and the slice count.
    pub fn worker_slices(&self) -> (f64, u64) {
        self.workers.iter().fold((0.0, 0), |(s, n), (_, reg)| {
            let h = WorkerMetrics::register(reg).slice_latency_us;
            (s + h.sum() as f64 / 1e6, n + h.count())
        })
    }
}

/// Drains `queue` over loopback with `workers` worker threads, the
/// coordinator journaling to `journal`. Job completions are read by
/// polling the queue registry's `bgr_jobs_terminal_total` counters.
///
/// # Errors
///
/// A message when the fleet cannot start, a worker or the coordinator
/// fails, or the journal degrades.
pub fn drain(
    queue: JobQueue,
    registry: &MetricsRegistry,
    journal: &Path,
    workers: usize,
) -> Result<Drained, String> {
    let writer = JournalWriter::create(journal).map_err(|e| format!("journal: {e}"))?;
    let coordinator = Coordinator::new(queue, LEASE_TIMEOUT)
        .with_metrics(registry)
        .with_journal(writer);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("bind: {e}"))?
        .to_string();
    let terminal = ServeMetrics::register(registry);
    let registries: Vec<MetricsRegistry> = (0..workers).map(|_| MetricsRegistry::new()).collect();
    let jobs = coordinator.queue().jobs().len();
    let start = Instant::now();
    let (served, reports, completions) = std::thread::scope(|s| {
        let server = s.spawn(|| serve_drain(listener, coordinator));
        let fleet: Vec<_> = registries
            .iter()
            .enumerate()
            .map(|(i, reg)| {
                let addr = &addr;
                s.spawn(move || run_worker(addr, &WorkerOptions::named(format!("w{i}")), reg))
            })
            .collect();
        let mut completions = Vec::with_capacity(jobs);
        loop {
            let done = terminal.jobs_completed_total.get() as usize;
            let now = Instant::now();
            completions.resize(done.max(completions.len()), now);
            let failed = terminal.jobs_failed_total.get() as usize;
            if done + failed >= jobs || server.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let reports: Vec<_> = fleet
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (
            server.join().expect("coordinator thread"),
            reports,
            completions,
        )
    });
    let coordinator = served.map_err(|e| format!("coordinator: {e}"))?;
    if let Some(note) = coordinator.journal_degradation() {
        return Err(format!("coordinator journal degraded: {note}"));
    }
    let mut fleet = Vec::with_capacity(workers);
    for (report, reg) in reports.into_iter().zip(registries) {
        fleet.push((report.map_err(|e| format!("worker: {e}"))?, reg));
    }
    Ok(Drained {
        coordinator,
        start,
        completions,
        workers: fleet,
    })
}

/// Records every drained job in `tally`: it must have completed with a
/// clean audit and a stream byte-identical to its design's reference
/// (`order` maps jobs to designs, as at submission).
pub fn check_drained(
    tally: &mut Tally,
    drained: &Drained,
    reference: &[Reference],
    order: &[usize],
) {
    for (i, job) in drained.coordinator.queue().jobs().iter().enumerate() {
        let want = &reference[order[i]];
        let ok = job.state() == SessionState::Completed
            && job
                .verdict()
                .is_some_and(|v| v.audit_clean && *v == want.verdict)
            && job.slices() == want.slices
            && job.stream() == want.stream;
        if !ok {
            eprintln!(
                "perfbench: drained job {i} ended {} and does not match its reference",
                job.state().label()
            );
        }
        tally.record(ok);
    }
}
