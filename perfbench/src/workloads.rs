//! The three workloads, each in a timed (`--trace 0`) and a traced
//! (`--trace 1`) form.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bgr_core::RouterConfig;
use bgr_gen::DataSet;
use bgr_metrics::MetricsRegistry;
use bgr_net::NetMetrics;

use crate::drain::{self, Reference, DESIGNS, JOBS};
use crate::inputs::{
    c1_design, c2_design, constrained, job_order, nproc, peak_rss_mb, timed, unconstrained,
    SLICE_QUOTA,
};
use crate::replay::{replay_chain, replay_snapshot};
use crate::report::Metrics;
use crate::route::{
    channel_and_audit, check_job, mid_route_snapshot, profiled_route, put_counters, quality_of,
    routing_digest, run_job, session_route,
};
use crate::spans::Tracer;
use crate::stats::{another_fits, mean, median, percentile, ratio, Percentile, Tally};

/// Times each run builds its inputs, at least; `setup_s` is their
/// median. Builds are spread over the run (the inputs are rebuilt
/// about every `seconds / SETUP_REPS`, the rest at the end), so one
/// slow stretch of a shared host does not decide the median.
const SETUP_REPS: usize = 5;

/// Timed routes per route-workload run, at least (the run goes on while
/// another route is expected to end within `--seconds`).
const MIN_ROUTES: usize = 2;

/// Slices of the chain replay on the route workloads (the drain
/// workload replays one job's whole chain).
const ROUTE_CHAIN_SLICES: u64 = 8;

/// Loopback workers draining `c1_drain`.
const DRAIN_WORKERS: usize = 2;

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// C2P1-shaped design, constrained routing (Table 2 with constraints).
    C2p1Timing,
    /// The same design routed without constraints.
    C2p1Area,
    /// A closed batch of C1-shaped jobs drained over loopback.
    C1Drain,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::C2p1Timing, Self::C2p1Area, Self::C1Drain];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::C2p1Timing => "c2p1_timing",
            Self::C2p1Area => "c2p1_area",
            Self::C1Drain => "c1_drain",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The route workloads' configuration, on one thread: the
    /// scoreboard's parallel re-key spawns threads per batch, which on a
    /// shared 2-vCPU host made 2-thread routes no faster and up to 3×
    /// slower whenever the second vCPU was busy.
    fn route_config(self) -> RouterConfig {
        match self {
            Self::C2p1Area => unconstrained(),
            _ => constrained(),
        }
    }
}

/// Configuration of every drained job (one thread per worker slice):
/// unconstrained, so slices stay
/// short and serving overhead is a large share of each (a constrained
/// C1 job spends seconds in single improvement-phase slices).
fn drain_config() -> RouterConfig {
    unconstrained()
}

/// Sample counts behind the reported order statistics.
#[derive(Debug, Default)]
pub struct Samples {
    /// Timed routes (drained jobs on `c1_drain`) behind `route_s`.
    pub routes: usize,
    /// Job latencies behind the latency percentiles.
    pub latencies: usize,
    /// Latencies above the p90 rank.
    pub beyond_p90: usize,
}

/// What one run measured.
pub struct RunResult {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// The metrics to print.
    pub metrics: Metrics,
    /// Sample counts (timed runs only).
    pub samples: Samples,
}

/// Scratch files of a run, removed when the run ends.
pub struct Scratch {
    dir: PathBuf,
    tag: String,
    files: Vec<PathBuf>,
}

impl Scratch {
    /// Scratch space under `dir` for files tagged `tag`.
    ///
    /// # Errors
    ///
    /// A message when the directory cannot be created.
    pub fn new(dir: &Path, tag: &str) -> Result<Self, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            tag: format!("{tag}-{}", std::process::id()),
            files: Vec::new(),
        })
    }

    /// A fresh path that is deleted when the scratch space drops.
    pub fn file(&mut self, name: &str) -> PathBuf {
        let path = self.dir.join(format!("{}-{name}", self.tag));
        self.files.push(path.clone());
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        for f in &self.files {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// Runs `workload` untraced and reports the end-to-end metrics.
///
/// # Errors
///
/// A message when inputs cannot be built or no operation succeeded.
pub fn run_timed(
    workload: Workload,
    seed: u64,
    seconds: f64,
    scratch: &mut Scratch,
) -> Result<RunResult, String> {
    match workload {
        Workload::C1Drain => drain_timed(seed, seconds, scratch),
        w => route_timed(w, seconds),
    }
}

/// Runs `workload` traced and reports the per-layer metrics.
///
/// # Errors
///
/// A message when inputs cannot be built or a layer fails structurally.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    tracer: &mut Tracer,
    scratch: &mut Scratch,
) -> Result<RunResult, String> {
    let mut m = Metrics::default();
    let mut tally = Tally::default();
    let chain_journal = scratch.file("chain.bgrj");
    match workload {
        Workload::C1Drain => {
            let designs: Vec<DataSet> = (0..DESIGNS)
                .map(|i| tracer.time("gen.dataset", None, 0, || c1_design(i)))
                .collect();
            m.put("gen.dataset_s", tracer.total_s("gen.dataset"), "s");
            let config = drain_config();
            let reference = tracer.time("reference", None, 0, || {
                drain::local_reference(&designs, &config, nproc())
            })?;
            let chain = Chain {
                limit: None,
                reference: Some(&reference[0]),
                journal: &chain_journal,
            };
            trace_design(tracer, &mut m, &mut tally, &designs[0], &config, &chain)?;
            let order = job_order(seed, JOBS, designs.len());
            let registry = MetricsRegistry::new();
            let queue = drain::submit(&designs, &order, &registry, &config);
            let drained =
                drain::drain(queue, &registry, &scratch.file("drain.bgrj"), DRAIN_WORKERS)?;
            drain::check_drained(&mut tally, &drained, &reference, &order);
            let root = tracer.record(
                "drain",
                None,
                0,
                drained.start,
                *drained.completions.last().unwrap_or(&drained.start),
            );
            for (k, &done) in drained.completions.iter().enumerate() {
                tracer.record("drain.job", Some(root), k as u64, drained.start, done);
            }
            put_fleet(&mut m, &registry, Some(&drained));
        }
        w => {
            let ds = tracer.time("gen.dataset", None, 0, c2_design);
            m.put("gen.dataset_s", tracer.total_s("gen.dataset"), "s");
            let chain = Chain {
                limit: Some(ROUTE_CHAIN_SLICES),
                reference: None,
                journal: &chain_journal,
            };
            trace_design(tracer, &mut m, &mut tally, &ds, &w.route_config(), &chain)?;
            put_fleet(&mut m, &MetricsRegistry::new(), None);
        }
    }
    Ok(RunResult {
        tally,
        metrics: m,
        samples: Samples::default(),
    })
}

fn route_timed(workload: Workload, seconds: f64) -> Result<RunResult, String> {
    let config = workload.route_config();
    let mut setup = Vec::new();
    let mut tally = Tally::default();
    let mut reference = None;
    let (mut route_s, mut latency_s, mut quality) = (Vec::new(), Vec::new(), None);
    let start = Instant::now();
    let mut ds = timed(&mut setup, c2_design);
    let mut built = Instant::now();
    while (tally.attempted as usize) < MIN_ROUTES
        || another_fits(
            start.elapsed().as_secs_f64(),
            tally.attempted as usize,
            seconds,
        )
    {
        // Rebuilt inputs must route identically too: the digest check
        // covers generation as well as routing.
        if built.elapsed().as_secs_f64() >= seconds / SETUP_REPS as f64 {
            ds = timed(&mut setup, c2_design);
            built = Instant::now();
        }
        if let Some(job) = check_job(&mut tally, run_job(&ds, &config), &mut reference) {
            route_s.push(job.route_s);
            latency_s.push(job.latency_s);
            quality.get_or_insert(job.quality());
        }
    }
    while setup.len() < SETUP_REPS {
        timed(&mut setup, c2_design);
    }
    let quality = quality.ok_or("no route succeeded")?;
    let mut metrics = Metrics::default();
    let p90 = put_e2e(
        &mut metrics,
        &E2e {
            setup_s: &setup,
            route_s: &route_s,
            quality,
            jobs_per_s: ratio(latency_s.len() as f64, latency_s.iter().sum()),
            latency_s: &latency_s,
            tally,
        },
    );
    Ok(RunResult {
        tally,
        metrics,
        samples: Samples {
            routes: route_s.len(),
            latencies: p90.samples,
            beyond_p90: p90.beyond,
        },
    })
}

/// Drains closed batches of [`JOBS`] jobs while another is expected to
/// end within `seconds` (at least one), rebuilding the inputs before
/// each batch.
fn drain_timed(seed: u64, seconds: f64, scratch: &mut Scratch) -> Result<RunResult, String> {
    let config = drain_config();
    let order = job_order(seed, JOBS, DESIGNS as usize);
    let mut setup = Vec::new();
    let build = |setup: &mut Vec<f64>| {
        timed(setup, || {
            let designs: Vec<DataSet> = (0..DESIGNS).map(c1_design).collect();
            let registry = MetricsRegistry::new();
            let queue = drain::submit(&designs, &order, &registry, &config);
            (designs, queue, registry)
        })
    };
    let (designs, _, _) = build(&mut setup);
    let reference = drain::local_reference(&designs, &config, nproc())?;
    let mut quality = Vec::with_capacity(designs.len());
    for (ds, r) in designs.iter().zip(&reference) {
        let (detail, _) = channel_and_audit(&r.routed, &ds.design.constraints, &config)?;
        quality.push(quality_of(&detail));
    }
    let mut tally = Tally::default();
    let journal = scratch.file("drain.bgrj");
    let (mut latency_s, mut makespan_s, mut slice_s) = (Vec::new(), 0.0, 0.0);
    let start = Instant::now();
    let mut batches = 0;
    while another_fits(start.elapsed().as_secs_f64(), batches, seconds) {
        batches += 1;
        let (_, queue, registry) = build(&mut setup);
        let drained = drain::drain(queue, &registry, &journal, DRAIN_WORKERS)?;
        drain::check_drained(&mut tally, &drained, &reference, &order);
        if drained.completions.is_empty() {
            return Err("no drained job completed".to_owned());
        }
        latency_s.extend(drained.latencies_s());
        makespan_s += drained.makespan_s();
        slice_s += drained.worker_slices().0;
    }
    while setup.len() < SETUP_REPS {
        build(&mut setup);
    }
    let quality_mean =
        |f: fn(&(f64, f64, f64)) -> f64| mean(&quality.iter().map(f).collect::<Vec<_>>());
    let mut metrics = Metrics::default();
    let p90 = put_e2e(
        &mut metrics,
        &E2e {
            setup_s: &setup,
            // A drained job is routed in slices: its route time is the
            // workers' slice time per completed job.
            route_s: &[slice_s / latency_s.len() as f64],
            quality: (
                quality_mean(|q| q.0),
                quality_mean(|q| q.1),
                quality_mean(|q| q.2),
            ),
            jobs_per_s: ratio(latency_s.len() as f64, makespan_s),
            latency_s: &latency_s,
            tally,
        },
    );
    Ok(RunResult {
        tally,
        metrics,
        samples: Samples {
            routes: latency_s.len(),
            latencies: p90.samples,
            beyond_p90: p90.beyond,
        },
    })
}

/// The measurements behind the end-to-end metrics.
struct E2e<'a> {
    setup_s: &'a [f64],
    route_s: &'a [f64],
    quality: (f64, f64, f64),
    jobs_per_s: f64,
    latency_s: &'a [f64],
    tally: Tally,
}

fn put_e2e(m: &mut Metrics, e: &E2e) -> Percentile {
    let p90 = percentile(e.latency_s, 90.0);
    m.put("setup_s", median(e.setup_s), "s");
    m.put("route_s", median(e.route_s), "s");
    m.put("critical_delay_ps", e.quality.0, "ps");
    m.put("area_mm2", e.quality.1, "mm2");
    m.put("wire_length_mm", e.quality.2, "mm");
    m.put("jobs_per_s", e.jobs_per_s, "1/s");
    m.put("job_latency_p50_s", median(e.latency_s), "s");
    m.put("job_latency_p90_s", p90.value, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("success_ratio", e.tally.success_ratio(), "ratio");
    p90
}

/// How the traced run replays a design's slice chain.
struct Chain<'a> {
    /// Stop after this many slices (`None`: run to completion).
    limit: Option<u64>,
    /// The local queue's result for the design, to check a complete
    /// chain against.
    reference: Option<&'a Reference>,
    /// Journal file of the replay.
    journal: &'a Path,
}

/// The per-layer breakdown of one design: an untraced route, a
/// session-staged traced route (stage spans and exact counters), a
/// profiled route, snapshot replays of the kernel, criteria and
/// density, and a slice-chain replay.
fn trace_design(
    tracer: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
    ds: &DataSet,
    config: &RouterConfig,
    chain: &Chain,
) -> Result<(), String> {
    let mut reference = None;
    let plain =
        check_job(tally, run_job(ds, config), &mut reference).ok_or("untraced route failed")?;
    let staged = session_route(tracer, 1, ds, config)?;
    let staged_route_s = staged.job.route_s;
    let initial = staged.initial_selections;
    put_counters(m, &staged.trace, &staged.job.routed);
    let trace_counts = staged.trace.counters;
    let audit_checks = staged.job.report.total_checks() as f64;
    check_job(tally, Ok(staged.job), &mut reference).ok_or("traced route failed its checks")?;

    let stages = [
        ("session.start", "session.start_s"),
        ("session.initial_routing", "session.initial_routing_s"),
        ("session.recover_violate", "session.recover_violate_s"),
        ("session.improve_delay", "session.improve_delay_s"),
        ("session.improve_area", "session.improve_area_s"),
        ("session.finish", "session.finish_s"),
    ];
    let mut stage_sum = 0.0;
    for (span, name) in stages {
        let s = tracer.total_s(span);
        stage_sum += s;
        m.put(name, s, "s");
    }
    m.put(
        "session.sum_ratio",
        ratio(stage_sum, staged_route_s),
        "ratio",
    );
    m.put(
        "channel.route_channels_s",
        tracer.total_s("channel.route_channels"),
        "s",
    );
    m.put("verify.audit_s", tracer.total_s("verify.audit"), "s");
    m.put("verify.audit_checks", audit_checks, "count");
    m.put("trace.route_s", staged_route_s, "s");
    m.put("trace.untraced_route_s", plain.route_s, "s");
    m.put("trace.overhead_s", staged_route_s - plain.route_s, "s");

    let profiled = profiled_route(m, ds, config)?;
    let same = routing_digest(&profiled) == routing_digest(&plain.routed);
    if !same {
        eprintln!("perfbench: profiled route differs from the untraced route");
    }
    tally.record(same);

    let snap = tracer.time("replay.snapshot", None, 3, || {
        mid_route_snapshot(ds, config, initial / 2)
    })?;
    let rep = replay_snapshot(tracer, 3, &snap, &ds.design.constraints)?;
    let calls = trace_counts[bgr_core::Counter::HypCacheMiss.index()] as f64;
    m.put("tentative.us_per_call", rep.tentative_us_per_call, "us");
    m.put(
        "tentative.vertices_per_call",
        rep.vertices_per_call,
        "count",
    );
    m.put(
        "tentative.est_share",
        ratio(calls * rep.tentative_us_per_call / 1e6, plain.route_s),
        "ratio",
    );
    m.put(
        "criteria.evaluate_us_per_call",
        rep.criteria_us_per_call,
        "us",
    );
    m.put(
        "density.edge_density_ns_per_call",
        rep.density_ns_per_call,
        "ns",
    );

    let out = replay_chain(
        tracer,
        4,
        ds,
        config,
        SLICE_QUOTA,
        chain.limit,
        chain.journal,
    )?;
    if let Some(want) = chain.reference {
        let same = out.slices == want.slices && out.verdict.as_ref() == Some(&want.verdict);
        if !same {
            eprintln!("perfbench: replayed slice chain differs from the local queue");
        }
        tally.record(same);
    } else {
        tally.record(true);
    }
    let overhead: f64 = [
        "io.checkpoint_write",
        "io.checkpoint_parse",
        "serve.resume",
        "net.frame_roundtrip",
    ]
    .iter()
    .map(|s| tracer.total_s(s))
    .sum();
    m.put("io.checkpoint_bytes", out.checkpoint_bytes, "bytes");
    m.put(
        "io.checkpoint_write_ms",
        tracer.mean_ms("io.checkpoint_write"),
        "ms",
    );
    m.put(
        "io.checkpoint_parse_ms",
        tracer.mean_ms("io.checkpoint_parse"),
        "ms",
    );
    m.put(
        "io.journal_append_ms",
        tracer.mean_ms("io.journal_append"),
        "ms",
    );
    m.put("io.journal_bytes", out.journal_bytes, "bytes");
    m.put("serve.resume_ms", tracer.mean_ms("serve.resume"), "ms");
    m.put("serve.step_ms", tracer.mean_ms("serve.step"), "ms");
    m.put("serve.slices", out.slices as f64, "count");
    m.put(
        "serve.slice_overhead_ratio",
        ratio(overhead, tracer.total_s("serve.slice")),
        "ratio",
    );
    m.put(
        "net.frame_roundtrip_ms",
        tracer.mean_ms("net.frame_roundtrip"),
        "ms",
    );
    Ok(())
}

/// Fleet counters after a drain (all zero on the route workloads,
/// which drain nothing).
fn put_fleet(m: &mut Metrics, registry: &MetricsRegistry, drained: Option<&drain::Drained>) {
    let net = NetMetrics::register(registry);
    m.put(
        "net.leases_granted",
        net.leases_granted_total.get() as f64,
        "count",
    );
    m.put(
        "net.results_stale",
        net.results_stale_total.get() as f64,
        "count",
    );
    m.put("net.heartbeats", net.heartbeats_total.get() as f64, "count");
    let (busy_s, slices, makespan) = drained.map_or((0.0, 0, 0.0), |d| {
        let (s, n) = d.worker_slices();
        (s, n, d.makespan_s())
    });
    m.put("net.worker_slices", slices as f64, "count");
    m.put(
        "net.worker_slice_ms",
        ratio(busy_s * 1e3, slices as f64),
        "ms",
    );
    m.put(
        "net.worker_busy_ratio",
        ratio(busy_s, makespan * DRAIN_WORKERS as f64),
        "ratio",
    );
}
