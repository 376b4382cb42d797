//! Routing one design as a user does (route → channel route → audit),
//! and the traced breakdown of that route by layer.

use std::time::Instant;

use bgr_channel::{route_channels, DetailedRoute};
use bgr_core::{
    CollectingProbe, Counter, GlobalRouter, NoopProbe, RouteSession, RouteTrace, Routed,
    RouterConfig, SessionStage, StepOutcome,
};
use bgr_gen::DataSet;
use bgr_timing::PathConstraint;
use bgr_verify::{audit, AuditReport};

use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::{agrees, fnv1a, ratio, Tally};

/// One routed, channel-routed and audited design.
pub struct Job {
    /// The route.
    pub routed: Routed,
    /// Its channel routing (Table 2's delay, area and length).
    pub detail: DetailedRoute,
    /// The independent audit of the route.
    pub report: AuditReport,
    /// Wall seconds of the `GlobalRouter::route` call.
    pub route_s: f64,
    /// Wall seconds from route start to audit done.
    pub latency_s: f64,
}

impl Job {
    /// Digest of everything the route must reproduce: selection log,
    /// trees and the channel-routed quality figures.
    pub fn digest(&self) -> u64 {
        let (delay, area, length) = self.quality();
        fnv1a(
            format!(
                "{:x}|{}|{}|{}",
                routing_digest(&self.routed),
                delay.to_bits(),
                area.to_bits(),
                length.to_bits()
            )
            .as_bytes(),
        )
    }

    /// The job's Table 2 figures (see [`quality_of`]).
    pub fn quality(&self) -> (f64, f64, f64) {
        quality_of(&self.detail)
    }
}

/// `(critical delay ps, area mm², wire length mm)` after channel
/// routing, as in Table 2.
pub fn quality_of(detail: &DetailedRoute) -> (f64, f64, f64) {
    (
        detail.timing.max_arrival_ps(),
        detail.area_mm2,
        detail.total_length_mm(),
    )
}

/// Digest of a route's selection log and trees.
pub fn routing_digest(routed: &Routed) -> u64 {
    let r = &routed.result;
    fnv1a(format!("{:?}|{:?}", r.stats.selection_log, r.trees).as_bytes())
}

/// Channel-routes and audits a finished route.
///
/// # Errors
///
/// The channel router's error message.
pub fn channel_and_audit(
    routed: &Routed,
    constraints: &[PathConstraint],
    config: &RouterConfig,
) -> Result<(DetailedRoute, AuditReport), String> {
    let detail = route_channels(
        &routed.circuit,
        &routed.placement,
        &routed.result,
        constraints,
        config.delay_model,
        config.wire,
    )
    .map_err(|e| format!("channel routing: {e}"))?;
    let report = audit(
        &routed.circuit,
        &routed.placement,
        constraints,
        config,
        &routed.result,
    );
    Ok((detail, report))
}

/// Routes `ds` under `config`, then channel-routes and audits it. The
/// inputs are cloned before the clock starts.
///
/// # Errors
///
/// The router's or channel router's error message.
pub fn run_job(ds: &DataSet, config: &RouterConfig) -> Result<Job, String> {
    let (c, p, k) = (
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
    );
    let t = Instant::now();
    let routed = GlobalRouter::new(config.clone())
        .route(c, p, k)
        .map_err(|e| format!("route: {e}"))?;
    let route_s = t.elapsed().as_secs_f64();
    let (detail, report) = channel_and_audit(&routed, &ds.design.constraints, config)?;
    Ok(Job {
        routed,
        detail,
        report,
        route_s,
        latency_s: t.elapsed().as_secs_f64(),
    })
}

/// Records one job in `tally`: it must have succeeded, audited clean
/// and (when a reference digest exists) reproduced it. Returns the job
/// when it passed.
pub fn check_job(
    tally: &mut Tally,
    job: Result<Job, String>,
    reference: &mut Option<u64>,
) -> Option<Job> {
    let job = match job {
        Ok(job) => job,
        Err(e) => {
            eprintln!("perfbench: {e}");
            tally.record(false);
            return None;
        }
    };
    let reproduced = agrees(reference, job.digest());
    let clean = job.report.is_clean();
    if !clean {
        eprintln!("perfbench: audit not clean: {}", job.report);
    }
    if !reproduced {
        eprintln!("perfbench: route digest differs from the run's first route");
    }
    tally.record(clean && reproduced);
    (clean && reproduced).then_some(job)
}

/// Span name of the step that runs `stage`.
fn stage_span(stage: SessionStage) -> &'static str {
    match stage {
        SessionStage::InitialRouting { .. } => "session.initial_routing",
        SessionStage::RecoverViolate => "session.recover_violate",
        SessionStage::ImproveDelay => "session.improve_delay",
        SessionStage::ImproveArea => "session.improve_area",
        SessionStage::Finished => "session.finished",
    }
}

/// A route driven stage by stage through [`RouteSession`], each call
/// under its own span: what the counters and stage times come from.
pub struct SessionRoute {
    /// The route, channel-routed and audited.
    pub job: Job,
    /// The collecting probe's trace (exact work counters).
    pub trace: RouteTrace,
    /// Global selections made by the initial-routing phase.
    pub initial_selections: u64,
}

/// Runs `ds` through `RouteSession::{start, step(None), finish}` with
/// a collecting probe, recording spans `job` ⊃ {`route` ⊃
/// `session.*`, `channel.route_channels`, `verify.audit`} under `run`.
///
/// # Errors
///
/// The router's or channel router's error message.
pub fn session_route(
    tracer: &mut Tracer,
    run: u64,
    ds: &DataSet,
    config: &RouterConfig,
) -> Result<SessionRoute, String> {
    let err = |e: bgr_core::RouteError| format!("session route: {e}");
    let (c, p, k) = (
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
    );
    let job_span = tracer.open("job", None, run);
    let route_span = tracer.open("route", Some(job_span), run);
    let r = Some(route_span);
    let mut session = tracer
        .time("session.start", r, run, || {
            RouteSession::start(config.clone(), c, p, k, CollectingProbe::new())
        })
        .map_err(err)?;
    let mut initial_selections = 0;
    loop {
        let name = stage_span(session.stage());
        let outcome = tracer
            .time(name, r, run, || session.step(None))
            .map_err(err)?;
        if name == "session.initial_routing" {
            initial_selections = session.selections_done();
        }
        if outcome == StepOutcome::Ready {
            break;
        }
    }
    let (routed, probe) = tracer
        .time("session.finish", r, run, || session.finish())
        .map_err(err)?;
    tracer.close(route_span);
    let j = Some(job_span);
    let detail = tracer.time("channel.route_channels", j, run, || {
        route_channels(
            &routed.circuit,
            &routed.placement,
            &routed.result,
            &ds.design.constraints,
            config.delay_model,
            config.wire,
        )
    });
    let detail = detail.map_err(|e| format!("channel routing: {e}"))?;
    let report = tracer.time("verify.audit", j, run, || {
        audit(
            &routed.circuit,
            &routed.placement,
            &ds.design.constraints,
            config,
            &routed.result,
        )
    });
    tracer.close(job_span);
    Ok(SessionRoute {
        job: Job {
            routed,
            detail,
            report,
            route_s: tracer.seconds(route_span),
            latency_s: tracer.seconds(job_span),
        },
        trace: probe.finish(),
        initial_selections,
    })
}

/// A session suspended halfway through initial routing — the state
/// the kernel and density replays rebuild from.
///
/// # Errors
///
/// The router's error message.
pub fn mid_route_snapshot(
    ds: &DataSet,
    config: &RouterConfig,
    selections: u64,
) -> Result<bgr_core::EngineSnapshot, String> {
    let mut session = RouteSession::start(
        config.clone(),
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
        NoopProbe,
    )
    .map_err(|e| format!("snapshot route: {e}"))?;
    session
        .step(Some(selections.max(1)))
        .map_err(|e| format!("snapshot route: {e}"))?;
    Ok(session.snapshot())
}

/// Exact work counters of a traced route, as per-layer metrics.
pub fn put_counters(m: &mut Metrics, trace: &RouteTrace, routed: &Routed) {
    let c = |k: Counter| trace.counter(k) as f64;
    let hyp = c(Counter::HypCacheHit) + c(Counter::HypCacheMiss);
    let memo = c(Counter::DelayMemoHit) + c(Counter::DelayMemoMiss);
    m.put("tentative.calls", c(Counter::HypCacheMiss), "count");
    m.put(
        "tentative.hit_ratio",
        ratio(c(Counter::HypCacheHit), hyp),
        "ratio",
    );
    m.put(
        "criteria.evaluate_calls",
        c(Counter::DelayMemoMiss),
        "count",
    );
    m.put(
        "criteria.memo_hit_ratio",
        ratio(c(Counter::DelayMemoHit), memo),
        "ratio",
    );
    m.put(
        "density.window_queries",
        c(Counter::DensityWindowQuery),
        "count",
    );
    m.put(
        "density.aggregate_queries",
        c(Counter::DensityAggregateQuery),
        "count",
    );
    m.put("scoreboard.key_evals", c(Counter::KeyEval), "count");
    m.put("scoreboard.heap_pushes", c(Counter::HeapPush), "count");
    m.put("scoreboard.heap_pops", c(Counter::HeapPop), "count");
    m.put(
        "scoreboard.stale_pop_ratio",
        ratio(c(Counter::StaleHeapPop), c(Counter::HeapPop)),
        "ratio",
    );
    m.put("engine.rekeys_graph", c(Counter::RekeyGraph), "count");
    m.put("engine.rekeys_span_overlap", c(Counter::RekeySpan), "count");
    m.put(
        "engine.rekeys_constraint",
        c(Counter::RekeyConstraint),
        "count",
    );
    let stats = &routed.result.stats;
    m.put(
        "engine.selections",
        stats.selection_log.len() as f64,
        "count",
    );
    m.put("engine.deletions", stats.deletions as f64, "count");
    m.put("engine.reroutes", stats.reroutes as f64, "count");
}

/// Profile scopes reported as `profile.<label>_s`, by scope label.
const PROFILE_SCOPES: [(&str, &str); 6] = [
    ("rekey:graph", "profile.rekey_graph_s"),
    ("rekey:span_overlap", "profile.rekey_span_overlap_s"),
    ("select", "profile.select_s"),
    ("delete_modify", "profile.delete_modify_s"),
    ("derive_dirty", "profile.derive_dirty_s"),
    ("reroute", "profile.reroute_s"),
];

/// Routes `ds` with `GlobalRouter::route_profiled` and reports the
/// self time of each scope in [`PROFILE_SCOPES`] (summed over the
/// phases it occurs in) plus the profiled route's wall time. Returns
/// the route for the caller's reproduction check.
///
/// # Errors
///
/// The router's error message.
pub fn profiled_route(
    m: &mut Metrics,
    ds: &DataSet,
    config: &RouterConfig,
) -> Result<Routed, String> {
    let t = Instant::now();
    let (routed, _trace, profile) = GlobalRouter::new(config.clone())
        .route_profiled(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .map_err(|e| format!("profiled route: {e}"))?;
    let route_s = t.elapsed().as_secs_f64();
    let entries = profile.entries();
    let self_s = |label: &str| -> f64 {
        entries
            .iter()
            .filter(|e| e.path.last() == Some(&label))
            .fold(0.0, |s, e| s + e.self_time.as_secs_f64())
    };
    m.put("profile.route_s", route_s, "s");
    for (label, name) in PROFILE_SCOPES {
        m.put(name, self_s(label), "s");
    }
    m.put(
        "profile.rekey_graph_share",
        ratio(self_s("rekey:graph"), route_s),
        "ratio",
    );
    m.put(
        "profile.span_overlap_select_share",
        ratio(self_s("rekey:span_overlap") + self_s("select"), route_s),
        "ratio",
    );
    Ok(routed)
}
