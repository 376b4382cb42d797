//! Resume-equivalence golden-trace harness (DESIGN.md §13).
//!
//! The sessionized core's contract:
//!
//! ```text
//! route(full)  ≡  route(slice) → snapshot → serialize → parse →
//!                 restore → route(rest)
//! ```
//!
//! with **byte-identical** deterministic observables on both sides:
//!
//! - the trace event stream — per-slice documents are serialized at the
//!   slice's global `seq` offset and their concatenated event lines must
//!   equal the uninterrupted run's, `seq` included;
//! - the selection log (every `(net, edge)` the deletion loop picked);
//! - the routing result (trees, channel tracks) and its independent
//!   `bgr::verify` audit on both endpoints.
//!
//! Every suspension passes through the *serialized* checkpoint codec
//! (`write_checkpoint` → `parse_checkpoint`), not an in-memory
//! snapshot. The golden instance's sliced run is additionally pinned
//! against the checked-in `tests/golden/trace.jsonl`, and a
//! deletion-budgeted variant proves the fallback lands at the same
//! point with or without interruption.

use bgr::gen::golden_instance;
use bgr::io::{
    deterministic_event_lines, parse_checkpoint, write_checkpoint, write_trace_jsonl,
    write_trace_jsonl_offset,
};
use bgr::layout::Placement;
use bgr::netlist::Circuit;
use bgr::router::{
    Budgets, CollectingProbe, GlobalRouter, RouteSession, Routed, RouterConfig, StepOutcome,
};
use bgr::timing::PathConstraint;
use bgr::verify::audit;

/// Routes in `quota`-selection slices, round-tripping through the
/// serialized checkpoint codec at **every** suspension. Returns the
/// result, the concatenated per-slice event lines, and the hop count.
fn sliced_route(
    config: &RouterConfig,
    circuit: &Circuit,
    placement: &Placement,
    constraints: &[PathConstraint],
    quota: u64,
) -> (Routed, String, usize) {
    let mut session = RouteSession::start(
        config.clone(),
        circuit.clone(),
        placement.clone(),
        constraints.to_vec(),
        CollectingProbe::new(),
    )
    .expect("session starts");
    let mut events = String::new();
    let mut start_events = 0u64;
    let mut hops = 0usize;
    loop {
        let outcome = session.step(Some(quota)).expect("step succeeds");
        if outcome == StepOutcome::Ready {
            break;
        }
        // Suspension: serialize, drop the live session, re-parse,
        // resume — the codec is on the hot path of every boundary.
        let snapshot = session.snapshot();
        let text = write_checkpoint(&snapshot);
        let trace = session.into_probe().finish();
        events.push_str(&deterministic_event_lines(&write_trace_jsonl_offset(
            &trace,
            start_events,
        )));
        let reparsed = parse_checkpoint(&text).expect("checkpoint parses");
        start_events = reparsed.events_emitted;
        session = RouteSession::resume(reparsed, CollectingProbe::new()).expect("resume succeeds");
        hops += 1;
    }
    let (routed, probe) = session.finish().expect("finish succeeds");
    let trace = probe.finish();
    events.push_str(&deterministic_event_lines(&write_trace_jsonl_offset(
        &trace,
        start_events,
    )));
    (routed, events, hops)
}

/// The router runs on one thread with one candidate pool; the name
/// keeps its `threads_and_shards` wording so the test id stays stable.
#[test]
fn resume_equals_uninterrupted_across_threads_and_shards() {
    let ds = golden_instance();
    let config = RouterConfig::default();
    let (full, trace) = GlobalRouter::new(config.clone())
        .route_traced(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("full route succeeds");
    let full_events = deterministic_event_lines(&write_trace_jsonl(&trace));

    let (sliced, sliced_events, hops) = sliced_route(
        &config,
        &ds.design.circuit,
        &ds.placement,
        &ds.design.constraints,
        3,
    );
    assert!(hops > 3, "quota 3 must force several resumes (got {hops})");

    // Byte-identical observables on both sides of the interruption.
    assert_eq!(sliced_events, full_events, "event stream diverged");
    assert_eq!(sliced.result.trees, full.result.trees);
    assert_eq!(sliced.result.channel_tracks, full.result.channel_tracks);
    assert_eq!(
        sliced.result.stats.selection_log,
        full.result.stats.selection_log
    );
    assert_eq!(sliced.result.stats.deletions, full.result.stats.deletions);

    // Independent audit certifies both endpoints, identically.
    let audit_full = audit(
        &full.circuit,
        &full.placement,
        &ds.design.constraints,
        &config,
        &full.result,
    );
    let audit_sliced = audit(
        &sliced.circuit,
        &sliced.placement,
        &ds.design.constraints,
        &config,
        &sliced.result,
    );
    assert!(audit_full.is_clean(), "{:?}", audit_full.first_failure());
    assert_eq!(audit_full, audit_sliced);
}

#[test]
fn sliced_golden_instance_matches_checked_in_trace() {
    let golden = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
            .join("trace.jsonl"),
    )
    .expect("golden trace checked in (bless via golden_trace test)");
    let ds = golden_instance();
    let (_, sliced_events, hops) = sliced_route(
        &RouterConfig::default(),
        &ds.design.circuit,
        &ds.placement,
        &ds.design.constraints,
        5,
    );
    assert!(hops > 0);
    assert_eq!(
        sliced_events,
        deterministic_event_lines(&golden),
        "sliced run drifted from the checked-in golden event lines"
    );
}

#[test]
fn budget_exhaustion_point_survives_interruption() {
    // A deletion budget makes initial routing stop early and emit the
    // budget-fallback event; the fallback must land at the same global
    // selection whether or not the run was checkpoint-interrupted.
    let ds = golden_instance();
    let base = RouterConfig {
        budgets: Budgets {
            deletion_steps: Some(7),
            phase_reroutes: None,
        },
        ..RouterConfig::default()
    };
    let (full, trace) = GlobalRouter::new(base.clone())
        .route_traced(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("budgeted route succeeds");
    let full_events = deterministic_event_lines(&write_trace_jsonl(&trace));
    let (sliced, sliced_events, hops) = sliced_route(
        &base,
        &ds.design.circuit,
        &ds.placement,
        &ds.design.constraints,
        2,
    );
    assert!(hops >= 3, "budget 7 at quota 2 must hop (got {hops})");
    assert_eq!(sliced_events, full_events);
    assert_eq!(sliced.result.trees, full.result.trees);
}

/// `Steps` audits also compare hypothetical lengths, and the count is
/// part of the `audit_step` events. A resumed session starts with empty
/// hypothetical-wire caches, so the count must not depend on what the
/// caches hold.
#[test]
fn step_audit_counts_survive_interruption() {
    let ds = golden_instance();
    let config = RouterConfig {
        verify: bgr::router::VerifyLevel::Steps(16),
        ..RouterConfig::default()
    };
    let (_, trace) = GlobalRouter::new(config.clone())
        .route_traced(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("full route succeeds");
    let full_events = deterministic_event_lines(&write_trace_jsonl(&trace));
    assert!(full_events.contains("audit_step"));
    let (_, sliced_events, _) = sliced_route(
        &config,
        &ds.design.circuit,
        &ds.placement,
        &ds.design.constraints,
        7,
    );
    assert_eq!(sliced_events, full_events);
}
