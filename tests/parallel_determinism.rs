//! Scoreboard determinism: the incremental scoreboard routes exactly
//! like the `FullRescan` oracle.
//!
//! Every deterministic observable — selection log, routed trees, track
//! counts, total length and the full `TraceEvent` stream — is
//! byte-identical to the oracle's on the same four generated circuit
//! shapes as `tests/oracle_equivalence.rs` plus a budgeted route, and
//! the scoreboard's work counters repeat exactly from run to run (see
//! DESIGN.md §10 for the structural argument the proof backs). The
//! router runs on one thread with one candidate pool; the test names
//! keep their `thread_and_shard` wording so test ids stay stable.

use bgr::gen::{generate, place_design, GenParams, PlacementStyle};
use bgr::router::{GlobalRouter, RouteTrace, Routed, RouterConfig, SelectionStrategy, TraceEvent};

fn route_traced(params: &GenParams, config: RouterConfig) -> (Routed, RouteTrace) {
    let design = generate(params);
    let placement = place_design(&design, params, PlacementStyle::EvenFeed);
    GlobalRouter::new(config)
        .route_traced(
            design.circuit.clone(),
            placement,
            design.constraints.clone(),
        )
        .expect("generated designs route")
}

/// First index where two event streams diverge, for a readable failure.
fn first_divergence(a: &[TraceEvent], b: &[TraceEvent]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

fn assert_matrix_matches_oracle(params: &GenParams, base: RouterConfig) {
    let oracle_config = RouterConfig {
        selection: SelectionStrategy::FullRescan,
        ..base.clone()
    };
    let (oracle, oracle_trace) = route_traced(params, oracle_config);
    let (routed, trace) = route_traced(params, base);
    let tag = format!("seed {}", params.seed);
    assert_eq!(
        routed.result.stats.selection_log, oracle.result.stats.selection_log,
        "{tag}: deletion sequences diverge"
    );
    assert_eq!(
        routed.result.trees, oracle.result.trees,
        "{tag}: routed trees diverge"
    );
    assert_eq!(
        routed.result.channel_tracks, oracle.result.channel_tracks,
        "{tag}: channel track counts diverge"
    );
    assert_eq!(
        routed.result.total_length_um, oracle.result.total_length_um,
        "{tag}: total lengths diverge"
    );
    if let Some(i) = first_divergence(&trace.events, &oracle_trace.events) {
        panic!(
            "{tag}: trace streams diverge at event {i}: {:?} vs oracle {:?}",
            trace.events.get(i),
            oracle_trace.events.get(i)
        );
    }
}

#[test]
fn small_constrained_circuit_is_thread_and_shard_invariant() {
    assert_matrix_matches_oracle(&GenParams::small(21), RouterConfig::default());
}

#[test]
fn wider_constrained_circuit_is_thread_and_shard_invariant() {
    let params = GenParams {
        logic_cells: 90,
        depth: 6,
        rows: 4,
        diff_pairs: 3,
        feeds_per_row: 4,
        num_constraints: 5,
        ..GenParams::small(22)
    };
    assert_matrix_matches_oracle(&params, RouterConfig::default());
}

#[test]
fn deep_tightly_constrained_circuit_is_thread_and_shard_invariant() {
    let params = GenParams {
        logic_cells: 70,
        depth: 9,
        rows: 3,
        global_fanin: 0.3,
        num_constraints: 6,
        wire_budget: 0.25,
        ..GenParams::small(23)
    };
    assert_matrix_matches_oracle(&params, RouterConfig::default());
}

#[test]
fn unconstrained_area_routing_is_thread_and_shard_invariant() {
    let params = GenParams {
        logic_cells: 60,
        rows: 3,
        ..GenParams::small(24)
    };
    assert_matrix_matches_oracle(&params, RouterConfig::unconstrained());
}

/// Deterministic budgets (DESIGN.md §11) are step counts, so exhaustion
/// — the `BudgetExhausted` event and the fallback completion path it
/// triggers — must land at the same stream position as the oracle's.
#[test]
fn budgeted_route_is_thread_and_shard_invariant() {
    use bgr::router::Budgets;
    let base = RouterConfig {
        budgets: Budgets {
            deletion_steps: Some(25),
            phase_reroutes: Some(2),
        },
        ..RouterConfig::default()
    };
    assert_matrix_matches_oracle(&GenParams::small(21), base);
}

/// Counters are diagnostics and *may* differ across configurations —
/// but the scoreboard's work counters (key evaluations, density
/// queries, memo and heap traffic, kernel paths) are a pure function of
/// the input: a second run repeats every one of them exactly.
#[test]
fn scan_counters_are_thread_invariant() {
    use bgr::router::Counter;
    let params = GenParams::small(21);
    let reference = route_traced(&params, RouterConfig::default()).1;
    assert!(
        reference.counter(Counter::HypSubtree) > 0,
        "the constrained route exercises the subtree kernel"
    );
    let trace = route_traced(&params, RouterConfig::default()).1;
    for c in [
        Counter::KeyEval,
        Counter::DensityWindowQuery,
        Counter::DensityAggregateQuery,
        Counter::HypCacheHit,
        Counter::HypCacheMiss,
        Counter::DelayMemoHit,
        Counter::DelayMemoMiss,
        Counter::HeapPush,
        Counter::HeapPop,
        Counter::StaleHeapPop,
        Counter::RekeyGraph,
        Counter::RekeySpan,
        Counter::RekeyConstraint,
        Counter::HypBaseHit,
        Counter::HypSubtree,
        Counter::HypFallback,
    ] {
        assert_eq!(
            trace.counter(c),
            reference.counter(c),
            "{} diverged between runs",
            c.label()
        );
    }
    // Every hypothetical-length miss takes exactly one kernel path.
    assert_eq!(
        trace.counter(Counter::HypBaseHit)
            + trace.counter(Counter::HypSubtree)
            + trace.counter(Counter::HypFallback),
        trace.counter(Counter::HypCacheMiss),
        "kernel paths do not sum to the misses"
    );
}
