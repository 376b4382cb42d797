//! Replays that time single layers through public functions only.
//!
//! * [`replay_snapshot`] rebuilds every net's routing graph and the
//!   density map from an [`EngineSnapshot`] and times the
//!   hypothetical-length kernel, `DelayCriteria::evaluate` and density
//!   window queries over the candidates the engine would key.
//! * [`replay_chain`] replays one job's slice chain through the calls
//!   `bgr_serve::run_slice` makes (parse → resume → step → snapshot +
//!   write, or finish + audit), plus the frame round trip a worker
//!   result takes and the coordinator's journal append.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bgr_core::criteria::{DelayCriteria, HypWire};
use bgr_core::density::DensityMap;
use bgr_core::tentative::tentative_length_um;
use bgr_core::{
    CollectingProbe, EngineSnapshot, REdgeKind, RouteSession, RouterConfig, RoutingGraph,
    StepOutcome,
};
use bgr_gen::DataSet;
use bgr_io::{
    deterministic_event_lines, parse_checkpoint, read_journal, write_checkpoint,
    write_trace_jsonl_offset, JournalWriter,
};
use bgr_net::{decode_frame, encode_frame, Message, WireOutcome};
use bgr_netlist::NetId;
use bgr_serve::{FinishVerdict, SliceOutcome};
use bgr_timing::{PathConstraint, Sta};
use bgr_verify::audit;

use crate::spans::Tracer;

/// Minimum wall time of a timed replay loop, so per-call figures of
/// sub-microsecond calls are not dominated by clock reads.
const MIN_LOOP_S: f64 = 0.05;

/// Per-call costs measured on one snapshot.
#[derive(Debug, Clone, Default)]
pub struct SnapshotReplay {
    /// µs per `tentative_length_um(g, Some(e))`.
    pub tentative_us_per_call: f64,
    /// Mean routing-graph vertex count behind those calls.
    pub vertices_per_call: f64,
    /// µs per `DelayCriteria::evaluate`.
    pub criteria_us_per_call: f64,
    /// ns per `DensityMap::edge_density`.
    pub density_ns_per_call: f64,
}

/// Runs `pass` until at least [`MIN_LOOP_S`] elapsed; returns the
/// seconds per pass.
fn per_pass(mut pass: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut passes = 0u32;
    loop {
        pass();
        passes += 1;
        let s = t.elapsed().as_secs_f64();
        if s >= MIN_LOOP_S {
            return s / f64::from(passes);
        }
    }
}

/// Rebuilds the snapshot's graphs and density and times the kernel,
/// the delay criteria and density window queries. `constraints` picks
/// the constrained nets (the design's constraints, also for
/// unconstrained routes, so the kernel's per-call cost is defined on
/// every workload).
///
/// # Errors
///
/// A message when the constraints cannot be analysed or a rebuilt
/// graph is disconnected.
pub fn replay_snapshot(
    tracer: &mut Tracer,
    run: u64,
    snap: &EngineSnapshot,
    constraints: &[PathConstraint],
) -> Result<SnapshotReplay, String> {
    let graphs: Vec<RoutingGraph> = tracer.time("replay.graph_build", None, run, || {
        snap.circuit
            .net_ids()
            .map(|n| {
                let mut g = RoutingGraph::build_with_channel_branches(
                    &snap.circuit,
                    &snap.placement,
                    n,
                    &snap.feeds[n.index()],
                    &snap.branch_lens,
                );
                g.set_alive_mask(&snap.alive[n.index()]);
                g
            })
            .collect()
    });
    let mut sta = Sta::new(
        &snap.circuit,
        constraints.to_vec(),
        snap.config.delay_model,
        snap.config.wire,
    )
    .map_err(|e| format!("replay timing graph: {e}"))?;
    for (i, g) in graphs.iter().enumerate() {
        let len = tentative_length_um(g, None)
            .ok_or_else(|| format!("replayed graph of net {i} is disconnected"))?;
        sta.set_net_length(NetId::new(i), len);
    }
    let candidates: Vec<(usize, u32)> = graphs
        .iter()
        .enumerate()
        .filter(|(i, _)| !sta.constraints_of_net(NetId::new(*i)).is_empty())
        .flat_map(|(i, g)| g.non_bridge_edges().map(move |e| (i, e)))
        .collect();
    let mut out = SnapshotReplay::default();

    let mut lens = vec![0.0; candidates.len()];
    let span = tracer.open("replay.tentative", None, run);
    let pass_s = per_pass(|| {
        for (slot, &(i, e)) in lens.iter_mut().zip(&candidates) {
            *slot = black_box(tentative_length_um(black_box(&graphs[i]), Some(e)))
                .expect("deleting a non-bridge edge keeps the net connected");
        }
    });
    tracer.close(span);
    let calls = candidates.len().max(1) as f64;
    out.tentative_us_per_call = pass_s * 1e6 / calls;
    out.vertices_per_call = candidates
        .iter()
        .map(|&(i, _)| graphs[i].verts().len() as f64)
        .sum::<f64>()
        / calls;

    let hyps: Vec<HypWire> = candidates
        .iter()
        .zip(&lens)
        .map(|(&(i, _), &length_um)| {
            let (cl_ff, rc_ps) = sta.lengths().wire_terms_at(NetId::new(i), length_um);
            HypWire {
                length_um,
                cl_ff,
                rc_ps,
            }
        })
        .collect();
    let span = tracer.open("replay.criteria", None, run);
    let pass_s = per_pass(|| {
        for (&(i, _), hyp) in candidates.iter().zip(&hyps) {
            black_box(DelayCriteria::evaluate(&sta, NetId::new(i), black_box(hyp)));
        }
    });
    tracer.close(span);
    out.criteria_us_per_call = pass_s * 1e6 / calls;

    let mut density = DensityMap::new(
        snap.placement.num_channels(),
        snap.placement.width_pitches().max(1) as usize,
    );
    let mut windows = Vec::new();
    for g in &graphs {
        for e in g.alive_edges() {
            let edge = &g.edges()[e as usize];
            if let REdgeKind::Trunk { channel } = edge.kind {
                density.add_span(channel, edge.x1, edge.x2, g.width() as i32, g.is_bridge(e));
                windows.push((channel, edge.x1, edge.x2));
            }
        }
    }
    let span = tracer.open("replay.density", None, run);
    let pass_s = per_pass(|| {
        for &(c, x1, x2) in &windows {
            black_box(density.edge_density(c, black_box(x1), x2));
        }
    });
    tracer.close(span);
    out.density_ns_per_call = pass_s * 1e9 / windows.len().max(1) as f64;
    Ok(out)
}

/// What a replayed slice chain produced.
#[derive(Debug, Clone, Default)]
pub struct ChainReplay {
    /// Slices replayed.
    pub slices: u64,
    /// Mean serialized checkpoint size, bytes.
    pub checkpoint_bytes: f64,
    /// Journal file bytes per appended record.
    pub journal_bytes: f64,
    /// The completion verdict, when the chain ran to the end.
    pub verdict: Option<FinishVerdict>,
}

/// Replays one job's slice chain with `quota` selections per slice,
/// stopping after `limit` slices when given. Spans (run `run`):
/// `serve.slice` per slice with children `io.checkpoint_parse`,
/// `serve.resume`, `serve.step`, `io.checkpoint_write`,
/// `serve.trace_extract`, `serve.finish`, `verify.audit` and
/// `net.frame_roundtrip`; `io.journal_append` per slice outside it.
///
/// # Errors
///
/// A message on any structural failure, or when a frame or the
/// journal does not round-trip.
pub fn replay_chain(
    tracer: &mut Tracer,
    run: u64,
    ds: &DataSet,
    config: &RouterConfig,
    quota: u64,
    limit: Option<u64>,
    journal: &Path,
) -> Result<ChainReplay, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut checkpoint = tracer
        .time("serve.materialize", None, run, || {
            RouteSession::start(
                config.clone(),
                ds.design.circuit.clone(),
                ds.placement.clone(),
                ds.design.constraints.clone(),
                CollectingProbe::new(),
            )
            .map(|s| write_checkpoint(&s.snapshot()))
        })
        .map_err(|e| err(&e))?;
    let mut writer = JournalWriter::create(journal).map_err(|e| err(&e))?;
    let mut out = ChainReplay::default();
    let mut cp_bytes = 0usize;
    loop {
        let slice = tracer.open("serve.slice", None, run);
        let p = Some(slice);
        let snap = tracer
            .time("io.checkpoint_parse", p, run, || {
                parse_checkpoint(&checkpoint)
            })
            .map_err(|e| err(&e))?;
        let start_events = snap.events_emitted;
        let constraints = snap.constraints.clone();
        let cfg = snap.config.clone();
        let mut session = tracer
            .time("serve.resume", p, run, || {
                RouteSession::resume(snap, CollectingProbe::new())
            })
            .map_err(|e| err(&e))?;
        let step = tracer
            .time("serve.step", p, run, || session.step(Some(quota)))
            .map_err(|e| err(&e))?;
        let outcome = match step {
            StepOutcome::Suspended => {
                let (snap, cp) = tracer.time("io.checkpoint_write", p, run, || {
                    let snap = session.snapshot();
                    let cp = write_checkpoint(&snap);
                    (snap, cp)
                });
                let selections_done = session.selections_done();
                let events_jsonl = tracer.time("serve.trace_extract", p, run, || {
                    let trace = session.into_probe().finish();
                    deterministic_event_lines(&write_trace_jsonl_offset(&trace, start_events))
                });
                cp_bytes += cp.len();
                SliceOutcome::Suspended {
                    checkpoint: cp,
                    stage: snap.stage.label(),
                    events_emitted: snap.events_emitted,
                    selections_done,
                    events_jsonl,
                }
            }
            StepOutcome::Ready => {
                let events_emitted = session.events_emitted();
                let selections_done = session.selections_done();
                let (routed, probe) = tracer
                    .time("serve.finish", p, run, || session.finish())
                    .map_err(|e| err(&e))?;
                let events_jsonl = tracer.time("serve.trace_extract", p, run, || {
                    deterministic_event_lines(&write_trace_jsonl_offset(
                        &probe.finish(),
                        start_events,
                    ))
                });
                let report = tracer.time("verify.audit", p, run, || {
                    audit(
                        &routed.circuit,
                        &routed.placement,
                        &constraints,
                        &cfg,
                        &routed.result,
                    )
                });
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
                    routed: None,
                    report: None,
                }
            }
        };
        let msg = Message::Result {
            job: 0,
            slice: out.slices,
            outcome: WireOutcome::from_outcome(&outcome),
        };
        let (payload, decoded) = tracer.time("net.frame_roundtrip", p, run, || {
            let payload = msg.encode_payload();
            let bytes = encode_frame(msg.kind(), &payload);
            let decoded = decode_frame(&bytes).map(|(frame, _)| Message::decode(&frame));
            (payload, decoded)
        });
        tracer.close(slice);
        match decoded {
            Ok(Ok(m)) if m == msg => {}
            other => return Err(format!("slice {} frame round trip: {other:?}", out.slices)),
        }
        tracer
            .time("io.journal_append", None, run, || {
                writer.append("result", &payload)
            })
            .map_err(|e| err(&e))?;
        out.slices += 1;
        match outcome {
            SliceOutcome::Suspended { checkpoint: cp, .. } => checkpoint = cp,
            SliceOutcome::Finished { verdict, .. } => {
                out.verdict = Some(verdict);
                break;
            }
            SliceOutcome::Failed { error } => return Err(err(&error)),
        }
        if limit.is_some_and(|l| out.slices >= l) {
            break;
        }
    }
    drop(writer);
    let bytes = std::fs::read(journal).map_err(|e| err(&e))?;
    let (entries, _) = read_journal(&bytes).map_err(|e| err(&e))?;
    if entries.len() as u64 != out.slices {
        return Err(format!(
            "journal replays {} records, {} slices appended",
            entries.len(),
            out.slices
        ));
    }
    let suspended = out.slices - u64::from(out.verdict.is_some());
    out.checkpoint_bytes = cp_bytes as f64 / suspended.max(1) as f64;
    out.journal_bytes = bytes.len() as f64 / out.slices.max(1) as f64;
    Ok(out)
}
