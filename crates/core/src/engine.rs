//! The deletion engine: global state and the `select_edge` /
//! `delete_and_modify` loop of Fig. 2 (lines 04–07).
//!
//! One [`Engine`] owns every net's routing graph, the channel-density
//! map, and the incremental timing analyzer. Each iteration selects the
//! best deletable (non-bridge) edge across every in-scope net, ranked by
//! [`crate::select::compare`], deletes the winner, and updates bridges,
//! densities, tentative lengths and margins — so the wiring of all nets
//! is determined *concurrently*, as the paper emphasizes.
//!
//! # Incremental selection
//!
//! Selection runs on a [`Scoreboard`](crate::scoreboard::Scoreboard) by
//! default: every deletable edge's **raw** [`EdgeKey`] — delay prefix
//! plus the edge's own density window, *without* the channel
//! aggregates — sits in its channel's heap with generation-stamped
//! lazy invalidation, and the aggregates are composed in at pop time
//! (see the scoreboard docs for why in-heap order is invariant under
//! composition). After a deletion only the *dirty* nets are re-keyed;
//! since aggregates are not stored, aggregate motion dirties **no**
//! net. The dirty set is derived from explicit invalidation hooks:
//!
//! * **graph** — the deleted net and its cascaded partner (their
//!   [`RoutingGraph::generation`] advanced: alive set, bridges, pruning);
//! * **density window** — nets whose trunk interval overlaps a
//!   *touched span* (removed, pruned or promoted) of a touched
//!   channel, found through a static channel → nets reverse index:
//!   their raw window terms read the density profile there. Branch and
//!   feed keys carry no window terms and never go stale this way;
//! * **timing** — every member net of each constraint the analyzer
//!   refreshed ([`bgr_timing::Sta::nets_of_constraint`]); a length
//!   change moves that constraint's longest paths and margins, which
//!   feed the delay criteria of all member nets.
//!
//! A net dirty for several reasons at once is *counted* once, under a
//! deterministic precedence (graph > span-overlap > constraint — see
//! [`derive_dirty`] and DESIGN.md §9); the dirty *set* is independent
//! of the attribution.
//!
//! Nets outside the dirty set provably keep their keys, so the
//! scoreboard's pool always equals what a full rescan would compute.
//! The rescan itself remains available as
//! [`SelectionStrategy::FullRescan`] — an executable oracle used by the
//! differential tests to prove byte-identical deletion sequences.
//!
//! # Per-net scan state
//!
//! Each net carries a private [`NetScanState`]: the cache of *hypothetical
//! wire states* (tentative-tree length assuming an edge's deletion,
//! keyed on the owning graph's generation) and the *delay-prefix memo*
//! (the `C_d/Gl/LD` triple of an edge, keyed on the graph generation
//! **and** the summed generations of the net's timing constraints — so
//! density-only invalidations reuse it and skip the delay recomputation
//! entirely).

use std::collections::BTreeMap;

use bgr_layout::ChannelId;
use bgr_netlist::NetId;
use bgr_timing::Sta;

use crate::config::{CriteriaOrder, SelectionStrategy, VerifyLevel};
use crate::criteria::{DelayCriteria, HypWire};
use crate::density::DensityMap;
use crate::graph::{REdgeKind, RoutingGraph};
use crate::probe::{
    Corruption, Counter, Hist, NoopProbe, Phase, Probe, RekeyCause, RekeyCauses, Scope, TraceEvent,
};
use crate::scoreboard::Scoreboard;
use crate::select::{compare, deciding_tier, DecidingTier, EdgeKey};
use crate::tentative::{tentative_length_um, HypKernel, HypPath};

/// Per-net cache of hypothetical wire states, valid only while the
/// owning graph's generation matches `stamp`.
#[derive(Debug, Default)]
struct HypCache {
    stamp: u64,
    slots: Vec<Option<HypWire>>,
    /// Base shortest-path tree of the `stamp` generation, built on its
    /// first miss and dropped at the end of each scan: a scan keys
    /// every deletable edge, so the generation misses no more and the
    /// tree would only hold memory. Boxed so the per-net state stays
    /// small while no kernel is live.
    kernel: Option<Box<HypKernel>>,
}

/// Per-net memo of the delay prefix (`C_d`, `Gl`, `LD`) of an edge's
/// key, valid while the owning graph's generation **and** the summed
/// generations of the net's constraints both match. Density-only
/// invalidations (`span_overlap`) move neither, so their re-keys skip
/// the hypothetical-wire path entirely.
///
/// The constraint stamp is the *sum* of
/// [`Sta::constraint_generation`] over the net's constraints: each
/// refresh strictly increases one term, so the sum is strictly
/// monotonic and can never alias a previous state.
#[derive(Debug, Default)]
struct DelayMemo {
    graph_stamp: u64,
    sta_stamp: u64,
    slots: Vec<Option<DelayCriteria>>,
}

/// The mutable state one champion scan needs (see the
/// [module docs](self)).
#[derive(Debug, Default)]
struct NetScanState {
    hyp: HypCache,
    memo: DelayMemo,
}

/// Probe counters accumulated by one scan, flushed to the engine's
/// probe when the scan ends.
#[derive(Debug, Default, Clone, Copy)]
struct ScanCounters {
    key_evals: u64,
    hyp_hits: u64,
    hyp_misses: u64,
    hyp_base_hits: u64,
    hyp_subtree: u64,
    hyp_fallbacks: u64,
    memo_hits: u64,
    memo_misses: u64,
    window_queries: u64,
    aggregate_queries: u64,
}

impl ScanCounters {
    fn flush<P: Probe>(&self, probe: &mut P) {
        if !P::ENABLED {
            return;
        }
        probe.count(Counter::KeyEval, self.key_evals);
        probe.count(Counter::HypCacheHit, self.hyp_hits);
        probe.count(Counter::HypCacheMiss, self.hyp_misses);
        probe.count(Counter::HypBaseHit, self.hyp_base_hits);
        probe.count(Counter::HypSubtree, self.hyp_subtree);
        probe.count(Counter::HypFallback, self.hyp_fallbacks);
        probe.count(Counter::DelayMemoHit, self.memo_hits);
        probe.count(Counter::DelayMemoMiss, self.memo_misses);
        probe.count(Counter::DensityWindowQuery, self.window_queries);
        probe.count(Counter::DensityAggregateQuery, self.aggregate_queries);
    }
}

/// Hypothetical wire state if `e` of `net` were deleted (cached until
/// the graph's generation moves). A miss asks the generation's
/// [`HypKernel`], which re-runs Dijkstra only below `e`.
fn hyp_for(
    g: &RoutingGraph,
    sta: &Sta,
    net: NetId,
    e: u32,
    cache: &mut HypCache,
    c: &mut ScanCounters,
) -> HypWire {
    let gen = g.generation();
    if cache.stamp != gen || cache.slots.len() != g.edges().len() {
        cache.slots.clear();
        cache.slots.resize(g.edges().len(), None);
        cache.stamp = gen;
        cache.kernel = None;
    }
    if let Some(h) = cache.slots[e as usize] {
        c.hyp_hits += 1;
        return h;
    }
    c.hyp_misses += 1;
    let (len, path) = cache
        .kernel
        .get_or_insert_with(|| Box::new(HypKernel::build(g)))
        .length_without(g, e);
    match path {
        HypPath::Base => c.hyp_base_hits += 1,
        HypPath::Subtree => c.hyp_subtree += 1,
        HypPath::Fallback => c.hyp_fallbacks += 1,
    }
    let len = len.expect("§3.2 invariant: deleting a non-bridge edge keeps the net connected");
    let (cl_ff, rc_ps) = sta.lengths().wire_terms_at(net, len);
    let h = HypWire {
        length_um: len,
        cl_ff,
        rc_ps,
    };
    cache.slots[e as usize] = Some(h);
    h
}

/// The summed constraint-generation stamp of `net` (see [`DelayMemo`]).
fn net_timing_stamp(sta: &Sta, net: NetId) -> u64 {
    sta.constraints_of_net(net)
        .iter()
        .map(|&cid| sta.constraint_generation(cid as usize))
        .sum()
}

/// The delay prefix of `(net, e)`'s key, through the memo. Only called
/// for constrained nets.
fn delay_for(
    g: &RoutingGraph,
    sta: &Sta,
    net: NetId,
    e: u32,
    state: &mut NetScanState,
    c: &mut ScanCounters,
) -> DelayCriteria {
    let graph_stamp = g.generation();
    let sta_stamp = net_timing_stamp(sta, net);
    let memo = &mut state.memo;
    if memo.graph_stamp != graph_stamp
        || memo.sta_stamp != sta_stamp
        || memo.slots.len() != g.edges().len()
    {
        memo.slots.clear();
        memo.slots.resize(g.edges().len(), None);
        memo.graph_stamp = graph_stamp;
        memo.sta_stamp = sta_stamp;
    }
    if let Some(d) = state.memo.slots[e as usize] {
        c.memo_hits += 1;
        return d;
    }
    c.memo_misses += 1;
    let hyp = hyp_for(g, sta, net, e, &mut state.hyp, c);
    let d = DelayCriteria::evaluate(sta, net, &hyp);
    state.memo.slots[e as usize] = Some(d);
    d
}

/// Builds the full comparison key for a deletable edge of `net` (the
/// body of [`Engine::edge_key`]).
fn scan_edge_key(
    g: &RoutingGraph,
    density: &DensityMap,
    sta: &Sta,
    net: NetId,
    e: u32,
    state: &mut NetScanState,
    c: &mut ScanCounters,
) -> EdgeKey {
    c.key_evals += 1;
    let delay = if sta.constraints_of_net(net).is_empty() {
        DelayCriteria::default()
    } else {
        delay_for(g, sta, net, e, state, c)
    };
    let edge = g.edges()[e as usize];
    let (is_trunk, f_min, n_min, f_max, n_max) = match edge.kind {
        REdgeKind::Trunk { channel } => {
            c.window_queries += 1;
            c.aggregate_queries += 1;
            let ed = density.edge_density(channel, edge.x1, edge.x2);
            (
                true,
                density.c_min(channel) - ed.d_min,
                density.nc_min(channel) - ed.nd_min,
                density.c_max(channel) - ed.d_max,
                density.nc_max(channel) - ed.nd_max,
            )
        }
        REdgeKind::Branch { channel } => {
            c.aggregate_queries += 1;
            (
                false,
                density.c_min(channel),
                density.nc_min(channel),
                density.c_max(channel),
                density.nc_max(channel),
            )
        }
        REdgeKind::FeedHalf { .. } => (false, 0, 0, 0, 0),
    };
    EdgeKey {
        delay,
        is_trunk,
        f_min,
        n_min,
        f_max,
        n_max,
        len_um: edge.len_um,
        net,
        edge: e,
    }
}

/// `net`'s *champion*: the minimum key over its deletable edges, found
/// with the strict-less linear scan shared by both selection
/// strategies.
fn scan_champion(
    g: &RoutingGraph,
    density: &DensityMap,
    sta: &Sta,
    net: NetId,
    order: CriteriaOrder,
    state: &mut NetScanState,
    c: &mut ScanCounters,
) -> Option<EdgeKey> {
    let mut best: Option<EdgeKey> = None;
    for e in 0..g.edges().len() as u32 {
        if !g.is_alive(e) || g.is_bridge(e) {
            continue;
        }
        let key = scan_edge_key(g, density, sta, net, e, state, c);
        let better = match &best {
            None => true,
            Some(b) => compare(&key, b, order) == std::cmp::Ordering::Less,
        };
        if better {
            best = Some(key);
        }
    }
    state.hyp.kernel = None;
    best
}

/// Builds the **raw** (composition-free) key for a deletable edge of
/// `net`, plus the channel heap it belongs to (`None` = the
/// channelless feed heap). Raw trunk keys carry the *negated* own
/// window terms, so adding the channel aggregates at pop time yields
/// exactly [`scan_edge_key`]'s composed values; branch and feed keys
/// carry zero density terms (see the scoreboard docs).
fn scan_edge_key_raw(
    g: &RoutingGraph,
    density: &DensityMap,
    sta: &Sta,
    net: NetId,
    e: u32,
    state: &mut NetScanState,
    c: &mut ScanCounters,
) -> (EdgeKey, Option<ChannelId>) {
    c.key_evals += 1;
    let delay = if sta.constraints_of_net(net).is_empty() {
        DelayCriteria::default()
    } else {
        delay_for(g, sta, net, e, state, c)
    };
    let edge = g.edges()[e as usize];
    let (is_trunk, f_min, n_min, f_max, n_max, channel) = match edge.kind {
        REdgeKind::Trunk { channel } => {
            c.window_queries += 1;
            let ed = density.edge_density(channel, edge.x1, edge.x2);
            (
                true,
                -ed.d_min,
                -ed.nd_min,
                -ed.d_max,
                -ed.nd_max,
                Some(channel),
            )
        }
        REdgeKind::Branch { channel } => (false, 0, 0, 0, 0, Some(channel)),
        REdgeKind::FeedHalf { .. } => (false, 0, 0, 0, 0, None),
    };
    (
        EdgeKey {
            delay,
            is_trunk,
            f_min,
            n_min,
            f_max,
            n_max,
            len_um: edge.len_um,
            net,
            edge: e,
        },
        channel,
    )
}

/// The scoreboard re-key payload of `net`: the per-heap **minimum**
/// raw key over its deletable (alive, non-bridge) edges, in first-seen
/// heap order. Every deletable edge is still evaluated, but only one
/// key per heap is kept: composition adds the same aggregates to every
/// key of a heap, so a net's dominated raw keys there can never become
/// its champion — pushing them would only bloat the heaps (ties cannot
/// occur: [`compare`] ends in a net/edge id tie-break).
fn scan_raw_keys(
    g: &RoutingGraph,
    density: &DensityMap,
    sta: &Sta,
    net: NetId,
    order: CriteriaOrder,
    state: &mut NetScanState,
    c: &mut ScanCounters,
) -> Vec<(EdgeKey, Option<ChannelId>)> {
    let mut out: Vec<(EdgeKey, Option<ChannelId>)> = Vec::new();
    for e in 0..g.edges().len() as u32 {
        if !g.is_alive(e) || g.is_bridge(e) {
            continue;
        }
        let (key, channel) = scan_edge_key_raw(g, density, sta, net, e, state, c);
        match out.iter_mut().find(|(_, ch)| *ch == channel) {
            None => out.push((key, channel)),
            Some(slot) => {
                if compare(&key, &slot.0, order) == std::cmp::Ordering::Less {
                    slot.0 = key;
                }
            }
        }
    }
    state.hyp.kernel = None;
    out
}

/// Derives the dirty set of one deletion with a **deterministic
/// per-net cause attribution**: a net dirty for several reasons is
/// returned once, attributed to the highest-precedence cause —
/// [`RekeyCause::Graph`] > [`RekeyCause::SpanOverlap`] >
/// [`RekeyCause::Constraint`] — independent of the order channels were
/// touched in (DESIGN.md §9). Returns `(net, cause)` pairs in
/// ascending net-id order.
///
/// Aggregate motion is *not* a dirty cause: raw keys carry no
/// aggregates, and the scoreboard composes them in at every pop.
///
/// Each argument is one clause of the dirty-set derivation (§8); they
/// stay separate so the signature reads as the specification.
fn derive_dirty<'a>(
    in_scope: &[bool],
    graph_nets: &[NetId],
    spans: &[(ChannelId, i32, i32)],
    channel_nets: &[Vec<(NetId, i32, i32)>],
    refreshed_constraints: &[u32],
    nets_of_constraint: impl Fn(usize) -> &'a [NetId],
) -> Vec<(NetId, RekeyCause)> {
    let mut dirty: BTreeMap<NetId, RekeyCause> = BTreeMap::new();
    // Insertion passes run in precedence order; `or_insert` keeps the
    // first (highest-precedence) attribution.
    for &n in graph_nets {
        if in_scope[n.index()] {
            dirty.entry(n).or_insert(RekeyCause::Graph);
        }
    }
    for &(c, x1, x2) in spans {
        // A touched span moves the density profile over `[x1, x2]`;
        // only trunk keys whose interval overlaps it can have changed
        // raw window terms. Branch-only nets carry the empty sentinel
        // `(MAX, MIN)` and never match.
        for &(n, lo, hi) in &channel_nets[c.index()] {
            if in_scope[n.index()] && lo <= x2 && x1 <= hi {
                dirty.entry(n).or_insert(RekeyCause::SpanOverlap);
            }
        }
    }
    for &cid in refreshed_constraints {
        for &n in nets_of_constraint(cid as usize) {
            if in_scope[n.index()] {
                dirty.entry(n).or_insert(RekeyCause::Constraint);
            }
        }
    }
    dirty.into_iter().collect()
}

/// Outcome of one [`Engine::continue_deletion`] slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeletionRun {
    /// Selections performed by this slice (not counting the `start`
    /// offset).
    pub selections: u64,
    /// `true` when the in-scope candidate pool drained — every in-scope
    /// graph is all-bridges — rather than the slice stopping at `stop`.
    pub complete: bool,
}

/// Mutable routing state shared by the initial-routing and improvement
/// phases.
///
/// Generic over the [`Probe`] observing it; the default [`NoopProbe`]
/// compiles every instrumentation site away (see [`crate::probe`]).
#[derive(Debug)]
pub struct Engine<P: Probe = NoopProbe> {
    graphs: Vec<RoutingGraph>,
    density: DensityMap,
    sta: Sta,
    /// Per-net scan state (hyp cache + delay memo).
    scan: Vec<NetScanState>,
    partner: Vec<Option<NetId>>,
    /// Static reverse index: per channel, every net owning at least one
    /// trunk or branch edge there, with the bounding interval of its
    /// *trunk* edges (empty sentinel when the net only branches into the
    /// channel — branch keys read aggregates only). Edge sets never
    /// grow, so this needs no maintenance; dead edges only make it
    /// conservative.
    channel_nets: Vec<Vec<(NetId, i32, i32)>>,
    selection: SelectionStrategy,
    /// Density spans touched during the current deletion (scratch,
    /// drained by the scoreboard loop).
    delta_spans: Vec<(ChannelId, i32, i32)>,
    /// Constraints the analyzer refreshed during the current deletion.
    delta_cons: Vec<u32>,
    /// Nets whose graph changed during the current deletion.
    delta_nets: Vec<NetId>,
    /// Every selection made by `run_deletion`, in order — the audit
    /// trail compared across strategies by the oracle tests.
    pub selection_log: Vec<(NetId, u32)>,
    /// Diagnostic: nets re-keyed by the scoreboard path, by typed
    /// [`RekeyCause`].
    pub rekey_causes: RekeyCauses,
    /// Total edges deleted (selected + cascaded + pruned).
    pub deletions: usize,
    /// Total nets ripped up and rerouted.
    pub reroutes: usize,
    /// Self-audit level ([`Engine::set_verify`]); `Off` emits nothing.
    verify: VerifyLevel,
    /// Self-audits passed ([`Engine::audit_state`] runs).
    pub audits_passed: u64,
    /// Total comparisons performed across passed self-audits.
    pub audit_checks: u64,
    /// Injected [`Corruption::StaleChampion`] net: re-keying silently
    /// drops its fresh candidates. Always `None` outside fault tests.
    frozen: Option<NetId>,
    /// Injected [`Corruption::SkewDelay`] bias: `refresh_length` adds
    /// the extra to this net's memoized length. Always `None` outside
    /// fault tests.
    skew: Option<(NetId, f64)>,
    /// The instrumentation sink.
    probe: P,
}

impl Engine<NoopProbe> {
    /// Creates an unobserved engine over freshly built routing graphs.
    ///
    /// `partner[net]` marks differential-pair lockstep partners whose
    /// graphs have been verified homogeneous (§4.1); deletions cascade to
    /// them.
    pub fn new(
        graphs: Vec<RoutingGraph>,
        sta: Sta,
        partner: Vec<Option<NetId>>,
        num_channels: usize,
        chip_width: usize,
    ) -> Self {
        Self::with_probe(graphs, sta, partner, num_channels, chip_width, NoopProbe)
    }
}

impl<P: Probe> Engine<P> {
    /// [`Engine::new`] with an explicit [`Probe`] (moved in; retrieve it
    /// with [`Engine::into_parts`] or borrow via [`Engine::probe_mut`]).
    pub fn with_probe(
        mut graphs: Vec<RoutingGraph>,
        sta: Sta,
        partner: Vec<Option<NetId>>,
        num_channels: usize,
        chip_width: usize,
        probe: P,
    ) -> Self {
        let mut density = DensityMap::new(num_channels, chip_width);
        for g in &mut graphs {
            g.prune_dangling();
            g.recompute_bridges();
        }
        for g in &graphs {
            let w = g.width() as i32;
            for e in g.alive_edges() {
                let edge = &g.edges()[e as usize];
                if let REdgeKind::Trunk { channel } = edge.kind {
                    density.add_span(channel, edge.x1, edge.x2, w, g.is_bridge(e));
                }
            }
        }
        let scan = graphs.iter().map(|_| NetScanState::default()).collect();
        let mut channel_nets: Vec<Vec<(NetId, i32, i32)>> = vec![Vec::new(); num_channels];
        for (i, g) in graphs.iter().enumerate() {
            // (channel, trunk bounding interval); the empty sentinel
            // (MAX, MIN) never overlaps anything.
            let mut bounds = vec![(i32::MAX, i32::MIN); num_channels];
            let mut present = vec![false; num_channels];
            for e in g.edges() {
                let Some(c) = e.kind.channel() else { continue };
                present[c.index()] = true;
                if matches!(e.kind, REdgeKind::Trunk { .. }) {
                    let b = &mut bounds[c.index()];
                    b.0 = b.0.min(e.x1);
                    b.1 = b.1.max(e.x2);
                }
            }
            for c in 0..num_channels {
                if present[c] {
                    channel_nets[c].push((NetId::new(i), bounds[c].0, bounds[c].1));
                }
            }
        }
        let mut engine = Self {
            graphs,
            density,
            sta,
            scan,
            partner,
            channel_nets,
            selection: SelectionStrategy::default(),
            delta_spans: Vec::new(),
            delta_cons: Vec::new(),
            delta_nets: Vec::new(),
            selection_log: Vec::new(),
            rekey_causes: RekeyCauses::default(),
            deletions: 0,
            reroutes: 0,
            verify: VerifyLevel::Off,
            audits_passed: 0,
            audit_checks: 0,
            frozen: None,
            skew: None,
            probe,
        };
        for i in 0..engine.graphs.len() {
            engine.refresh_length(NetId::new(i));
        }
        engine.clear_delta();
        engine
    }

    /// The instrumentation sink (e.g. to emit phase markers).
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// The instrumentation sink, immutably.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// The routing graphs, indexed by net.
    pub fn graphs(&self) -> &[RoutingGraph] {
        &self.graphs
    }

    /// The density map.
    pub fn density(&self) -> &DensityMap {
        &self.density
    }

    /// The timing analyzer.
    pub fn sta(&self) -> &Sta {
        &self.sta
    }

    /// Lockstep partner of a net, if any.
    pub fn partner(&self, net: NetId) -> Option<NetId> {
        self.partner[net.index()]
    }

    /// Selects the candidate-selection strategy for subsequent
    /// [`Engine::run_deletion`] calls. Both strategies produce identical
    /// deletion sequences; `FullRescan` is the testing oracle.
    pub fn set_selection(&mut self, selection: SelectionStrategy) {
        self.selection = selection;
    }

    /// Selects the self-audit level. `Steps` audits inside the deletion
    /// loops; `Phases`/`Final` audits are driven by the router at phase
    /// boundaries. The default `Off` performs and emits nothing, so
    /// traces stay byte-identical to an unverified run.
    pub fn set_verify(&mut self, verify: VerifyLevel) {
        self.verify = verify;
    }

    fn clear_delta(&mut self) {
        self.delta_spans.clear();
        self.delta_cons.clear();
        self.delta_nets.clear();
    }

    fn channel_aggregates(&self, channel: ChannelId) -> [i32; 4] {
        [
            self.density.c_max(channel),
            self.density.nc_max(channel),
            self.density.c_min(channel),
            self.density.nc_min(channel),
        ]
    }

    fn refresh_length(&mut self, net: NetId) {
        let mut len = tentative_length_um(&self.graphs[net.index()], None)
            .expect("§3.2 invariant: only non-bridge deletions run, so net graphs stay connected");
        if P::ENABLED {
            // SkewDelay injection lives *inside* the refresh so
            // improvement-phase snapshots/restores (which re-refresh)
            // cannot wash the corruption out.
            if let Some((n, extra)) = self.skew {
                if n == net {
                    len += extra;
                }
            }
        }
        if self.sta.set_net_length(net, len) {
            self.delta_cons
                .extend_from_slice(self.sta.constraints_of_net(net));
        }
    }

    /// Polls the probe for an injected state corruption and applies it
    /// to the incremental structures. Compiles away entirely under the
    /// default disabled probe; only fault-injection tests ever take the
    /// corruption branch.
    fn apply_corruption(&mut self) {
        if !P::ENABLED {
            return;
        }
        let Some(c) = self.probe.corruption() else {
            return;
        };
        match c {
            Corruption::FlipDensitySpan {
                channel,
                x1,
                x2,
                width,
            } => {
                // A phantom span no deletion logged: no touched span,
                // no re-keying — the incremental profile silently drifts
                // from what the alive trees imply.
                if (channel as usize) < self.density.num_channels() {
                    self.density
                        .add_span(ChannelId::new(channel as usize), x1, x2, width, false);
                }
            }
            Corruption::StaleChampion { net } => self.frozen = Some(net),
            Corruption::SkewDelay { net, extra_um } => {
                let first = self.skew.is_none();
                self.skew = Some((net, extra_um));
                if first {
                    self.refresh_length(net);
                }
            }
        }
    }

    /// Recomputes the density profile and every memoized net length
    /// from scratch and compares them against the incremental state;
    /// under [`VerifyLevel::Phases`] / [`VerifyLevel::Steps`] also
    /// checks every hypothetical length, exactly. Returns the
    /// number of comparisons performed.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on the first divergence; under
    /// [`crate::GlobalRouter::route_checked`] the panic surfaces as
    /// [`crate::RouteError::Internal`].
    pub fn audit_state(&self) -> u64 {
        let mut checks = 0u64;
        let mut fresh = DensityMap::new(self.density.num_channels(), self.density.width());
        for g in &self.graphs {
            let w = g.width() as i32;
            for e in g.alive_edges() {
                let edge = &g.edges()[e as usize];
                if let REdgeKind::Trunk { channel } = edge.kind {
                    fresh.add_span(channel, edge.x1, edge.x2, w, g.is_bridge(e));
                }
            }
        }
        for c in 0..self.density.num_channels() {
            let ch = ChannelId::new(c);
            let got = self.channel_aggregates(ch);
            let want = [
                fresh.c_max(ch),
                fresh.nc_max(ch),
                fresh.c_min(ch),
                fresh.nc_min(ch),
            ];
            checks += 4;
            assert!(
                got == want,
                "self-audit: density aggregates [C_M, NC_M, C_m, NC_m] of channel {c} diverged: \
                 incremental {got:?}, from-scratch {want:?}"
            );
        }
        for (i, g) in self.graphs.iter().enumerate() {
            let want = tentative_length_um(g, None)
                .expect("audited graphs stay connected (§3.2 invariant)");
            let got = self.sta.lengths().length_um(NetId::new(i));
            checks += 1;
            assert!(
                (got - want).abs() <= 1e-6,
                "self-audit: memoized length of net {i} diverged: \
                 incremental {got} um, from-scratch {want} um"
            );
        }
        if self.verify.at_phases() {
            checks += self.audit_hyp_lengths();
        }
        checks
    }

    /// Compares the hypothetical length of every deletable edge of every
    /// constrained net with the full Dijkstra, bit for bit: the cached
    /// slot where the current generation holds one, else a fresh
    /// [`HypKernel`] answer. Returns the number of edges compared — a
    /// function of the graph state alone, so it agrees across selection
    /// strategies and resumes even though cache contents do
    /// not. Graphs are trees at phase boundaries, so only the mid-loop
    /// audits of [`VerifyLevel::Steps`] find edges to compare.
    fn audit_hyp_lengths(&self) -> u64 {
        let mut checks = 0u64;
        for (i, (g, state)) in self.graphs.iter().zip(&self.scan).enumerate() {
            if self.sta.constraints_of_net(NetId::new(i)).is_empty() {
                continue;
            }
            let cache = &state.hyp;
            let current = cache.stamp == g.generation() && cache.slots.len() == g.edges().len();
            let mut fresh: Option<HypKernel> = None;
            for e in g.non_bridge_edges() {
                let got = match cache.slots[..].get(e as usize).copied().flatten() {
                    Some(h) if current => Some(h.length_um),
                    _ => {
                        fresh
                            .get_or_insert_with(|| HypKernel::build(g))
                            .length_without(g, e)
                            .0
                    }
                };
                let want = tentative_length_um(g, Some(e));
                checks += 1;
                assert!(
                    got.map(f64::to_bits) == want.map(f64::to_bits),
                    "self-audit: hypothetical length of net {i} without edge {e} diverged: \
                     kernel {got:?} um, full Dijkstra {want:?} um"
                );
            }
        }
        checks
    }

    /// [`Engine::audit_state`] recorded in the audit totals but emitting
    /// no trace event — the [`VerifyLevel::Final`] path, which must
    /// leave the deterministic event stream untouched.
    pub fn audit_silent(&mut self) -> u64 {
        let checks = self.audit_state();
        self.audits_passed += 1;
        self.audit_checks += checks;
        checks
    }

    /// [`Engine::audit_state`] at a phase boundary, emitting
    /// [`TraceEvent::AuditPassed`] — the [`VerifyLevel::Phases`] /
    /// [`VerifyLevel::Steps`] path, driven by the router after each
    /// engine phase.
    pub fn audit_phase(&mut self, phase: Phase) {
        let checks = self.audit_silent();
        self.probe.event(TraceEvent::AuditPassed { phase, checks });
    }

    /// Mid-loop audit hook: under [`VerifyLevel::Steps`], audits every
    /// N-th selection and emits [`TraceEvent::AuditStep`]. Called by
    /// both selection strategies at the same stream positions, so the
    /// events are strategy-independent. `step` is the *global* selection
    /// count (the loop's `start` offset plus this slice's selections) so
    /// a resumed run audits at the same stream positions as an
    /// uninterrupted one.
    fn maybe_step_audit(&mut self, step: u64) {
        if let Some(n) = self.verify.step_interval() {
            if step.is_multiple_of(n) {
                let checks = self.audit_silent();
                self.probe.event(TraceEvent::AuditStep { step, checks });
            }
        }
    }

    /// Builds the full comparison key for a deletable edge.
    pub fn edge_key(&mut self, net: NetId, e: u32) -> EdgeKey {
        let mut c = ScanCounters::default();
        let key = scan_edge_key(
            &self.graphs[net.index()],
            &self.density,
            &self.sta,
            net,
            e,
            &mut self.scan[net.index()],
            &mut c,
        );
        c.flush(&mut self.probe);
        key
    }

    fn remove_density(&mut self, net: NetId, e: u32) {
        let g = &self.graphs[net.index()];
        let edge = g.edges()[e as usize];
        if let REdgeKind::Trunk { channel } = edge.kind {
            let (w, bridge) = (g.width() as i32, g.is_bridge(e));
            self.delta_spans.push((channel, edge.x1, edge.x2));
            self.density
                .remove_span(channel, edge.x1, edge.x2, w, bridge);
        }
    }

    /// Deletes one edge of one net and restores every invariant: density
    /// spans, pruned dangling chains, bridge flags (with `d_m`
    /// promotions), and the net's tentative length / margins. The
    /// hypothesis cache invalidates itself through the graph generation.
    ///
    /// Touched channels, refreshed constraints and the changed net are
    /// recorded in the engine's delta scratch for scoreboard re-keying.
    ///
    /// # Panics
    ///
    /// Panics if the edge is dead or a bridge.
    pub fn delete_one(&mut self, net: NetId, e: u32) {
        let ni = net.index();
        assert!(self.graphs[ni].is_alive(e), "edge already dead");
        assert!(!self.graphs[ni].is_bridge(e), "refusing to delete a bridge");
        self.remove_density(net, e);
        self.graphs[ni].delete_edge(e);
        self.deletions += 1;
        self.delta_nets.push(net);
        let pruned = self.graphs[ni].prune_dangling();
        self.deletions += pruned.len();
        if !pruned.is_empty() {
            self.probe.event(TraceEvent::Pruned {
                net,
                count: pruned.len() as u32,
            });
        }
        for pe in pruned {
            // Density removal uses the stale bridge flag, which is exactly
            // the status the span was added/promoted under.
            let g = &self.graphs[ni];
            let edge = g.edges()[pe as usize];
            if let REdgeKind::Trunk { channel } = edge.kind {
                let (w, bridge) = (g.width() as i32, g.is_bridge(pe));
                self.delta_spans.push((channel, edge.x1, edge.x2));
                self.density
                    .remove_span(channel, edge.x1, edge.x2, w, bridge);
            }
        }
        let old_bridge: Vec<bool> = (0..self.graphs[ni].edges().len() as u32)
            .map(|i| self.graphs[ni].is_bridge(i))
            .collect();
        self.graphs[ni].recompute_bridges();
        for i in 0..self.graphs[ni].edges().len() as u32 {
            let g = &self.graphs[ni];
            if g.is_alive(i) && !old_bridge[i as usize] && g.is_bridge(i) {
                let edge = g.edges()[i as usize];
                if let REdgeKind::Trunk { channel } = edge.kind {
                    let w = g.width() as i32;
                    self.delta_spans.push((channel, edge.x1, edge.x2));
                    self.density.promote_span(channel, edge.x1, edge.x2, w);
                }
            }
        }
        self.refresh_length(net);
        // Deletion always starts from a non-tree (a tree has only
        // bridges), so the transition fires exactly once per completion.
        if P::ENABLED && self.graphs[ni].is_tree() {
            self.probe.event(TraceEvent::NetBecameTree { net });
        }
    }

    /// Deletes an edge and cascades to the differential partner (§4.1):
    /// the homogeneous partner graph deletes the same edge index when it
    /// is still deletable there.
    pub fn delete_with_partner(&mut self, net: NetId, e: u32) {
        self.delete_one(net, e);
        if let Some(p) = self.partner[net.index()] {
            let pg = &self.graphs[p.index()];
            if pg.is_alive(e) && !pg.is_bridge(e) {
                self.probe
                    .event(TraceEvent::CascadeDeleted { net: p, edge: e });
                self.delete_one(p, e);
            }
        }
    }

    /// Runs the deletion loop over `scope` (all nets when `None`) until no
    /// in-scope non-bridge edge remains. Returns the number of selections.
    pub fn run_deletion(&mut self, scope: Option<&[NetId]>, order: CriteriaOrder) -> usize {
        self.continue_deletion(scope, order, 0, None).selections as usize
    }

    /// One *slice* of the deletion loop: picks up at global selection
    /// count `start` and runs until the in-scope candidate pool drains
    /// or the global count reaches `stop`.
    ///
    /// This is the resumable core of [`Engine::run_deletion`] (which is
    /// `continue_deletion(scope, order, 0, None)`); a budgeted caller
    /// follows a slice that hit the budget with
    /// `fallback_complete`. Because selection is memoryless — the
    /// scoreboard is rebuilt from the current graph/density/timing state
    /// at every entry, and that state is a pure function of the alive
    /// masks — running the loop in slices produces exactly the
    /// selections, trace events and step audits of one uninterrupted
    /// run: `start` only offsets the step counter fed to
    /// [`TraceEvent::AuditStep`] and the `stop` comparison, both of
    /// which are global positions (DESIGN.md §13).
    pub fn continue_deletion(
        &mut self,
        scope: Option<&[NetId]>,
        order: CriteriaOrder,
        start: u64,
        stop: Option<u64>,
    ) -> DeletionRun {
        match self.selection {
            SelectionStrategy::Scoreboard => {
                self.run_deletion_scoreboard(scope, order, start, stop)
            }
            SelectionStrategy::FullRescan => self.run_deletion_rescan(scope, order, start, stop),
        }
    }

    /// Post-budget completion: deletes first-deletable edges until every
    /// in-scope graph is a tree. Returns the number of fallback
    /// deletions; emits nothing when there was nothing left to do.
    ///
    /// Otherwise it emits [`TraceEvent::BudgetExhausted`] (attributed to
    /// [`Phase::InitialRouting`] — the only phase the session budgets)
    /// and then, per net in ascending id order, repeatedly deletes the
    /// first alive non-bridge edge until only bridges remain. The
    /// fallback skips all key evaluation, so it is cheap, and it is a
    /// pure function of the graph state at the stop point — which both
    /// selection strategies reach identically — so the trace stream
    /// stays byte-identical across strategies. Every graph still ends a
    /// spanning tree (the loop only terminates on all-bridges).
    pub(crate) fn fallback_complete(&mut self, scope: Option<&[NetId]>, steps_used: u64) -> usize {
        let nets: Vec<NetId> = match scope {
            Some(s) => s.to_vec(),
            None => (0..self.graphs.len()).map(NetId::new).collect(),
        };
        let deletable = |g: &RoutingGraph| g.alive_edges().find(|&e| !g.is_bridge(e));
        if !nets
            .iter()
            .any(|&n| deletable(&self.graphs[n.index()]).is_some())
        {
            return 0;
        }
        self.probe.event(TraceEvent::BudgetExhausted {
            phase: crate::probe::Phase::InitialRouting,
            steps: steps_used,
        });
        let mut extra = 0;
        for &net in &nets {
            while let Some(e) = deletable(&self.graphs[net.index()]) {
                self.probe
                    .event(TraceEvent::FallbackDeleted { net, edge: e });
                self.clear_delta();
                self.delete_with_partner(net, e);
                self.selection_log.push((net, e));
                extra += 1;
            }
        }
        extra
    }

    /// The naive oracle: recomputes every in-scope candidate key each
    /// iteration and linearly scans for the minimum. The scan runs
    /// per-net champion (min over champions == global min under the
    /// total selection order), which lets it track the *runner-up
    /// champion* — the same runner-up the scoreboard observes — for
    /// strategy-independent decision provenance.
    fn run_deletion_rescan(
        &mut self,
        scope: Option<&[NetId]>,
        order: CriteriaOrder,
        start: u64,
        stop: Option<u64>,
    ) -> DeletionRun {
        let nets: Vec<NetId> = match scope {
            Some(s) => s.to_vec(),
            None => (0..self.graphs.len()).map(NetId::new).collect(),
        };
        let mut selections: u64 = 0;
        let complete = loop {
            if stop.is_some_and(|b| start + selections >= b) {
                break false;
            }
            let mut best: Option<EdgeKey> = None;
            // Runner-up tracking exists only to feed the probe.
            let mut second: Option<EdgeKey> = None;
            for &net in &nets {
                let Some(key) = self.champion(net, order) else {
                    continue;
                };
                let better = match &best {
                    None => true,
                    Some(b) => compare(&key, b, order) == std::cmp::Ordering::Less,
                };
                if better {
                    if P::ENABLED {
                        second = best;
                    }
                    best = Some(key);
                } else if P::ENABLED {
                    let closer = match &second {
                        None => true,
                        Some(s) => compare(&key, s, order) == std::cmp::Ordering::Less,
                    };
                    if closer {
                        second = Some(key);
                    }
                }
            }
            let Some(key) = best else { break true };
            if P::ENABLED {
                let tier = match &second {
                    Some(s) => deciding_tier(&key, s, order),
                    None => DecidingTier::OnlyCandidate,
                };
                self.probe.event(TraceEvent::DeletionSelected {
                    net: key.net,
                    edge: key.edge,
                    tier,
                });
            }
            self.clear_delta();
            self.delete_with_partner(key.net, key.edge);
            self.selection_log.push((key.net, key.edge));
            selections += 1;
            self.maybe_step_audit(start + selections);
        };
        DeletionRun {
            selections,
            complete,
        }
    }

    /// `net`'s *champion*: the minimum key over its deletable edges
    /// (see [`scan_champion`]).
    fn champion(&mut self, net: NetId, order: CriteriaOrder) -> Option<EdgeKey> {
        let mut c = ScanCounters::default();
        let best = scan_champion(
            &self.graphs[net.index()],
            &self.density,
            &self.sta,
            net,
            order,
            &mut self.scan[net.index()],
            &mut c,
        );
        c.flush(&mut self.probe);
        best
    }

    /// The per-heap minimum raw keys of one net's deletable edges (see
    /// [`scan_raw_keys`]), counters flushed to the probe.
    fn raw_keys(&mut self, net: NetId, order: CriteriaOrder) -> Vec<(EdgeKey, Option<ChannelId>)> {
        let mut c = ScanCounters::default();
        let keys = scan_raw_keys(
            &self.graphs[net.index()],
            &self.density,
            &self.sta,
            net,
            order,
            &mut self.scan[net.index()],
            &mut c,
        );
        c.flush(&mut self.probe);
        keys
    }

    /// Computes and pushes the raw keys of `nets` (ascending, deduped)
    /// into the scoreboard, bumping their generations first when
    /// `invalidate` (the re-key path; `false` only for the initial
    /// build, where generations are already fresh).
    fn rekey_nets(&mut self, sb: &mut Scoreboard, nets: &[NetId], invalidate: bool) {
        let order = sb.order();
        let raw: Vec<_> = nets.iter().map(|&n| self.raw_keys(n, order)).collect();
        if P::ENABLED && invalidate {
            let fresh = raw.iter().map(Vec::len).sum::<usize>() as u64;
            self.probe.sample(Hist::MergeBatchSize, fresh);
        }
        for (&net, keys) in nets.iter().zip(raw) {
            if invalidate {
                sb.invalidate_net(net);
            }
            if P::ENABLED && self.frozen == Some(net) {
                // StaleChampion injection: invalidation ran but the
                // fresh candidates are silently dropped — the loop now
                // believes the net is finished.
                continue;
            }
            if P::ENABLED && !keys.is_empty() {
                self.probe.count(Counter::HeapPush, keys.len() as u64);
            }
            for (key, channel) in keys {
                sb.push(key, channel);
            }
        }
    }

    /// The incremental path: scoreboard selection with dirty-set
    /// re-keying (see the [module docs](self) for the invalidation
    /// derivation).
    fn run_deletion_scoreboard(
        &mut self,
        scope: Option<&[NetId]>,
        order: CriteriaOrder,
        start: u64,
        stop: Option<u64>,
    ) -> DeletionRun {
        let nets: Vec<NetId> = match scope {
            Some(s) => s.to_vec(),
            None => (0..self.graphs.len()).map(NetId::new).collect(),
        };
        let mut in_scope = vec![false; self.graphs.len()];
        for &n in &nets {
            in_scope[n.index()] = true;
        }
        let mut sb = Scoreboard::new(self.graphs.len(), self.channel_nets.len(), order);
        self.apply_corruption();
        if P::PROFILING {
            self.probe.scope_enter(Scope::Rekey);
        }
        self.rekey_nets(&mut sb, &nets, false);
        if P::PROFILING {
            self.probe.scope_exit(Scope::Rekey);
        }
        let mut selections: u64 = 0;
        let complete = loop {
            // The budget check precedes the pop, so the stop point (and
            // the heap-pop diagnostics) is the same in every run.
            if stop.is_some_and(|b| start + selections >= b) {
                break false;
            }
            self.apply_corruption();
            if P::PROFILING {
                self.probe.scope_enter(Scope::Select);
            }
            let popped = sb.pop_valid_probed(&self.density, &mut self.probe);
            let Some(key) = popped else {
                if P::PROFILING {
                    self.probe.scope_exit(Scope::Select);
                }
                break true;
            };
            debug_assert!(
                self.graphs[key.net.index()].is_alive(key.edge)
                    && !self.graphs[key.net.index()].is_bridge(key.edge),
                "scoreboard returned a non-deletable edge"
            );
            if P::ENABLED {
                // Runner-up peek: the best composed key over every other
                // net's live entries — the same runner-up champion the
                // rescan oracle tracks. Unprobed on purpose — provenance
                // peeking must not perturb the heap-pop diagnostics.
                let tier = match sb.runner_up(key.net, &self.density) {
                    Some(second) => deciding_tier(&key, &second, order),
                    None => DecidingTier::OnlyCandidate,
                };
                self.probe.event(TraceEvent::DeletionSelected {
                    net: key.net,
                    edge: key.edge,
                    tier,
                });
            }
            if P::PROFILING {
                self.probe.scope_exit(Scope::Select);
                self.probe.scope_enter(Scope::DeleteModify);
            }
            self.clear_delta();
            self.delete_with_partner(key.net, key.edge);
            self.selection_log.push((key.net, key.edge));
            selections += 1;
            if P::PROFILING {
                self.probe.scope_exit(Scope::DeleteModify);
                self.probe.scope_enter(Scope::DeriveDirty);
            }

            // Dirty set: changed nets ∪ window-affected nets ∪ nets of
            // refreshed constraints, restricted to the scope, each net
            // attributed to one cause under the deterministic precedence
            // of `derive_dirty`. Channels whose aggregates moved dirty
            // no net: the next pop composes the new aggregates.
            let d_nets = std::mem::take(&mut self.delta_nets);
            let d_spans = std::mem::take(&mut self.delta_spans);
            let d_cons = std::mem::take(&mut self.delta_cons);
            let dirty = derive_dirty(
                &in_scope,
                &d_nets,
                &d_spans,
                &self.channel_nets,
                &d_cons,
                |cid| self.sta.nets_of_constraint(cid),
            );
            // Hand the scratch buffers back for reuse.
            self.delta_nets = d_nets;
            self.delta_spans = d_spans;
            self.delta_cons = d_cons;
            self.probe.sample(Hist::DirtySetSize, dirty.len() as u64);
            let mut dirty_nets = Vec::with_capacity(dirty.len());
            for &(net, cause) in &dirty {
                self.rekey_causes.record(cause);
                self.probe.rekey(net, cause);
                dirty_nets.push(net);
            }
            if P::PROFILING {
                self.probe.scope_exit(Scope::DeriveDirty);
                // Per-cause attribution: re-key each dirty net alone so
                // its wall-clock lands under `rekey:<cause>`. Same nets,
                // same order, same keys pushed — deterministic
                // observables are untouched; only the batch-size
                // diagnostic (MergeBatchSize) differs, which
                // strategy-dependent diagnostics are allowed to do.
                self.probe.scope_enter(Scope::Rekey);
                for &(net, cause) in &dirty {
                    self.probe.scope_enter(Scope::RekeyFor(cause));
                    self.rekey_nets(&mut sb, &[net], true);
                    self.probe.scope_exit(Scope::RekeyFor(cause));
                }
                self.probe.scope_exit(Scope::Rekey);
                self.probe.scope_enter(Scope::Audit);
                self.maybe_step_audit(start + selections);
                self.probe.scope_exit(Scope::Audit);
            } else {
                self.rekey_nets(&mut sb, &dirty_nets, true);
                self.maybe_step_audit(start + selections);
            }
        };
        DeletionRun {
            selections,
            complete,
        }
    }

    /// Rips up a net (and its lockstep partner) and reroutes it with the
    /// given criteria order (§3.5 improvement phases).
    pub fn reroute_net(&mut self, net: NetId, order: CriteriaOrder) {
        let mut scope = vec![net];
        if let Some(p) = self.partner[net.index()] {
            scope.push(p);
        }
        for &n in &scope {
            let ni = n.index();
            // Remove the current (tree) density contribution.
            for e in 0..self.graphs[ni].edges().len() as u32 {
                if self.graphs[ni].is_alive(e) {
                    let g = &self.graphs[ni];
                    let edge = g.edges()[e as usize];
                    if let REdgeKind::Trunk { channel } = edge.kind {
                        self.density.remove_span(
                            channel,
                            edge.x1,
                            edge.x2,
                            g.width() as i32,
                            g.is_bridge(e),
                        );
                    }
                }
            }
            self.graphs[ni].restore_all();
            self.graphs[ni].prune_dangling();
            self.graphs[ni].recompute_bridges();
            for e in 0..self.graphs[ni].edges().len() as u32 {
                let g = &self.graphs[ni];
                if g.is_alive(e) {
                    let edge = g.edges()[e as usize];
                    if let REdgeKind::Trunk { channel } = edge.kind {
                        self.density.add_span(
                            channel,
                            edge.x1,
                            edge.x2,
                            g.width() as i32,
                            g.is_bridge(e),
                        );
                    }
                }
            }
            self.refresh_length(n);
            self.reroutes += 1;
        }
        self.run_deletion(Some(&scope), order);
    }

    /// Captures the alive-edge masks of a net and its partner, for
    /// revertible rerouting.
    pub fn snapshot(&self, net: NetId) -> Vec<(NetId, Vec<bool>)> {
        let mut out = vec![(net, self.graphs[net.index()].alive_mask())];
        if let Some(p) = self.partner[net.index()] {
            out.push((p, self.graphs[p.index()].alive_mask()));
        }
        out
    }

    /// Restores a snapshot taken with [`Engine::snapshot`], rebuilding
    /// density spans, lengths and margins.
    pub fn restore(&mut self, snapshot: &[(NetId, Vec<bool>)]) {
        for (net, mask) in snapshot {
            let ni = net.index();
            // Remove current density contribution.
            for e in 0..self.graphs[ni].edges().len() as u32 {
                if self.graphs[ni].is_alive(e) {
                    let g = &self.graphs[ni];
                    let edge = g.edges()[e as usize];
                    if let REdgeKind::Trunk { channel } = edge.kind {
                        self.density.remove_span(
                            channel,
                            edge.x1,
                            edge.x2,
                            g.width() as i32,
                            g.is_bridge(e),
                        );
                    }
                }
            }
            self.graphs[ni].set_alive_mask(mask);
            for e in 0..self.graphs[ni].edges().len() as u32 {
                let g = &self.graphs[ni];
                if g.is_alive(e) {
                    let edge = g.edges()[e as usize];
                    if let REdgeKind::Trunk { channel } = edge.kind {
                        self.density.add_span(
                            channel,
                            edge.x1,
                            edge.x2,
                            g.width() as i32,
                            g.is_bridge(e),
                        );
                    }
                }
            }
            self.refresh_length(*net);
        }
    }

    /// Whether every net's graph is now a spanning tree.
    pub fn all_trees(&self) -> bool {
        self.graphs.iter().all(|g| g.is_tree())
    }

    /// Consumes the engine, returning graphs, density, analyzer and the
    /// probe (with everything it collected).
    pub fn into_parts(self) -> (Vec<RoutingGraph>, DensityMap, Sta, P) {
        (self.graphs, self.density, self.sta, self.probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::same_row_net;
    use crate::graph::RoutingGraph;
    use bgr_timing::{DelayModel, Sta, WireParams};

    fn engine_for_same_row() -> Engine {
        let (circuit, placement, _net) = same_row_net();
        let graphs: Vec<RoutingGraph> = circuit
            .net_ids()
            .map(|n| RoutingGraph::build(&circuit, &placement, n, &[], 30.0))
            .collect();
        let sta = Sta::new(
            &circuit,
            vec![],
            DelayModel::Capacitance,
            WireParams::default(),
        )
        .unwrap();
        let partner = vec![None; circuit.nets().len()];
        let width = placement.width_pitches() as usize;
        Engine::new(graphs, sta, partner, placement.num_channels(), width)
    }

    #[test]
    fn initial_state_has_density_and_lengths() {
        let engine = engine_for_same_row();
        // Channel 0 and 1 both have trunk spans from net n1 plus branches
        // don't count; some density must exist.
        let total: i32 = (0..engine.density().num_channels())
            .map(|c| engine.density().c_max(bgr_layout::ChannelId::new(c)))
            .sum();
        assert!(total > 0);
        assert!(engine.sta().lengths().total_length_um() > 0.0);
    }

    #[test]
    fn run_deletion_reaches_all_trees() {
        let mut engine = engine_for_same_row();
        assert!(!engine.all_trees());
        let selections = engine.run_deletion(None, CriteriaOrder::DelayFirst);
        assert!(selections > 0);
        assert!(engine.all_trees());
        // After routing, every alive edge is a bridge: d_m == d_M.
        for g in engine.graphs() {
            for e in g.alive_edges() {
                assert!(g.is_bridge(e));
            }
        }
    }

    #[test]
    fn deletion_reduces_density_upper_bound() {
        let mut engine = engine_for_same_row();
        let before: i32 = (0..engine.density().num_channels())
            .map(|c| engine.density().c_max(bgr_layout::ChannelId::new(c)))
            .sum();
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        let after: i32 = (0..engine.density().num_channels())
            .map(|c| engine.density().c_max(bgr_layout::ChannelId::new(c)))
            .sum();
        assert!(after <= before);
    }

    #[test]
    fn reroute_restores_and_resolves() {
        let mut engine = engine_for_same_row();
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        let len_before = engine.sta().lengths().total_length_um();
        engine.reroute_net(bgr_netlist::NetId::new(1), CriteriaOrder::AreaFirst);
        assert!(engine.all_trees());
        // Deterministic graphs: rerouting an optimal tree keeps length.
        let len_after = engine.sta().lengths().total_length_um();
        assert!((len_before - len_after).abs() < 1e-6);
    }

    #[test]
    fn deletion_count_includes_prunes() {
        let mut engine = engine_for_same_row();
        engine.run_deletion(None, CriteriaOrder::DelayFirst);
        assert!(engine.deletions > 0);
    }

    #[test]
    fn scoreboard_matches_full_rescan_sequence() {
        let mut fast = engine_for_same_row();
        let mut oracle = engine_for_same_row();
        oracle.set_selection(SelectionStrategy::FullRescan);
        let s1 = fast.run_deletion(None, CriteriaOrder::DelayFirst);
        let s2 = oracle.run_deletion(None, CriteriaOrder::DelayFirst);
        assert_eq!(s1, s2);
        assert_eq!(fast.selection_log, oracle.selection_log);
        for (gf, go) in fast.graphs().iter().zip(oracle.graphs()) {
            assert_eq!(gf.alive_mask(), go.alive_mask());
        }
    }

    #[test]
    fn empty_scope_run_deletion_is_a_no_op() {
        for strategy in [SelectionStrategy::Scoreboard, SelectionStrategy::FullRescan] {
            let mut engine = engine_for_same_row();
            engine.set_selection(strategy);
            let masks: Vec<_> = engine.graphs().iter().map(|g| g.alive_mask()).collect();
            assert_eq!(engine.run_deletion(Some(&[]), CriteriaOrder::DelayFirst), 0);
            assert!(engine.selection_log.is_empty());
            let after: Vec<_> = engine.graphs().iter().map(|g| g.alive_mask()).collect();
            assert_eq!(masks, after, "{strategy:?} touched a graph");
        }
    }

    /// A net dirty for several reasons at once is attributed exactly
    /// once, under the fixed precedence Graph > SpanOverlap >
    /// Constraint, however the channels were touched; and aggregate
    /// motion is no dirty cause at all — only span overlap re-keys
    /// density readers now that raw keys carry no aggregates.
    #[test]
    fn derive_dirty_attributes_one_cause_with_fixed_precedence() {
        use bgr_layout::ChannelId;
        let in_scope = vec![true; 4];
        let c1 = ChannelId::new(1);
        // Channel 0: nets 0, 1 (net 1 trunk over [0, 10]).
        // Channel 1: nets 1, 2 (trunks over [0, 10] and [20, 30]), net 3
        // branch-only (empty interval sentinel).
        let channel_nets = vec![
            vec![(NetId::new(0), 2, 6), (NetId::new(1), 0, 10)],
            vec![
                (NetId::new(1), 0, 10),
                (NetId::new(2), 20, 30),
                (NetId::new(3), i32::MAX, i32::MIN),
            ],
        ];
        let cons_nets = [NetId::new(0), NetId::new(2)];
        let nets_of = |_cid: usize| &cons_nets[..];
        // Net 0 changed its graph *and* belongs to a refreshed
        // constraint (Graph wins); net 1 overlaps the touched span of
        // c1; net 2 is constraint-dirty only.
        let dirty = super::derive_dirty(
            &in_scope,
            &[NetId::new(0)],
            &[(c1, 5, 8)],
            &channel_nets,
            &[0],
            nets_of,
        );
        assert_eq!(
            dirty,
            vec![
                (NetId::new(0), RekeyCause::Graph),
                (NetId::new(1), RekeyCause::SpanOverlap),
                (NetId::new(2), RekeyCause::Constraint),
            ]
        );
        // Span [25, 28] overlaps net 2's trunk instead: net 2 gets
        // SpanOverlap (> Constraint); net 1's interval misses it and
        // falls out of the density clause entirely.
        let dirty = super::derive_dirty(
            &in_scope,
            &[],
            &[(c1, 25, 28)],
            &channel_nets,
            &[0],
            nets_of,
        );
        assert_eq!(
            dirty,
            vec![
                (NetId::new(0), RekeyCause::Constraint),
                (NetId::new(2), RekeyCause::SpanOverlap),
            ]
        );
        // Branch-only nets (empty sentinel) never match a span overlap,
        // and out-of-scope nets are dropped entirely.
        let scoped = vec![false, true, true, true];
        let dirty = super::derive_dirty(
            &scoped,
            &[NetId::new(0)],
            &[(c1, 0, 40)],
            &channel_nets,
            &[],
            nets_of,
        );
        assert_eq!(
            dirty,
            vec![
                (NetId::new(1), RekeyCause::SpanOverlap),
                (NetId::new(2), RekeyCause::SpanOverlap),
            ]
        );
    }

    #[test]
    fn derive_dirty_graph_beats_span_overlap_for_the_deleted_net() {
        use bgr_layout::ChannelId;
        let in_scope = vec![true; 2];
        let c0 = ChannelId::new(0);
        let channel_nets = vec![vec![(NetId::new(0), 0, 4), (NetId::new(1), 2, 9)]];
        let empty: [NetId; 0] = [];
        // The deleted net's own span was touched: the net is both
        // graph-dirty and span-overlap-dirty; Graph wins, and the
        // neighbor whose trunk overlaps the span re-keys as
        // SpanOverlap.
        let dirty = super::derive_dirty(
            &in_scope,
            &[NetId::new(0)],
            &[(c0, 0, 4)],
            &channel_nets,
            &[],
            |_| &empty[..],
        );
        assert_eq!(
            dirty,
            vec![
                (NetId::new(0), RekeyCause::Graph),
                (NetId::new(1), RekeyCause::SpanOverlap),
            ]
        );
    }

    #[test]
    fn scoreboard_matches_oracle_through_reroutes() {
        let mut fast = engine_for_same_row();
        let mut oracle = engine_for_same_row();
        oracle.set_selection(SelectionStrategy::FullRescan);
        for engine in [&mut fast, &mut oracle] {
            engine.run_deletion(None, CriteriaOrder::DelayFirst);
            engine.reroute_net(bgr_netlist::NetId::new(1), CriteriaOrder::AreaFirst);
            engine.reroute_net(bgr_netlist::NetId::new(0), CriteriaOrder::DelayFirst);
        }
        assert_eq!(fast.selection_log, oracle.selection_log);
        assert_eq!(fast.deletions, oracle.deletions);
    }
}
