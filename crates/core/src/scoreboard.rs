//! The candidate scoreboard: an ordered pool of **raw** [`EdgeKey`]s
//! with generation-stamped lazy invalidation, one heap per channel, and
//! channel aggregates composed in at pop time.
//!
//! The deletion loop (Fig. 2 lines 04–07) needs the minimum-ranked
//! deletable edge across every in-scope net on every iteration. The
//! naive formulation recomputes every key per iteration —
//! `O(nets × edges)` key evaluations per selection, each one a Dijkstra
//! over the net's routing graph. The scoreboard instead keeps all
//! current keys in binary heaps and re-keys only *dirty* nets after a
//! deletion.
//!
//! # Raw keys and compose-at-pop
//!
//! A full [`EdgeKey`] mixes three ingredients with very different
//! lifetimes: the delay prefix (moves when the net's graph or
//! constraints move), the edge's **own density window** (moves when a
//! touched span overlaps the edge), and the channel **aggregates**
//! `C_M/NC_M/C_m/NC_m` (move on almost every deletion in the channel).
//! Storing composed keys therefore re-keys whole channels whenever an
//! aggregate moves. The scoreboard stores the *raw* part only — delay
//! prefix plus the **negated** window terms — and adds the owning
//! channel's aggregates at pop time:
//!
//! ```text
//! composed.f_min = C_m(channel) − window.d_min   (raw.f_min = −window.d_min)
//! composed.f_max = C_M(channel) − window.d_max   … and likewise NC_m/NC_M
//! ```
//!
//! Within one heap all entries share a channel, so composition adds the
//! *same* offsets to every entry: the heap order on raw keys equals the
//! order on composed keys (delay tiers and the trunk-preference bit are
//! compared before the density values and are composition-invariant;
//! the `i32` density tiers shift by a common addend, which `i32::cmp`
//! cancels exactly; the trailing `len/net/edge` tiebreaks are
//! untouched). Branch keys store zero window terms (they read
//! aggregates only) and feed-half keys — which read no density at all —
//! live in a trailing **channelless heap** composed with the identity.
//! Aggregate motion thus never invalidates a stored entry, and since
//! nothing composed is cached, it needs no notification either.
//!
//! # Invalidation contract
//!
//! The scoreboard holds one generation counter per net. Re-keying a net
//! (or invalidating it) bumps the counter; heap entries carry the
//! counter value at push time and are discarded on pop when they no
//! longer match. Consequently:
//!
//! * callers must invalidate-and-re-key every net whose **raw** key set
//!   may have changed (the *dirty set* — graph generations, touched
//!   span overlaps, refreshed timing constraints; see
//!   `Engine::run_deletion`);
//! * nets outside the dirty set keep their entries, which remain
//!   *exactly* the raw keys a full rescan would compute, because every
//!   raw-key input is covered by the dirty-set definition.
//!
//! Stale entries are never purged eagerly; the heaps are drained
//! lazily, so a push is `O(log heap)` and a pop amortizes over the
//! entries it discards.
//!
//! # Selection: one pass over the heap tops
//!
//! A pop scans the heap tops in ascending heap index: it drains each
//! heap's stale top entries, composes the live top under the current
//! aggregates (one aggregate read per non-empty heap) and keeps a
//! candidate only when it is strictly less than the best so far under
//! [`compare`]. Every live key carries its `(net, edge)` identity and
//! [`compare`] ends in that total tiebreak, so the winner is a pure
//! function of the live entries and the current aggregates — the same
//! edge a single global heap of composed keys would surface. DESIGN.md
//! §10 gives the determinism argument, including why EPS-fuzziness
//! does not perturb it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bgr_layout::ChannelId;
use bgr_netlist::NetId;

use crate::config::CriteriaOrder;
use crate::density::DensityMap;
use crate::probe::{Counter, Hist, NoopProbe, Probe};
use crate::select::{compare, EdgeKey};

#[derive(Debug, Clone)]
struct Entry {
    key: EdgeKey,
    /// Owning net's scoreboard generation at push time.
    stamp: u64,
    /// Criteria order of the run (uniform across one scoreboard).
    order: CriteriaOrder,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap; reverse the selection order so the
        // best (smallest) candidate surfaces at the top. Raw-key order
        // equals composed order within one heap (see the module docs).
        compare(&other.key, &self.key, self.order)
    }
}

/// Ordered candidate pool over every deletable edge of the in-scope
/// nets. See the [module docs](self) for raw keys, the invalidation
/// contract and the heap-top scan.
#[derive(Debug)]
pub struct Scoreboard {
    /// One heap per channel, plus the trailing channelless heap
    /// (feed-half candidates; composed with the identity).
    heaps: Vec<BinaryHeap<Entry>>,
    net_gen: Vec<u64>,
    order: CriteriaOrder,
}

impl Scoreboard {
    /// Creates an empty scoreboard for `num_nets` nets over
    /// `num_channels` channels (plus the channelless heap), comparing
    /// keys with `order`.
    pub fn new(num_nets: usize, num_channels: usize, order: CriteriaOrder) -> Self {
        Self {
            heaps: (0..=num_channels).map(|_| BinaryHeap::new()).collect(),
            net_gen: vec![0; num_nets],
            order,
        }
    }

    /// Number of live (non-stale) entries is at most this; stale entries
    /// inflate it until they are popped.
    pub fn len(&self) -> usize {
        self.heaps.iter().map(BinaryHeap::len).sum()
    }

    /// Whether the heaps hold no entries at all (stale or live).
    pub fn is_empty(&self) -> bool {
        self.heaps.iter().all(BinaryHeap::is_empty)
    }

    /// The criteria order this scoreboard compares keys with.
    pub fn order(&self) -> CriteriaOrder {
        self.order
    }

    /// The index of the channelless heap (feed-half candidates).
    fn channelless(&self) -> usize {
        self.heaps.len() - 1
    }

    /// The heap a candidate of `channel` belongs to.
    fn heap_of(&self, channel: Option<ChannelId>) -> usize {
        match channel {
            Some(c) => c.index(),
            None => self.channelless(),
        }
    }

    /// Composes a raw key from `heap` with the current channel
    /// aggregates (identity for the channelless heap).
    fn compose(&self, heap: usize, key: EdgeKey, density: &DensityMap) -> EdgeKey {
        if heap == self.channelless() {
            return key;
        }
        let c = ChannelId::new(heap);
        let mut k = key;
        k.f_min += density.c_min(c);
        k.n_min += density.nc_min(c);
        k.f_max += density.c_max(c);
        k.n_max += density.nc_max(c);
        k
    }

    /// Invalidates every entry of `net`: bumps its generation so existing
    /// heap entries die lazily. Call before re-pushing the net's current
    /// keys.
    ///
    /// # Panics
    ///
    /// Panics if the net's generation counter would wrap. A `u64` bump
    /// per re-key cannot overflow in any real route (half a million
    /// re-keys per second for a million years), so wraparound could only
    /// mean memory corruption — and silently wrapping would resurrect
    /// every stale entry pushed under generation zero.
    pub fn invalidate_net(&mut self, net: NetId) {
        let g = &mut self.net_gen[net.index()];
        *g = g
            .checked_add(1)
            .expect("scoreboard generation counter overflowed");
    }

    /// Pushes a raw candidate key into its channel's heap (the
    /// channelless heap when `channel` is `None`), stamped with the
    /// net's current generation.
    pub fn push(&mut self, key: EdgeKey, channel: Option<ChannelId>) {
        let stamp = self.net_gen[key.net.index()];
        let heap = self.heap_of(channel);
        self.heaps[heap].push(Entry {
            key,
            stamp,
            order: self.order,
        });
    }

    /// The heap-top scan shared by [`Scoreboard::pop_valid_probed`] and
    /// [`Scoreboard::runner_up`]: in ascending heap index, drains stale
    /// tops, sets aside the live tops of `exclude` (re-pushed verbatim
    /// before returning, so the live set is unchanged), composes each
    /// remaining top under the current aggregates — one
    /// [`Counter::DensityAggregateQuery`] per non-empty heap — and keeps
    /// the strict-less minimum. Returns the winner's `(heap, composed
    /// key)` and the number of stale entries discarded.
    fn best_top<P: Probe>(
        &mut self,
        exclude: Option<NetId>,
        density: &DensityMap,
        probe: &mut P,
    ) -> (Option<(usize, EdgeKey)>, u64) {
        let mut stale = 0u64;
        let mut best: Option<(usize, EdgeKey)> = None;
        let mut stash: Vec<(usize, Entry)> = Vec::new();
        for h in 0..self.heaps.len() {
            while let Some(e) = self.heaps[h].peek() {
                if e.stamp != self.net_gen[e.key.net.index()] {
                    self.heaps[h].pop();
                    stale += 1;
                } else if Some(e.key.net) == exclude {
                    let e = self.heaps[h].pop().expect("peeked entry pops");
                    stash.push((h, e));
                } else {
                    break;
                }
            }
            let Some(raw) = self.heaps[h].peek().map(|e| e.key) else {
                continue;
            };
            if P::ENABLED {
                probe.count(Counter::DensityAggregateQuery, 1);
            }
            let composed = self.compose(h, raw, density);
            if best
                .as_ref()
                .is_none_or(|(_, b)| compare(&composed, b, self.order) == Ordering::Less)
            {
                best = Some((h, composed));
            }
        }
        for (h, e) in stash {
            self.heaps[h].push(e);
        }
        (best, stale)
    }

    /// Pops the best *valid* candidate — the minimum **composed** key
    /// over all live entries under the current aggregates — discarding
    /// stale entries, or `None` when no valid candidate remains.
    pub fn pop_valid(&mut self, density: &DensityMap) -> Option<EdgeKey> {
        self.pop_valid_probed(density, &mut NoopProbe)
    }

    /// [`Scoreboard::pop_valid`] with instrumentation: every pop is
    /// counted ([`Counter::HeapPop`]), stale discards additionally as
    /// [`Counter::StaleHeapPop`], the discards preceding the answer are
    /// one [`Hist::StalePopsPerSelection`] observation, and every
    /// composed heap top is one [`Counter::DensityAggregateQuery`].
    pub fn pop_valid_probed<P: Probe>(
        &mut self,
        density: &DensityMap,
        probe: &mut P,
    ) -> Option<EdgeKey> {
        let (best, stale) = self.best_top(None, density, probe);
        let out = best.map(|(heap, key)| {
            let popped = self.heaps[heap]
                .pop()
                .expect("winning heap has a top entry");
            debug_assert!(
                popped.key.net == key.net && popped.key.edge == key.edge,
                "composed minimum diverged from its heap top"
            );
            key
        });
        if P::ENABLED {
            probe.count(Counter::HeapPop, stale + u64::from(out.is_some()));
            probe.count(Counter::StaleHeapPop, stale);
            probe.sample(Hist::StalePopsPerSelection, stale);
        }
        out
    }

    /// The best composed key over the live entries of every net but
    /// `exclude` — the runner-up the decision-provenance probe compares
    /// the winner against, equal by construction to the full rescan's
    /// second-best champion.
    ///
    /// Excluded entries are popped and re-pushed verbatim (same stamp),
    /// so the live set is unchanged; only stale entries are (harmlessly)
    /// drained. Unprobed on purpose: provenance peeking must not perturb
    /// the heap-pop diagnostics.
    pub fn runner_up(&mut self, exclude: NetId, density: &DensityMap) -> Option<EdgeKey> {
        self.best_top(Some(exclude), density, &mut NoopProbe)
            .0
            .map(|(_, key)| key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::DelayCriteria;

    fn key(net: usize, edge: u32, f_min: i32) -> EdgeKey {
        EdgeKey {
            delay: DelayCriteria::default(),
            is_trunk: true,
            f_min,
            n_min: 0,
            f_max: 0,
            n_max: 0,
            len_um: 10.0,
            net: NetId::new(net),
            edge,
        }
    }

    fn ch(c: usize) -> Option<ChannelId> {
        Some(ChannelId::new(c))
    }

    /// An empty 4-channel density map: all aggregates are zero, so
    /// composition is the identity and raw keys compare as-is.
    fn flat() -> DensityMap {
        DensityMap::new(4, 100)
    }

    #[test]
    fn pops_in_selection_order() {
        let d = flat();
        let mut sb = Scoreboard::new(3, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 5), ch(0));
        sb.push(key(1, 0, -2), ch(0));
        sb.push(key(2, 0, 1), ch(0));
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(1)));
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(2)));
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(0)));
        assert_eq!(sb.pop_valid(&d), None);
    }

    #[test]
    fn invalidation_kills_stale_entries_lazily() {
        let d = flat();
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, -10), ch(0)); // would win…
        sb.push(key(1, 0, 3), ch(0));
        sb.invalidate_net(NetId::new(0)); // …but is now stale
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(1)));
        assert_eq!(sb.pop_valid(&d), None);
    }

    #[test]
    fn rekeying_after_invalidation_revives_a_net() {
        let d = flat();
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 0), ch(1));
        sb.invalidate_net(NetId::new(0));
        sb.push(key(0, 1, 7), ch(1)); // fresh key under the new generation
        let k = sb.pop_valid(&d).unwrap();
        assert_eq!((k.net, k.edge), (NetId::new(0), 1));
        assert_eq!(sb.pop_valid(&d), None);
    }

    #[test]
    fn id_tiebreaks_keep_pops_deterministic() {
        let d = flat();
        let mut sb = Scoreboard::new(1, 4, CriteriaOrder::DelayFirst);
        // Identical criteria: net/edge ids decide.
        sb.push(key(0, 2, 0), ch(2));
        sb.push(key(0, 0, 0), ch(2));
        sb.push(key(0, 1, 0), ch(2));
        let order: Vec<u32> = std::iter::from_fn(|| sb.pop_valid(&d).map(|k| k.edge)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn pops_the_global_minimum_across_heaps() {
        let d = flat();
        let mut sb = Scoreboard::new(5, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 4), ch(0));
        sb.push(key(2, 0, -1), ch(2)); // global minimum
        sb.push(key(3, 0, 2), ch(3));
        sb.push(key(1, 0, 0), ch(1));
        sb.push(key(4, 0, 1), None); // channelless heap
        let pops: Vec<usize> =
            std::iter::from_fn(|| sb.pop_valid(&d).map(|k| k.net.index())).collect();
        assert_eq!(pops, vec![2, 1, 4, 3, 0]);
        assert!(sb.is_empty());
    }

    #[test]
    fn ties_across_heaps_resolve_by_total_key_order_not_heap_order() {
        // Identical criteria in several heaps: the (net, edge) tiebreak
        // of `compare` decides, exactly as a single global heap would.
        let d = flat();
        let mut sb = Scoreboard::new(4, 4, CriteriaOrder::DelayFirst);
        sb.push(key(3, 0, 0), ch(0)); // lowest heap index, highest net id
        sb.push(key(2, 0, 0), ch(2));
        sb.push(key(0, 1, 0), ch(3)); // highest channel, lowest net id
        sb.push(key(0, 0, 0), None); // same net, lower edge, channelless
        let pops: Vec<(usize, u32)> =
            std::iter::from_fn(|| sb.pop_valid(&d).map(|k| (k.net.index(), k.edge))).collect();
        assert_eq!(pops, vec![(0, 0), (0, 1), (2, 0), (3, 0)]);
    }

    #[test]
    fn stale_champion_of_fully_bridged_net_is_skipped_across_heaps() {
        // A net whose last deletable edge became a bridge re-keys to *no*
        // entries: its generation bumps and nothing is re-pushed. The
        // heap-top scan must see through the stale top of its heap.
        let d = flat();
        let mut sb = Scoreboard::new(3, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, -5), ch(0)); // would win the scan…
        sb.push(key(2, 0, 3), ch(2));
        sb.invalidate_net(NetId::new(0)); // …but its net is now fully bridged
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(2)));
        assert_eq!(sb.pop_valid(&d), None);
        assert!(sb.is_empty(), "stale entries were drained, not leaked");
    }

    #[test]
    #[should_panic(expected = "scoreboard generation counter overflowed")]
    fn generation_wraparound_is_a_loud_failure() {
        let mut sb = Scoreboard::new(1, 4, CriteriaOrder::DelayFirst);
        sb.net_gen[0] = u64::MAX;
        sb.invalidate_net(NetId::new(0));
    }

    #[test]
    fn probed_pop_counts_stale_discards_and_aggregate_reads() {
        use crate::probe::CollectingProbe;
        let d = flat();
        let mut sb = Scoreboard::new(3, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 1), ch(0));
        sb.push(key(0, 1, 2), ch(0));
        sb.push(key(2, 0, 5), ch(2));
        sb.invalidate_net(NetId::new(0)); // both channel-0 entries go stale
        let mut probe = CollectingProbe::new();
        let got = sb.pop_valid_probed(&d, &mut probe);
        assert_eq!(got.map(|k| k.net), Some(NetId::new(2)));
        let trace = probe.finish();
        assert_eq!(trace.counter(Counter::StaleHeapPop), 2);
        assert_eq!(trace.counter(Counter::HeapPop), 3);
        // Only channel 2 had a live top to compose.
        assert_eq!(trace.counter(Counter::DensityAggregateQuery), 1);
    }

    #[test]
    fn compose_at_pop_applies_current_channel_aggregates() {
        // Identical raw keys in channels 1 and 2; channel 2 carries a
        // bridge span, so its aggregates lift every composed key there.
        let mut d = flat();
        d.add_span(ChannelId::new(2), 0, 10, 3, true);
        let mut sb = Scoreboard::new(2, 4, CriteriaOrder::DelayFirst);
        sb.push(key(1, 0, 0), ch(2)); // lower net id, but composed f_min = 3
        sb.push(key(0, 0, 0), ch(1)); // composed f_min = 0: wins
        let first = sb.pop_valid(&d).unwrap();
        assert_eq!(first.net, NetId::new(0));
        assert_eq!(first.f_min, 0);
        let second = sb.pop_valid(&d).unwrap();
        assert_eq!(second.net, NetId::new(1));
        // The returned key is the *composed* one.
        assert_eq!(second.f_min, 3);
    }

    #[test]
    fn aggregate_motion_without_a_push_changes_the_pop_winner() {
        // Nothing composed outlives a pop: when a channel's aggregates
        // move with no push, re-key or notification, the next pop
        // already ranks that channel's entries under the new values.
        let mut d = flat();
        let mut sb = Scoreboard::new(3, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 0), ch(0));
        sb.push(key(2, 0, 0), ch(2));
        sb.push(key(1, 0, 3), ch(1));
        assert_eq!(sb.pop_valid(&d).map(|k| k.net), Some(NetId::new(0)));
        // Under zero aggregates net 2 (f_min 0) would beat net 1 (f_min
        // 3); lifting channel 2 by 5 reverses that.
        d.add_span(ChannelId::new(2), 0, 10, 5, true);
        let k = sb.pop_valid(&d).unwrap();
        assert_eq!(k.net, NetId::new(1), "pre-motion composition won");
        let k = sb.pop_valid(&d).unwrap();
        assert_eq!((k.net, k.f_min), (NetId::new(2), 5));
    }

    #[test]
    fn runner_up_excludes_one_net_and_leaves_the_pool_intact() {
        let d = flat();
        let mut sb = Scoreboard::new(3, 4, CriteriaOrder::DelayFirst);
        sb.push(key(0, 0, 1), ch(0));
        sb.push(key(0, 1, 2), ch(0));
        sb.push(key(1, 0, 5), ch(1));
        sb.push(key(2, 0, 3), ch(2));
        sb.push(key(0, 2, 0), None);
        // Best of everything-but-net-0 is net 2, past both of net 0's
        // entries stacked in channel 0 and its channelless entry.
        assert_eq!(
            sb.runner_up(NetId::new(0), &d).map(|k| k.net),
            Some(NetId::new(2))
        );
        assert_eq!(sb.len(), 5, "the peek dropped no live entry");
        // The peek left every entry in place: pops proceed as if it
        // never happened.
        let pops: Vec<(usize, u32)> =
            std::iter::from_fn(|| sb.pop_valid(&d).map(|k| (k.net.index(), k.edge))).collect();
        assert_eq!(pops, vec![(0, 2), (0, 0), (0, 1), (2, 0), (1, 0)]);
    }
}
