//! Differential test of the hypothetical-length kernel (DESIGN.md §8).
//!
//! [`HypKernel::length_without`] must return exactly what the full
//! Dijkstra `tentative_length_um(g, Some(e))` returns — compared with
//! `f64::to_bits`, not a tolerance — for every alive edge of every graph
//! state it is asked about. Two sources of graph states:
//!
//! * the constrained C1P1 route, stepped one selection at a time, so
//!   every generation the deletion loop produces is checked;
//! * seeded random nets over column-aligned cells with random
//!   feedthroughs, whose equal-x taps force zero-length trunks and whose
//!   two-sided pins give symmetric channel ties, under random deletion
//!   sequences.
//!
//! Each case prints its path split and asserts zero mismatches.

use bgr::gen::{c1, PlacementStyle};
use bgr::layout::{Geometry, PlacementBuilder};
use bgr::netlist::{CellId, CellLibrary, CircuitBuilder, SplitMix64};
use bgr::router::tentative::{tentative_length_um, HypKernel, HypPath};
use bgr::router::{RouteSession, RouterConfig, RoutingGraph, StepOutcome};

/// Lookups per kernel path plus bit mismatches against the oracle.
#[derive(Debug, Default)]
struct Tally {
    base: u64,
    subtree: u64,
    fallback: u64,
    mismatches: Vec<String>,
}

impl Tally {
    /// Checks every alive edge of `g` (bridges included: both sides must
    /// agree on disconnection too).
    fn check(&mut self, g: &RoutingGraph, tag: &str) {
        let bits = |l: Option<f64>| l.map(f64::to_bits);
        let mut kernel = HypKernel::build(g);
        assert_eq!(
            bits(kernel.base_length_um()),
            bits(tentative_length_um(g, None)),
            "{tag}: base length"
        );
        for e in g.alive_edges() {
            let (got, path) = kernel.length_without(g, e);
            match path {
                HypPath::Base => self.base += 1,
                HypPath::Subtree => self.subtree += 1,
                HypPath::Fallback => self.fallback += 1,
            }
            let want = tentative_length_um(g, Some(e));
            if bits(got) != bits(want) && self.mismatches.len() < 8 {
                self.mismatches
                    .push(format!("{tag} edge {e} ({path:?}): {got:?} vs {want:?}"));
            }
        }
    }

    fn finish(self, name: &str) {
        println!(
            "{name}: base {} subtree {} fallback {} mismatches {}",
            self.base,
            self.subtree,
            self.fallback,
            self.mismatches.len()
        );
        assert!(self.base + self.subtree > 0, "{name}: nothing checked");
        assert!(self.mismatches.is_empty(), "{name}: {:#?}", self.mismatches);
    }
}

#[test]
fn c1p1_constrained_route_matches_full_dijkstra_at_every_generation() {
    let ds = c1(PlacementStyle::EvenFeed);
    let mut session = RouteSession::start(
        RouterConfig {
            threads: 1,
            ..RouterConfig::default()
        },
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
        bgr::router::NoopProbe,
    )
    .expect("C1P1 routes");
    let mut tally = Tally::default();
    let mut seen: Vec<Option<u64>> = vec![None; session.graphs().len()];
    loop {
        for (i, g) in session.graphs().iter().enumerate() {
            if seen[i] != Some(g.generation()) {
                seen[i] = Some(g.generation());
                tally.check(g, &format!("net {i} gen {}", g.generation()));
            }
        }
        if session.step(Some(1)).expect("steps succeed") == StepOutcome::Ready {
            break;
        }
    }
    tally.finish("C1P1");
}

/// One random net over `rows` rows of column-aligned INV cells (so pins
/// in neighbouring rows share x), with random feedthroughs placed on pin
/// columns and random per-channel branch lengths (zero included; the
/// non-dyadic 7.3 µm sends the kernel down its ordered-merge union).
fn random_graph(seed: u64) -> RoutingGraph {
    let mut rng = SplitMix64::new(seed);
    let rows = rng.range_usize(1, 4);
    let cols = rng.range_usize(2, 6);
    let lib = CellLibrary::ecl();
    let inv = lib.kind_by_name("INV").expect("ECL library has INV");
    let mut cb = CircuitBuilder::new(lib);
    let pad = cb.add_input_pad("a");
    let cells: Vec<_> = (0..rows * cols)
        .map(|i| cb.add_cell(format!("u{i}"), inv))
        .collect();
    let driver = rng.range_usize(0, cells.len());
    let mut sinks = Vec::new();
    let mut rest = Vec::new();
    for (i, &c) in cells.iter().enumerate() {
        let a = cb.cell_term(c, "A").expect("INV has A");
        if i != driver && (sinks.is_empty() || rng.next_bool(0.6)) {
            sinks.push(a);
        } else {
            rest.push(a);
        }
    }
    cb.add_net("in", cb.pad_term(pad), rest).expect("pad net");
    let net = cb
        .add_net(
            "n",
            cb.cell_term(cells[driver], "Y").expect("INV has Y"),
            sinks,
        )
        .expect("net under test");
    let circuit = cb.finish().expect("valid circuit");

    let widths: Vec<u32> = (0..cols).map(|_| rng.range_usize(3, 6) as u32).collect();
    let mut pb = PlacementBuilder::new(Geometry::default(), rows);
    let mut xs = Vec::new();
    for r in 0..rows {
        for (c, &w) in widths.iter().enumerate() {
            xs.push(pb.append_with_width(r, CellId::new(r * cols + c), w));
        }
    }
    pb.place_pad_bottom(pad, 0);
    let placement = pb.finish(&circuit).expect("valid placement");

    let feeds: Vec<(usize, i32)> = (0..rng.range_usize(0, 2 * rows + 1))
        .map(|_| {
            let x = xs[rng.range_usize(0, xs.len())] + rng.range_i32(0, 3);
            (rng.range_usize(0, rows), x)
        })
        .collect();
    let branch: Vec<f64> = (0..placement.num_channels())
        .map(|_| [0.0, 30.0, 30.0, 12.5, 7.3][rng.range_usize(0, 5)])
        .collect();
    RoutingGraph::build_with_channel_branches(&circuit, &placement, net, &feeds, &branch)
}

#[test]
fn random_tied_graphs_match_full_dijkstra_under_random_deletions() {
    let mut tally = Tally::default();
    for seed in 0..300u64 {
        let mut g = random_graph(seed);
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
        loop {
            tally.check(&g, &format!("seed {seed} gen {}", g.generation()));
            let deletable: Vec<u32> = g.non_bridge_edges().collect();
            if deletable.is_empty() {
                break;
            }
            g.delete_edge(deletable[rng.range_usize(0, deletable.len())]);
            g.prune_dangling();
            g.recompute_bridges();
        }
    }
    tally.finish("random");
}
