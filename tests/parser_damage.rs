//! Parser damage fuzz: byte-damaged `.bgrn`, `.bgrp` and `.bgrt` texts
//! and checkpoints must either parse or fail with a structured
//! `bgr::io::ParseError` — **never** panic. Checkpoints embed designs
//! through these parsers and arrive from disk and over the network, so
//! a panic here would take down a coordinator or worker instead of
//! failing one job (DESIGN.md §13, §15). Mirrors the wire codec's
//! `frame_robustness.rs`.
//!
//! Each case applies 1–4 seeded edits to a valid text: a byte
//! overwritten, deleted or inserted, the new byte copied from elsewhere
//! in the same text so damage stays in the format's own alphabet.
//! Whatever still parses must also write back without a panic (a
//! serving worker re-serializes every checkpoint it suspends), and a
//! checkpoint that still parses must resume or fail with a structured
//! `RouteError`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bgr::gen::{c1, golden_instance, PlacementStyle};
use bgr::io::{
    parse_checkpoint, parse_constraints, parse_netlist, parse_placement, write_checkpoint,
    write_constraints, write_netlist, write_placement,
};
use bgr::netlist::SplitMix64;
use bgr::router::{NoopProbe, RouteSession, RouterConfig};

/// `text` with 1–4 random byte edits.
fn damage(text: &str, rng: &mut SplitMix64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.range_usize(1, 5) {
        let pos = rng.next_below(bytes.len() as u64) as usize;
        let byte = bytes[rng.next_below(bytes.len() as u64) as usize];
        match rng.next_below(3) {
            0 => bytes[pos] = byte,
            1 => {
                bytes.remove(pos);
            }
            _ => bytes.insert(pos, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parse outcomes over one damage loop.
#[derive(Debug, Default)]
struct Tally {
    parsed: usize,
    rejected: usize,
    panicked: Vec<String>,
}

impl Tally {
    /// Runs `parse` on `cases` damaged copies of `text`, recording
    /// whether each parsed, errored or panicked.
    fn run<E>(
        &mut self,
        text: &str,
        seed: u64,
        cases: usize,
        parse: impl Fn(&str) -> Result<(), E>,
    ) {
        let mut rng = SplitMix64::new(seed);
        for case in 0..cases {
            let damaged = damage(text, &mut rng);
            match catch_unwind(AssertUnwindSafe(|| parse(&damaged))) {
                Ok(Ok(())) => self.parsed += 1,
                Ok(Err(_)) => self.rejected += 1,
                Err(_) => self.panicked.push(format!("seed {seed:#x} case {case}")),
            }
        }
    }

    fn assert_never_panicked(&self, what: &str) {
        println!(
            "{what}: {} parsed, {} rejected, {} panicked",
            self.parsed,
            self.rejected,
            self.panicked.len()
        );
        assert!(self.rejected > 0, "{what}: no damage was ever rejected");
        assert!(
            self.panicked.is_empty(),
            "{what}: parser panicked on {:?}",
            self.panicked
        );
    }
}

#[test]
fn damaged_design_files_parse_or_error_and_never_panic() {
    let ds = c1(PlacementStyle::EvenFeed);
    let circuit = &ds.design.circuit;
    let netlist = write_netlist(circuit);
    let placement = write_placement(circuit, &ds.placement);
    let constraints = write_constraints(circuit, &ds.design.constraints);

    let mut tally = Tally::default();
    tally.run(&netlist, 0xB6_0001, 1500, |t| {
        parse_netlist(t).map(|c| drop(write_netlist(&c)))
    });
    tally.assert_never_panicked(".bgrn");

    let mut tally = Tally::default();
    tally.run(&placement, 0xB6_0002, 300, |t| {
        parse_placement(circuit, t).map(|p| drop(write_placement(circuit, &p)))
    });
    tally.assert_never_panicked(".bgrp");

    let mut tally = Tally::default();
    tally.run(&constraints, 0xB6_0003, 300, |t| {
        parse_constraints(circuit, t).map(|c| drop(write_constraints(circuit, &c)))
    });
    tally.assert_never_panicked(".bgrt");
}

#[test]
fn damaged_checkpoints_parse_or_error_and_never_panic() {
    let ds = golden_instance();
    let mut session = RouteSession::start(
        RouterConfig::default(),
        ds.design.circuit,
        ds.placement,
        ds.design.constraints,
        NoopProbe,
    )
    .expect("session starts");
    session.step(Some(8)).expect("step succeeds");
    let text = write_checkpoint(&session.snapshot());

    let mut tally = Tally::default();
    tally.run(&text, 0xB6_0004, 1500, |t| {
        let snapshot = parse_checkpoint(t).map_err(|e| e.to_string())?;
        let session = RouteSession::resume(snapshot, NoopProbe).map_err(|e| e.to_string())?;
        drop(write_checkpoint(&session.snapshot()));
        Ok::<(), String>(())
    });
    tally.assert_never_panicked(".bgrc");
}
