//! Versioned text serialization of [`EngineSnapshot`]s (`.bgrc`).
//!
//! A checkpoint is a single line-oriented text document embedding the
//! session's design in the existing interchange formats (netlist,
//! placement, constraints — between `begin X` / `end X` sentinels) plus
//! the sessionized router state: resolved configuration, pipeline
//! stage, per-net alive masks, feed assignment, branch lengths and the
//! cumulative observable counters (DESIGN.md §13).
//!
//! Floating-point values are written as `f64::to_bits` hex, so the
//! round-trip is *bit-exact* — a restored session computes with exactly
//! the numbers the suspended one held, which the resume-equivalence
//! guarantee requires.
//!
//! Sections appear in a fixed order, each length-prefixed where
//! variable, so truncation at any byte is detected as a structured
//! [`ParseError`] — never a panic (`tests/checkpoint_robustness.rs`
//! proves this under truncation, corruption and version-skew fuzzing).

use std::fmt::Write as _;

use bgr_core::session::{EngineSnapshot, SessionStage, SnapshotStats, SNAPSHOT_VERSION};
use bgr_core::{
    Budgets, CriteriaOrder, OnViolation, PhaseOutcome, RekeyCauses, RouterConfig,
    SelectionStrategy, VerifyLevel,
};
use bgr_netlist::NetId;
use bgr_timing::{DelayModel, WireParams};

use crate::constraints::{parse_constraints, write_constraints};
use crate::error::ParseError;
use crate::netlist::{parse_netlist, write_netlist};
use crate::placement::{parse_placement, write_placement};

/// The header line, completed by [`SNAPSHOT_VERSION`].
const HEADER_PREFIX: &str = "bgr-checkpoint v";

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn verify_str(v: VerifyLevel) -> String {
    match v {
        VerifyLevel::Off => "off".into(),
        VerifyLevel::Final => "final".into(),
        VerifyLevel::Phases => "phases".into(),
        VerifyLevel::Steps(n) => format!("steps:{n}"),
    }
}

fn opt_u64(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "none".into(),
    }
}

/// FNV-1a 64-bit hash of a design text — the integrity check of the
/// design-by-reference checkpoint mode. Stable across platforms (pure
/// byte fold, no seeding).
pub fn design_hash(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Paths of an externalized design, stored verbatim in `design-ref`
/// lines of a by-reference checkpoint. Relative paths resolve against
/// the base directory given to [`parse_checkpoint_in`] (conventionally
/// the checkpoint's own directory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignRefs {
    /// Netlist file (`.bgrn`).
    pub netlist: String,
    /// Placement file (`.bgrp`).
    pub placement: String,
    /// Constraints file (`.bgrt`).
    pub constraints: String,
}

/// Writes a snapshot's design to `<stem>.bgrn` / `.bgrp` / `.bgrt`
/// under `dir` and returns the (relative) [`DesignRefs`] for
/// [`write_checkpoint_ref`]. Queues that route the same circuit many
/// times call this once and shrink every subsequent checkpoint from
/// ~40 kB to ~1 kB.
///
/// # Errors
///
/// Propagates filesystem errors (directory creation, file writes).
pub fn externalize_design(
    snap: &EngineSnapshot,
    dir: &std::path::Path,
    stem: &str,
) -> std::io::Result<DesignRefs> {
    std::fs::create_dir_all(dir)?;
    let refs = DesignRefs {
        netlist: format!("{stem}.bgrn"),
        placement: format!("{stem}.bgrp"),
        constraints: format!("{stem}.bgrt"),
    };
    std::fs::write(dir.join(&refs.netlist), write_netlist(&snap.circuit))?;
    std::fs::write(
        dir.join(&refs.placement),
        write_placement(&snap.circuit, &snap.placement),
    )?;
    std::fs::write(
        dir.join(&refs.constraints),
        write_constraints(&snap.circuit, &snap.constraints),
    )?;
    Ok(refs)
}

/// Re-serializes a checkpoint with its embedded [`RouterConfig`]
/// replaced — the speculative-portfolio helper: each arm races the
/// *same* suspended state under different knobs.
///
/// Only deterministically safe knobs should differ between arms:
/// `criteria_order` (changes future deletion decisions — the point of
/// racing), `selection` (proven observable-invariant), budgets and
/// verify level. Changing
/// `use_constraints` or the delay model mid-run re-interprets state the
/// suspended session already computed and is rejected by nothing here —
/// callers own that contract.
///
/// # Errors
///
/// A structured [`ParseError`] when `text` is not a valid checkpoint.
pub fn reconfigure_checkpoint(
    text: &str,
    config: &bgr_core::RouterConfig,
) -> Result<String, ParseError> {
    let mut snap = parse_checkpoint(text)?;
    snap.config = config.clone();
    Ok(write_checkpoint(&snap))
}

/// Serializes a snapshot to the checkpoint text format.
pub fn write_checkpoint(snap: &EngineSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER_PREFIX}{SNAPSHOT_VERSION}");
    // The embedded design first: everything after it is interpreted
    // against these objects.
    let _ = writeln!(out, "begin netlist");
    out.push_str(&write_netlist(&snap.circuit));
    let _ = writeln!(out, "end netlist");
    let _ = writeln!(out, "begin placement");
    out.push_str(&write_placement(&snap.circuit, &snap.placement));
    let _ = writeln!(out, "end placement");
    let _ = writeln!(out, "begin constraints");
    out.push_str(&write_constraints(&snap.circuit, &snap.constraints));
    let _ = writeln!(out, "end constraints");
    write_state(&mut out, snap);
    out
}

/// [`write_checkpoint`] in design-by-reference mode: instead of
/// embedding the design, emits one `design-ref <kind> <fnv64> <path>`
/// line per design file (hashing the snapshot's own canonical
/// serialization, so a file produced by [`externalize_design`] always
/// verifies). Such a checkpoint must be restored with
/// [`parse_checkpoint_in`]; the plain parser reports a structured
/// error directing there.
pub fn write_checkpoint_ref(snap: &EngineSnapshot, refs: &DesignRefs) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER_PREFIX}{SNAPSHOT_VERSION}");
    let _ = writeln!(
        out,
        "design-ref netlist {:016x} {}",
        design_hash(&write_netlist(&snap.circuit)),
        refs.netlist
    );
    let _ = writeln!(
        out,
        "design-ref placement {:016x} {}",
        design_hash(&write_placement(&snap.circuit, &snap.placement)),
        refs.placement
    );
    let _ = writeln!(
        out,
        "design-ref constraints {:016x} {}",
        design_hash(&write_constraints(&snap.circuit, &snap.constraints)),
        refs.constraints
    );
    write_state(&mut out, snap);
    out
}

/// The design-independent tail of a checkpoint: config, stage, stats,
/// recovery, logs, masks — shared by both writer modes.
fn write_state(out: &mut String, snap: &EngineSnapshot) {
    let c = &snap.config;
    let _ = writeln!(
        out,
        "config use_constraints {}",
        u8::from(c.use_constraints)
    );
    let _ = writeln!(
        out,
        "config delay_model {}",
        match c.delay_model {
            DelayModel::Capacitance => "capacitance",
            DelayModel::Elmore => "elmore",
        }
    );
    let _ = writeln!(
        out,
        "config wire {} {}",
        f64_hex(c.wire.cap_ff_per_um),
        f64_hex(c.wire.res_ohm_per_um)
    );
    let _ = writeln!(
        out,
        "config branch_length_um {}",
        f64_hex(c.branch_length_um)
    );
    let _ = writeln!(out, "config recover_passes {}", c.recover_passes);
    let _ = writeln!(out, "config delay_passes {}", c.delay_passes);
    let _ = writeln!(out, "config area_passes {}", c.area_passes);
    let _ = writeln!(
        out,
        "config criteria_order {}",
        match c.criteria_order {
            CriteriaOrder::DelayFirst => "delay_first",
            CriteriaOrder::AreaFirst => "area_first",
            CriteriaOrder::DensityOnly => "density_only",
        }
    );
    let _ = writeln!(
        out,
        "config pair_differential {}",
        u8::from(c.pair_differential)
    );
    let _ = writeln!(out, "config slack_ordering {}", u8::from(c.slack_ordering));
    let _ = writeln!(
        out,
        "config selection {}",
        match c.selection {
            SelectionStrategy::Scoreboard => "scoreboard",
            SelectionStrategy::FullRescan => "full_rescan",
        }
    );
    let _ = writeln!(
        out,
        "config on_violation {}",
        match c.on_violation {
            OnViolation::Fail => "fail",
            OnViolation::BestEffort => "best_effort",
        }
    );
    let _ = writeln!(out, "config verify {}", verify_str(c.verify));
    let _ = writeln!(
        out,
        "config deletion_steps {}",
        opt_u64(c.budgets.deletion_steps)
    );
    let _ = writeln!(
        out,
        "config phase_reroutes {}",
        opt_u64(c.budgets.phase_reroutes)
    );
    let _ = writeln!(
        out,
        "config deadline_ns {}",
        match c.deadline {
            Some(d) => d.as_nanos().to_string(),
            None => "none".into(),
        }
    );

    let _ = match snap.stage {
        SessionStage::InitialRouting { done } => writeln!(out, "stage initial_routing {done}"),
        stage => writeln!(out, "stage {}", stage.label()),
    };
    let _ = writeln!(out, "events_emitted {}", snap.events_emitted);

    let s = &snap.stats;
    let _ = writeln!(out, "stat deletions {}", s.deletions);
    let _ = writeln!(out, "stat reroutes {}", s.reroutes);
    let rk = s.rekey_causes.counts();
    let _ = writeln!(out, "stat rekey_causes {} {} {}", rk[0], rk[1], rk[2]);
    let _ = writeln!(out, "stat audits_passed {}", s.audits_passed);
    let _ = writeln!(out, "stat audit_checks {}", s.audit_checks);
    let _ = writeln!(out, "stat feed_cells_inserted {}", s.feed_cells_inserted);
    let _ = writeln!(out, "stat widened_pitches {}", s.widened_pitches);
    let _ = writeln!(out, "stat diff_pairs_locked {}", s.diff_pairs_locked);
    let _ = writeln!(
        out,
        "stat diff_pairs_independent {}",
        s.diff_pairs_independent
    );
    let r = &snap.recovery;
    let _ = writeln!(
        out,
        "recovery {} {} {} {}",
        r.reroutes,
        r.passes,
        u8::from(r.budget_exhausted),
        u8::from(r.deadline_fired)
    );

    let _ = writeln!(out, "branch_lens {}", snap.branch_lens.len());
    for v in &snap.branch_lens {
        let _ = writeln!(out, "b {}", f64_hex(*v));
    }
    let _ = writeln!(out, "selection_log {}", snap.stats.selection_log.len());
    for (net, edge) in &snap.stats.selection_log {
        let _ = writeln!(out, "s {} {}", net.index(), edge);
    }
    let _ = writeln!(out, "feeds {}", snap.feeds.len());
    for per_net in &snap.feeds {
        let _ = write!(out, "f {}", per_net.len());
        for (row, x) in per_net {
            let _ = write!(out, " {row}:{x}");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "alive {}", snap.alive.len());
    for mask in &snap.alive {
        let bits: String = mask.iter().map(|&b| if b { '1' } else { '0' }).collect();
        let _ = writeln!(out, "a {bits}");
    }
    let _ = writeln!(out, "end checkpoint");
}

/// Line cursor over the checkpoint text, tracking 1-based positions for
/// error reporting.
struct Cursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().enumerate(),
            pos: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, ParseError> {
        match self.lines.next() {
            Some((i, l)) => {
                self.pos = i + 1;
                Ok(l)
            }
            None => Err(ParseError::new(0, "unexpected end of checkpoint")),
        }
    }

    /// The upcoming line, without consuming it.
    fn peek(&self) -> Option<&'a str> {
        self.lines.clone().next().map(|(_, l)| l)
    }

    /// Next line, which must start with `keyword `; returns the rest.
    fn field(&mut self, keyword: &str) -> Result<&'a str, ParseError> {
        let line = self.next()?;
        match line.strip_prefix(keyword).and_then(|r| r.strip_prefix(' ')) {
            Some(rest) => Ok(rest),
            None => Err(ParseError::new(
                self.pos,
                format!("expected `{keyword} ...`, got {line:?}"),
            )),
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, message)
    }

    /// Collects the lines of a `begin name` .. `end name` block.
    fn block(&mut self, name: &str) -> Result<String, ParseError> {
        let open = self.next()?;
        if open != format!("begin {name}") {
            return Err(self.err(format!("expected `begin {name}`, got {open:?}")));
        }
        let close = format!("end {name}");
        let mut body = String::new();
        loop {
            let line = self.next()?;
            if line == close {
                return Ok(body);
            }
            body.push_str(line);
            body.push('\n');
        }
    }

    fn f64_hex(&self, raw: &str) -> Result<f64, ParseError> {
        u64::from_str_radix(raw, 16)
            .map(f64::from_bits)
            .map_err(|_| self.err(format!("bad f64 bits {raw:?}")))
    }

    fn usize_of(&self, raw: &str) -> Result<usize, ParseError> {
        raw.parse()
            .map_err(|_| self.err(format!("bad integer {raw:?}")))
    }

    fn u64_of(&self, raw: &str) -> Result<u64, ParseError> {
        raw.parse()
            .map_err(|_| self.err(format!("bad integer {raw:?}")))
    }

    fn bool_of(&self, raw: &str) -> Result<bool, ParseError> {
        match raw {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.err(format!("bad flag {raw:?} (want 0 or 1)"))),
        }
    }

    fn usize_field(&mut self, keyword: &str) -> Result<usize, ParseError> {
        let raw = self.field(keyword)?;
        self.usize_of(raw)
    }

    fn u64_field(&mut self, keyword: &str) -> Result<u64, ParseError> {
        let raw = self.field(keyword)?;
        self.u64_of(raw)
    }

    fn bool_field(&mut self, keyword: &str) -> Result<bool, ParseError> {
        let raw = self.field(keyword)?;
        self.bool_of(raw)
    }

    fn f64_field(&mut self, keyword: &str) -> Result<f64, ParseError> {
        let raw = self.field(keyword)?;
        self.f64_hex(raw)
    }

    fn opt_u64_field(&mut self, keyword: &str) -> Result<Option<u64>, ParseError> {
        let raw = self.field(keyword)?;
        if raw == "none" {
            Ok(None)
        } else {
            self.u64_of(raw).map(Some)
        }
    }
}

/// Parses the checkpoint text format back into an [`EngineSnapshot`].
///
/// # Errors
///
/// A structured [`ParseError`] for version skew, truncation, or any
/// malformed line — by design this function never panics on arbitrary
/// input.
// Config fields are parsed sequentially in the fixed emission order so
// errors point at the offending line; a struct literal can't do that.
#[allow(clippy::field_reassign_with_default)]
pub fn parse_checkpoint(text: &str) -> Result<EngineSnapshot, ParseError> {
    parse_checkpoint_inner(text, None)
}

/// [`parse_checkpoint`] that can additionally restore design-by-reference
/// checkpoints ([`write_checkpoint_ref`]): relative `design-ref` paths
/// resolve against `base_dir` (conventionally the checkpoint's own
/// directory), each referenced file's FNV-1a hash is re-computed and
/// verified against the recorded one, and a mismatch — a swapped or
/// edited design file — is a structured [`ParseError`], never a
/// mis-restored session.
///
/// # Errors
///
/// Everything [`parse_checkpoint`] reports, plus unreadable reference
/// files and design-hash mismatches.
pub fn parse_checkpoint_in(
    text: &str,
    base_dir: &std::path::Path,
) -> Result<EngineSnapshot, ParseError> {
    parse_checkpoint_inner(text, Some(base_dir))
}

/// One `design-ref <kind> <fnv64> <path>` line: resolve, read, verify.
fn design_ref_text(
    cur: &mut Cursor,
    kind: &str,
    base_dir: Option<&std::path::Path>,
) -> Result<String, ParseError> {
    let rest = cur.field("design-ref")?;
    let mut parts = rest.splitn(3, ' ');
    match parts.next() {
        Some(k) if k == kind => {}
        other => {
            return Err(cur.err(format!(
                "expected `design-ref {kind} ...`, got kind {other:?}"
            )))
        }
    }
    let hash_raw = parts
        .next()
        .ok_or_else(|| cur.err(format!("design-ref {kind}: missing hash")))?;
    let expected = u64::from_str_radix(hash_raw, 16)
        .map_err(|_| cur.err(format!("design-ref {kind}: bad hash {hash_raw:?}")))?;
    let path = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or_else(|| cur.err(format!("design-ref {kind}: missing path")))?;
    let Some(base_dir) = base_dir else {
        return Err(cur.err(format!(
            "checkpoint stores its {kind} by reference ({path}); restore it with \
             parse_checkpoint_in and the checkpoint's directory"
        )));
    };
    let full = {
        let p = std::path::Path::new(path);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            base_dir.join(p)
        }
    };
    let text = std::fs::read_to_string(&full).map_err(|e| {
        cur.err(format!(
            "design-ref {kind}: cannot read {}: {e}",
            full.display()
        ))
    })?;
    let got = design_hash(&text);
    if got != expected {
        return Err(cur.err(format!(
            "design-ref {kind}: hash mismatch for {} (checkpoint records {expected:016x}, \
             file hashes to {got:016x}) — the referenced design changed since the checkpoint \
             was written",
            full.display()
        )));
    }
    Ok(text)
}

#[allow(clippy::field_reassign_with_default)]
fn parse_checkpoint_inner(
    text: &str,
    base_dir: Option<&std::path::Path>,
) -> Result<EngineSnapshot, ParseError> {
    let mut cur = Cursor::new(text);
    let header = cur.next()?;
    match header.strip_prefix(HEADER_PREFIX) {
        Some(v) if v == SNAPSHOT_VERSION.to_string() => {}
        Some(v) => {
            return Err(cur.err(format!(
                "checkpoint version {v:?} unsupported (this build reads v{SNAPSHOT_VERSION})"
            )))
        }
        None => return Err(cur.err(format!("not a bgr checkpoint (header {header:?})"))),
    }

    let by_reference = cur.peek().is_some_and(|l| l.starts_with("design-ref "));
    let (netlist_text, placement_text, constraints_text) = if by_reference {
        (
            design_ref_text(&mut cur, "netlist", base_dir)?,
            design_ref_text(&mut cur, "placement", base_dir)?,
            design_ref_text(&mut cur, "constraints", base_dir)?,
        )
    } else {
        (
            cur.block("netlist")?,
            cur.block("placement")?,
            cur.block("constraints")?,
        )
    };
    let circuit =
        parse_netlist(&netlist_text).map_err(|e| cur.err(format!("embedded netlist: {e}")))?;
    let placement = parse_placement(&circuit, &placement_text)
        .map_err(|e| cur.err(format!("embedded placement: {e}")))?;
    let constraints = parse_constraints(&circuit, &constraints_text)
        .map_err(|e| cur.err(format!("embedded constraints: {e}")))?;

    // Config fields, in the fixed emission order.
    let mut config = RouterConfig::default();
    config.use_constraints = cur.bool_field("config use_constraints")?;
    config.delay_model = match cur.field("config delay_model")? {
        "capacitance" => DelayModel::Capacitance,
        "elmore" => DelayModel::Elmore,
        other => return Err(cur.err(format!("unknown delay model {other:?}"))),
    };
    {
        let raw = cur.field("config wire")?;
        let mut it = raw.split(' ');
        let cap = it.next().ok_or_else(|| cur.err("missing wire cap"))?;
        let res = it.next().ok_or_else(|| cur.err("missing wire res"))?;
        config.wire = WireParams {
            cap_ff_per_um: cur.f64_hex(cap)?,
            res_ohm_per_um: cur.f64_hex(res)?,
        };
    }
    config.branch_length_um = cur.f64_field("config branch_length_um")?;
    config.recover_passes = cur.usize_field("config recover_passes")?;
    config.delay_passes = cur.usize_field("config delay_passes")?;
    config.area_passes = cur.usize_field("config area_passes")?;
    config.criteria_order = match cur.field("config criteria_order")? {
        "delay_first" => CriteriaOrder::DelayFirst,
        "area_first" => CriteriaOrder::AreaFirst,
        "density_only" => CriteriaOrder::DensityOnly,
        other => return Err(cur.err(format!("unknown criteria order {other:?}"))),
    };
    config.pair_differential = cur.bool_field("config pair_differential")?;
    config.slack_ordering = cur.bool_field("config slack_ordering")?;
    config.selection = match cur.field("config selection")? {
        "scoreboard" => SelectionStrategy::Scoreboard,
        "full_rescan" => SelectionStrategy::FullRescan,
        other => return Err(cur.err(format!("unknown selection strategy {other:?}"))),
    };
    config.on_violation = match cur.field("config on_violation")? {
        "fail" => OnViolation::Fail,
        "best_effort" => OnViolation::BestEffort,
        other => return Err(cur.err(format!("unknown violation policy {other:?}"))),
    };
    config.verify = {
        let raw = cur.field("config verify")?;
        let level = VerifyLevel::parse(raw);
        // VerifyLevel::parse maps garbage to Off; reject it here instead.
        if level == VerifyLevel::Off && raw != "off" {
            return Err(cur.err(format!("unknown verify level {raw:?}")));
        }
        level
    };
    config.budgets = Budgets {
        deletion_steps: cur.opt_u64_field("config deletion_steps")?,
        phase_reroutes: cur.opt_u64_field("config phase_reroutes")?,
    };
    config.deadline = match cur.field("config deadline_ns")? {
        "none" => None,
        raw => {
            let ns: u128 = raw
                .parse()
                .map_err(|_| cur.err(format!("bad deadline {raw:?}")))?;
            let ns64 = u64::try_from(ns).map_err(|_| cur.err("deadline out of range"))?;
            Some(std::time::Duration::from_nanos(ns64))
        }
    };

    let stage = {
        let raw = cur.field("stage")?;
        match raw.split_once(' ') {
            Some(("initial_routing", done)) => SessionStage::InitialRouting {
                done: cur.u64_of(done)?,
            },
            None => match raw {
                "recover_violate" => SessionStage::RecoverViolate,
                "improve_delay" => SessionStage::ImproveDelay,
                "improve_area" => SessionStage::ImproveArea,
                "finished" => SessionStage::Finished,
                other => return Err(cur.err(format!("unknown stage {other:?}"))),
            },
            Some((other, _)) => return Err(cur.err(format!("unknown stage {other:?}"))),
        }
    };
    let events_emitted = cur.u64_field("events_emitted")?;

    let mut stats = SnapshotStats {
        deletions: cur.usize_field("stat deletions")?,
        reroutes: cur.usize_field("stat reroutes")?,
        ..SnapshotStats::default()
    };
    stats.rekey_causes = {
        let raw = cur.field("stat rekey_causes")?;
        let mut counts = [0usize; 3];
        let mut it = raw.split(' ');
        for slot in &mut counts {
            let tok = it
                .next()
                .ok_or_else(|| cur.err("rekey_causes wants 3 counts"))?;
            *slot = cur.usize_of(tok)?;
        }
        RekeyCauses::from_counts(counts)
    };
    stats.audits_passed = cur.u64_field("stat audits_passed")?;
    stats.audit_checks = cur.u64_field("stat audit_checks")?;
    stats.feed_cells_inserted = cur.usize_field("stat feed_cells_inserted")?;
    stats.widened_pitches = {
        let raw = cur.field("stat widened_pitches")?;
        raw.parse()
            .map_err(|_| cur.err(format!("bad integer {raw:?}")))?
    };
    stats.diff_pairs_locked = cur.usize_field("stat diff_pairs_locked")?;
    stats.diff_pairs_independent = cur.usize_field("stat diff_pairs_independent")?;

    let recovery = {
        let raw = cur.field("recovery")?;
        let mut it = raw.split(' ');
        let mut toks = Vec::with_capacity(4);
        for _ in 0..4 {
            toks.push(
                it.next()
                    .ok_or_else(|| cur.err("recovery wants 4 fields"))?,
            );
        }
        PhaseOutcome {
            reroutes: cur.usize_of(toks[0])?,
            passes: cur.usize_of(toks[1])?,
            budget_exhausted: cur.bool_of(toks[2])?,
            deadline_fired: cur.bool_of(toks[3])?,
        }
    };

    let n_branch = cur.usize_field("branch_lens")?;
    let mut branch_lens = Vec::with_capacity(n_branch.min(1 << 20));
    for _ in 0..n_branch {
        branch_lens.push(cur.f64_field("b")?);
    }
    let n_sel = cur.usize_field("selection_log")?;
    let mut selection_log = Vec::with_capacity(n_sel.min(1 << 20));
    for _ in 0..n_sel {
        let raw = cur.field("s")?;
        let (net, edge) = raw
            .split_once(' ')
            .ok_or_else(|| cur.err("selection entry wants `net edge`"))?;
        let net = cur.usize_of(net)?;
        let edge: u32 = edge
            .parse()
            .map_err(|_| cur.err(format!("bad edge {edge:?}")))?;
        selection_log.push((NetId::new(net), edge));
    }
    stats.selection_log = selection_log;
    let n_feeds = cur.usize_field("feeds")?;
    let mut feeds = Vec::with_capacity(n_feeds.min(1 << 20));
    for _ in 0..n_feeds {
        let raw = cur.field("f")?;
        let mut it = raw.split(' ');
        let count = cur.usize_of(it.next().unwrap_or(""))?;
        let mut per_net = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let tok = it.next().ok_or_else(|| cur.err("short feed list"))?;
            let (row, x) = tok
                .split_once(':')
                .ok_or_else(|| cur.err(format!("bad feed {tok:?} (want row:x)")))?;
            let row = cur.usize_of(row)?;
            let x: i32 = x
                .parse()
                .map_err(|_| cur.err(format!("bad feed x {x:?}")))?;
            per_net.push((row, x));
        }
        if it.next().is_some() {
            return Err(cur.err("trailing tokens after feed list"));
        }
        feeds.push(per_net);
    }
    let n_alive = cur.usize_field("alive")?;
    let mut alive = Vec::with_capacity(n_alive.min(1 << 20));
    for _ in 0..n_alive {
        let raw = cur.field("a")?;
        let mut mask = Vec::with_capacity(raw.len());
        for ch in raw.chars() {
            match ch {
                '0' => mask.push(false),
                '1' => mask.push(true),
                _ => return Err(cur.err(format!("bad mask bit {ch:?}"))),
            }
        }
        alive.push(mask);
    }
    let tail = cur.next()?;
    if tail != "end checkpoint" {
        return Err(cur.err(format!("expected `end checkpoint`, got {tail:?}")));
    }

    Ok(EngineSnapshot {
        version: SNAPSHOT_VERSION,
        config,
        circuit,
        placement,
        constraints,
        feeds,
        branch_lens,
        alive,
        stage,
        stats,
        recovery,
        events_emitted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgr_core::probe::CollectingProbe;
    use bgr_core::session::RouteSession;
    use bgr_gen::circuits::golden_instance;

    fn sample_snapshot() -> EngineSnapshot {
        let ds = golden_instance();
        let (circuit, placement, cons) = (ds.design.circuit, ds.placement, ds.design.constraints);
        let mut session = RouteSession::start(
            RouterConfig::default(),
            circuit,
            placement,
            cons,
            CollectingProbe::new(),
        )
        .unwrap();
        // Park mid-deletion-loop so the snapshot carries real state.
        for _ in 0..3 {
            session.step(Some(5)).unwrap();
        }
        session.snapshot()
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let snap = sample_snapshot();
        let text = write_checkpoint(&snap);
        let back = parse_checkpoint(&text).unwrap();
        assert_eq!(back.version, snap.version);
        assert_eq!(back.config, snap.config);
        assert_eq!(back.stage, snap.stage);
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.recovery, snap.recovery);
        assert_eq!(back.events_emitted, snap.events_emitted);
        assert_eq!(back.feeds, snap.feeds);
        assert_eq!(back.alive, snap.alive);
        // f64 bit-exactness, not just approximate equality.
        let a: Vec<u64> = back.branch_lens.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = snap.branch_lens.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        // And the re-serialization is byte-identical.
        assert_eq!(write_checkpoint(&back), text);
    }

    #[test]
    fn by_reference_round_trips_and_compacts() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("bgr_ckpt_ref_roundtrip");
        let refs = externalize_design(&snap, &dir, "design").unwrap();
        let text = write_checkpoint_ref(&snap, &refs);
        let embedded = write_checkpoint(&snap);
        assert!(
            text.len() * 5 < embedded.len(),
            "by-reference checkpoint should be a small fraction of the embedded one \
             ({} vs {} bytes)",
            text.len(),
            embedded.len()
        );

        let back = parse_checkpoint_in(&text, &dir).unwrap();
        assert_eq!(back.config, snap.config);
        assert_eq!(back.stage, snap.stage);
        assert_eq!(back.stats, snap.stats);
        assert_eq!(back.events_emitted, snap.events_emitted);
        assert_eq!(back.feeds, snap.feeds);
        assert_eq!(back.alive, snap.alive);
        let a: Vec<u64> = back.branch_lens.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = snap.branch_lens.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        // The restored snapshot re-serializes to the identical ref text
        // (same design → same hashes) and to the identical embedded text.
        assert_eq!(write_checkpoint_ref(&back, &refs), text);
        assert_eq!(write_checkpoint(&back), embedded);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn by_reference_without_resolver_is_structured() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("bgr_ckpt_ref_noresolve");
        let refs = externalize_design(&snap, &dir, "design").unwrap();
        let text = write_checkpoint_ref(&snap, &refs);
        let err = parse_checkpoint(&text).unwrap_err();
        assert!(err.message.contains("parse_checkpoint_in"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn by_reference_hash_mismatch_and_missing_file_are_structured() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("bgr_ckpt_ref_tamper");
        let refs = externalize_design(&snap, &dir, "design").unwrap();
        let text = write_checkpoint_ref(&snap, &refs);

        // Tamper with the referenced netlist: caught by the hash, with a
        // message naming the file and both hashes.
        let netlist_path = dir.join(&refs.netlist);
        let original = std::fs::read_to_string(&netlist_path).unwrap();
        std::fs::write(&netlist_path, format!("{original}\n")).unwrap();
        let err = parse_checkpoint_in(&text, &dir).unwrap_err();
        assert!(err.message.contains("hash mismatch"), "{err}");
        assert!(err.message.contains("design.bgrn"), "{err}");

        // Remove it entirely: a structured read error, not a panic.
        std::fs::remove_file(&netlist_path).unwrap();
        let err = parse_checkpoint_in(&text, &dir).unwrap_err();
        assert!(err.message.contains("cannot read"), "{err}");

        // Malformed ref lines are structured too.
        for bad in [
            "design-ref netlist zzzz design.bgrn",
            "design-ref netlist 0123",
            "design-ref placement 0123456789abcdef design.bgrp",
        ] {
            let mangled = text
                .lines()
                .map(|l| {
                    if l.starts_with("design-ref netlist") {
                        bad.to_string()
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            assert!(parse_checkpoint_in(&mangled, &dir).is_err(), "{bad}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn design_hash_is_stable_and_content_sensitive() {
        // Pinned FNV-1a 64 vectors: a changed algorithm would silently
        // orphan every existing by-reference checkpoint.
        assert_eq!(design_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(design_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(design_hash("net n0"), design_hash("net n1"));
    }

    #[test]
    fn version_skew_is_a_parse_error() {
        let text = write_checkpoint(&sample_snapshot());
        let skewed = text.replacen("bgr-checkpoint v3", "bgr-checkpoint v4", 1);
        assert_ne!(skewed, text);
        let err = parse_checkpoint(&skewed).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
        let err = parse_checkpoint("hello world\n").unwrap_err();
        assert!(err.message.contains("not a bgr checkpoint"), "{err}");
    }

    #[test]
    fn truncation_is_a_parse_error_at_every_cut() {
        let text = write_checkpoint(&sample_snapshot());
        let lines: Vec<&str> = text.lines().collect();
        for frac in [1, 3, 10, 30, 60, 95] {
            let cut = lines.len() * frac / 100;
            let truncated: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
            assert!(
                parse_checkpoint(&truncated).is_err(),
                "cut at {cut}/{} lines parsed",
                lines.len()
            );
        }
    }
}
