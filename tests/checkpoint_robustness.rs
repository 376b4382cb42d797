//! Checkpoint robustness: damaged checkpoints must surface as
//! structured errors — `bgr::io::ParseError` from the codec or
//! `RouteError::Checkpoint` from [`RouteSession::resume`] — and
//! **never** as a panic (DESIGN.md §13). Damage the restore path can't
//! see syntactically (a mutated statistic) must instead be caught by
//! the independent post-restore audit.
//!
//! Covered here:
//!
//! - truncation at every granularity (whole-line cuts across the file
//!   and mid-line byte cuts) → `ParseError`;
//! - token corruption (garbled hex, non-numeric counts, wrong
//!   keywords, bad mask characters) → `ParseError`;
//! - version skew, including v1 and v2 documents with their retired
//!   `config threads` / `config shards` lines → `ParseError` naming
//!   the version;
//! - a syntactically valid checkpoint whose alive-mask disconnects a
//!   net → `RouteError::Checkpoint` at resume;
//! - a `diff_pairs_locked` stat bump — parses and resumes cleanly, but
//!   the finished result fails the differential-pair oracle of the
//!   independent audit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bgr::gen::golden_instance;
use bgr::io::{parse_checkpoint, write_checkpoint};
use bgr::router::{CollectingProbe, RouteError, RouteSession, RouterConfig};
use bgr::verify::{audit, Invariant};

/// A mid-run checkpoint of the golden instance (parked inside the
/// deletion loop, several suspensions in).
fn mid_run_checkpoint() -> String {
    let ds = golden_instance();
    let mut session = RouteSession::start(
        RouterConfig::default(),
        ds.design.circuit.clone(),
        ds.placement.clone(),
        ds.design.constraints.clone(),
        CollectingProbe::new(),
    )
    .expect("session starts");
    for _ in 0..3 {
        session.step(Some(4)).expect("step succeeds");
    }
    write_checkpoint(&session.snapshot())
}

/// Asserts `parse_checkpoint(text)` errors structurally — and, via
/// `catch_unwind`, that it does not panic either.
fn assert_parse_rejects(text: &str, what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| parse_checkpoint(text).map(|_| ())));
    match outcome {
        Ok(Err(_)) => {}
        Ok(Ok(())) => panic!("{what}: damaged checkpoint parsed cleanly"),
        Err(_) => panic!("{what}: parser panicked instead of erroring"),
    }
}

#[test]
fn truncation_never_panics_and_always_errors() {
    let text = mid_run_checkpoint();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 40, "checkpoint too small to exercise cuts");
    // Whole-line cuts spread over the file (0 lines up to all-but-one).
    for keep in [0, 1, 2, lines.len() / 4, lines.len() / 2, lines.len() - 1] {
        let cut = lines[..keep].join("\n");
        assert_parse_rejects(&cut, &format!("cut after {keep} lines"));
    }
    // Mid-line byte cuts (sliced at char boundaries).
    for frac in [1usize, 3, 7] {
        let mut cut = text.len() * frac / 8;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        assert_parse_rejects(&text[..cut], &format!("byte cut at {cut}"));
    }
}

#[test]
fn corrupted_tokens_are_parse_errors() {
    let text = mid_run_checkpoint();
    let cases: Vec<(String, &str)> = vec![
        (
            text.replacen("bgr-checkpoint v3", "bgr-checkpoint v4", 1),
            "version skew",
        ),
        (
            text.replacen("bgr-checkpoint v3", "some other file", 1),
            "foreign header",
        ),
        (text.replacen("stage", "stge", 1), "misspelled keyword"),
        (
            text.replacen("stat deletions ", "stat deletions x", 1),
            "non-numeric stat",
        ),
        (
            text.replacen("config wire ", "config wire zz", 1),
            "garbled hex",
        ),
    ];
    for (damaged, what) in &cases {
        assert_ne!(damaged, &text, "{what}: mutation did not apply");
        assert_parse_rejects(damaged, what);
    }
    // Bad alive-mask character.
    let masked = {
        let idx = text.find("\na ").expect("alive section present");
        let mut t = text.clone();
        t.replace_range(idx + 3..idx + 4, "2");
        t
    };
    assert_parse_rejects(&masked, "bad mask char");
}

#[test]
fn version_skew_error_names_the_version() {
    let text = mid_run_checkpoint().replacen("bgr-checkpoint v3", "bgr-checkpoint v7", 1);
    let err = parse_checkpoint(&text).expect_err("skewed version must not parse");
    assert!(
        err.to_string().contains("version"),
        "unhelpful version error: {err}"
    );
}

/// The current text with its header set back to `v{version}` and the
/// retired config lines `retired` restored after `config selection`.
fn old_document(version: u32, retired: &[&str]) -> String {
    let mut old = String::new();
    for line in mid_run_checkpoint().lines() {
        if line == "bgr-checkpoint v3" {
            old.push_str(&format!("bgr-checkpoint v{version}\n"));
            continue;
        }
        old.push_str(line);
        old.push('\n');
        if line.starts_with("config selection ") {
            for r in retired {
                old.push_str(r);
                old.push('\n');
            }
        }
    }
    assert!(
        old.starts_with(&format!("bgr-checkpoint v{version}\n")),
        "header not set back"
    );
    for r in retired {
        assert!(old.contains(&format!("\n{r}\n")), "{r:?} not restored");
    }
    old
}

#[test]
fn v1_document_is_rejected_by_version() {
    let v1 = old_document(1, &["config threads 1", "config shards 4"]);
    let v2 = old_document(2, &["config threads 1"]);
    for (version, text) in [(1, v1), (2, v2)] {
        let err = parse_checkpoint(&text).expect_err("an old checkpoint must not parse");
        assert_eq!(err.line, 1, "v{version} rejected past the header: {err}");
        assert!(
            err.message.contains(&format!("version \"{version}\"")) && err.message.contains("v3"),
            "error does not name both versions: {err}"
        );
    }
}

#[test]
fn disconnecting_alive_mask_is_a_checkpoint_error() {
    let text = mid_run_checkpoint();
    // Kill every edge of the first net: terminals can no longer connect.
    let idx = text.find("\na ").expect("alive section present") + 1;
    let end = text[idx..].find('\n').map(|e| idx + e).unwrap();
    let dead = "a ".to_string() + &"0".repeat(end - idx - 2);
    let damaged = format!("{}{}{}", &text[..idx], dead, &text[end..]);
    let snapshot = parse_checkpoint(&damaged).expect("mask damage is syntactically valid");
    let err = match RouteSession::resume(snapshot, CollectingProbe::new()) {
        Err(e) => e,
        Ok(_) => panic!("resume must reject a disconnecting mask"),
    };
    assert!(
        matches!(&err, RouteError::Checkpoint { .. }),
        "wrong variant: {err}"
    );
    assert!(err.to_string().contains("disconnect"), "unhelpful: {err}");
}

#[test]
fn stat_mutation_is_caught_by_the_post_restore_audit() {
    let ds = golden_instance();
    let config = RouterConfig::default();
    let text = mid_run_checkpoint();

    // Bump `diff_pairs_locked`: syntactically fine, semantically a lie —
    // the restore path cannot see it, the independent audit can
    // (locked + independent must equal the circuit's pair count).
    let line_start = text
        .find("stat diff_pairs_locked ")
        .expect("stat line present");
    let val_start = line_start + "stat diff_pairs_locked ".len();
    let val_end = val_start + text[val_start..].find('\n').unwrap();
    let locked: usize = text[val_start..val_end].parse().unwrap();
    let damaged = format!("{}{}{}", &text[..val_start], locked + 1, &text[val_end..]);

    let snapshot = parse_checkpoint(&damaged).expect("stat lie parses");
    let mut session =
        RouteSession::resume(snapshot, CollectingProbe::new()).expect("stat lie resumes");
    while session.step(None).expect("step succeeds") != bgr::router::StepOutcome::Ready {}
    let (routed, _) = session.finish().expect("finish succeeds");

    let report = audit(
        &routed.circuit,
        &routed.placement,
        &ds.design.constraints,
        &config,
        &routed.result,
    );
    assert!(!report.is_clean(), "audit missed the corrupted statistic");
    assert!(
        report.verdict(Invariant::DiffPair).failure.is_some(),
        "corruption should fail the differential-pair oracle, got: {:?}",
        report.first_failure()
    );
}
