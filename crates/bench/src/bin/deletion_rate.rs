//! Deletions-per-second: incremental scoreboard vs full-rescan oracle.
//!
//! Routes each instance under both [`SelectionStrategy`] variants,
//! reports the deletion throughput of each, the strategy speedup, and
//! the scoreboard's re-key breakdown by typed cause. Both runs of an
//! instance are asserted to make identical selections, so the
//! comparison is work-for-work.
//!
//! Rows: a ~1400-cell `RATE` instance (where the scoreboard is asserted
//! to win) plus the paper-scale `C2P1`/`C3P1` reconstructions
//! (report-only). Every row is also appended to a machine-readable
//! `BENCH_deletion.json` (default `target/bench/BENCH_deletion.json`)
//! so the bench trajectory is tracked across PRs; rows keep a constant
//! `"threads":1` column, the key `trace_query gate` matches on.
//!
//! Usage: `deletion_rate [--smoke] [--paper] [out.json]` — `--smoke`
//! routes only the `RATE` scoreboard row; `--paper` additionally
//! routes one scoreboard row for each of `C2P1`/`C3P1`, giving the
//! regression gate paper-scale throughput rows without the full
//! bench's strategy sweeps.

use std::fmt::Write as _;
use std::time::Instant;

use bgr_core::{GlobalRouter, RouteStats, RouterConfig, SelectionStrategy};
use bgr_gen::{c2_cached, c3_cached, custom, DataSet, GenParams, PlacementStyle};

/// One benchmark run, as serialized into `BENCH_deletion.json`.
struct Record {
    instance: String,
    strategy: &'static str,
    wall_ms: f64,
    selections: usize,
    deletions: usize,
}

fn strategy_label(s: SelectionStrategy) -> &'static str {
    match s {
        SelectionStrategy::Scoreboard => "scoreboard",
        SelectionStrategy::FullRescan => "full_rescan",
    }
}

fn run(ds: &DataSet, strategy: SelectionStrategy, records: &mut Vec<Record>) -> (f64, RouteStats) {
    let config = RouterConfig {
        selection: strategy,
        ..RouterConfig::default()
    };
    let t = Instant::now();
    let routed = GlobalRouter::new(config)
        .route(
            ds.design.circuit.clone(),
            ds.placement.clone(),
            ds.design.constraints.clone(),
        )
        .expect("instance routes");
    let secs = t.elapsed().as_secs_f64();
    let stats = routed.result.stats;
    println!(
        "  {strategy:?}: {} deletions in {secs:.3}s = {:.0} deletions/s",
        stats.deletions,
        stats.deletions as f64 / secs
    );
    records.push(Record {
        instance: ds.name.clone(),
        strategy: strategy_label(strategy),
        wall_ms: secs * 1e3,
        selections: stats.selection_log.len(),
        deletions: stats.deletions,
    });
    (secs, stats)
}

/// Routes `ds` under both strategies; returns the scoreboard and
/// full-rescan wall times.
fn bench_row(ds: &DataSet, records: &mut Vec<Record>) -> (f64, f64) {
    println!("{}: {} nets", ds.name, ds.design.circuit.nets().len());
    let (t_fast, fast) = run(ds, SelectionStrategy::Scoreboard, records);
    let (t_slow, slow) = run(ds, SelectionStrategy::FullRescan, records);
    assert_eq!(
        fast.selection_log, slow.selection_log,
        "strategies diverged on {}",
        ds.name
    );
    assert_eq!(fast.deletions, slow.deletions);
    let rekeys: Vec<String> = fast
        .rekey_causes
        .iter()
        .map(|(cause, n)| format!("{} {n}", cause.label()))
        .collect();
    println!(
        "  re-keys: {} ({})",
        fast.rekey_causes.total(),
        rekeys.join(", ")
    );
    println!("  speedup: {:.2}x vs rescan", t_slow / t_fast);
    (t_fast, t_slow)
}

fn write_json(records: &[Record], path: &str) {
    let mut out = String::from("{\"schema\":1,\"bench\":\"deletion_rate\",\"rows\":[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"instance\":\"{}\",\"strategy\":\"{}\",\"threads\":1,\
             \"wall_ms\":{:.3},\"selections\":{},\"deletions\":{}}}{sep}",
            r.instance, r.strategy, r.wall_ms, r.selections, r.deletions
        )
        .expect("write to string");
    }
    out.push_str("]}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create bench dir");
    }
    std::fs::write(path, &out).expect("write BENCH_deletion.json");
    println!("wrote {path} ({} rows)", records.len());
}

fn rate_dataset() -> DataSet {
    let params = GenParams {
        logic_cells: 1400,
        depth: 8,
        rows: 14,
        diff_pairs: 4,
        feeds_per_row: 6,
        num_constraints: 10,
        ..GenParams::small(0xDE1)
    };
    custom("RATE", params, PlacementStyle::EvenFeed)
}

fn main() {
    let mut smoke = false;
    let mut paper = false;
    let mut out_path = "target/bench/BENCH_deletion.json".to_owned();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--paper" {
            paper = true;
        } else {
            out_path = arg;
        }
    }
    let mut records = Vec::new();

    let ds = rate_dataset();
    let nets = ds.design.circuit.nets().len();
    assert!(nets >= 200, "instance too small: {nets} nets");

    if smoke {
        println!("{} (smoke): {} nets", ds.name, nets);
        run(&ds, SelectionStrategy::Scoreboard, &mut records);
        if paper {
            // Paper-scale gate rows: one scoreboard pass each, so the
            // C2P1/C3P1 deletions/s baselines are regression-gated
            // without the full bench's strategy sweeps.
            for ds in [c2_cached(), c3_cached()] {
                println!(
                    "{} (paper gate): {} nets",
                    ds.name,
                    ds.design.circuit.nets().len()
                );
                run(ds, SelectionStrategy::Scoreboard, &mut records);
            }
        }
        write_json(&records, &out_path);
        return;
    }

    let (t_fast, t_slow) = bench_row(&ds, &mut records);
    assert!(
        t_fast < t_slow,
        "scoreboard ({t_fast:.3}s) must beat full rescan ({t_slow:.3}s)"
    );

    // Paper-scale rows (Table 1 reconstructions), report-only: on these
    // the constraint structure and density interactions differ from
    // RATE, so the speedups are informative rather than asserted.
    bench_row(c2_cached(), &mut records);
    bench_row(c3_cached(), &mut records);
    write_json(&records, &out_path);
}
