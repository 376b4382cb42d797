//! Deletions-per-second: incremental scoreboard vs full-rescan oracle,
//! single-thread vs multi-thread.
//!
//! Routes each instance under both [`SelectionStrategy`] variants and
//! under threads ∈ {1, N} for the scoreboard, reports the deletion
//! throughput of each, the strategy and thread speedups, and the
//! scoreboard's re-key breakdown by typed cause. All runs of an
//! instance are asserted to make identical selections, so every
//! comparison is work-for-work.
//!
//! Rows: a ~1400-cell `RATE` instance (where the scoreboard is asserted
//! to win, and — on multi-core hosts — the multi-thread scoreboard is
//! asserted ≥ 1.5× the single-thread one) plus the paper-scale
//! `C2P1`/`C3P1` reconstructions (report-only). Every row is also
//! appended to a machine-readable `BENCH_deletion.json` (default
//! `target/bench/BENCH_deletion.json`) so the bench trajectory is
//! tracked across PRs.
//!
//! Usage: `deletion_rate [--smoke] [--paper] [out.json]` — `--smoke`
//! routes only the `RATE` scoreboard rows (the CI matrix runs one
//! smoke per `BGR_THREADS` configuration); `--paper` additionally
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
    threads: usize,
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

fn run(
    ds: &DataSet,
    strategy: SelectionStrategy,
    threads: usize,
    records: &mut Vec<Record>,
) -> (f64, RouteStats) {
    let config = RouterConfig {
        selection: strategy,
        threads,
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
        "  {strategy:?} threads={threads}: {} deletions in {secs:.3}s = {:.0} deletions/s",
        stats.deletions,
        stats.deletions as f64 / secs
    );
    records.push(Record {
        instance: ds.name.clone(),
        strategy: strategy_label(strategy),
        threads,
        wall_ms: secs * 1e3,
        selections: stats.selection_log.len(),
        deletions: stats.deletions,
    });
    (secs, stats)
}

struct Row {
    /// Scoreboard, single worker thread.
    t_seq: f64,
    /// Scoreboard, `multi` worker threads.
    t_par: f64,
    /// Full-rescan oracle.
    t_slow: f64,
}

fn bench_row(ds: &DataSet, multi: usize, records: &mut Vec<Record>) -> Row {
    println!("{}: {} nets", ds.name, ds.design.circuit.nets().len());
    let (t_seq, seq) = run(ds, SelectionStrategy::Scoreboard, 1, records);
    let (t_par, par) = run(ds, SelectionStrategy::Scoreboard, multi, records);
    let (t_slow, slow) = run(ds, SelectionStrategy::FullRescan, 1, records);
    assert_eq!(
        seq.selection_log, slow.selection_log,
        "strategies diverged on {}",
        ds.name
    );
    assert_eq!(
        seq.selection_log, par.selection_log,
        "thread counts diverged on {}",
        ds.name
    );
    assert_eq!(seq.deletions, slow.deletions);
    let rekeys: Vec<String> = seq
        .rekey_causes
        .iter()
        .map(|(cause, n)| format!("{} {n}", cause.label()))
        .collect();
    println!(
        "  re-keys: {} ({})",
        seq.rekey_causes.total(),
        rekeys.join(", ")
    );
    println!(
        "  speedup: {:.2}x vs rescan, {:.2}x from {multi} threads",
        t_slow / t_seq,
        t_seq / t_par
    );
    Row {
        t_seq,
        t_par,
        t_slow,
    }
}

fn write_json(records: &[Record], path: &str) {
    let mut out = String::from("{\"schema\":1,\"bench\":\"deletion_rate\",\"rows\":[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"instance\":\"{}\",\"strategy\":\"{}\",\"threads\":{},\
             \"wall_ms\":{:.3},\"selections\":{},\"deletions\":{}}}{sep}",
            r.instance, r.strategy, r.threads, r.wall_ms, r.selections, r.deletions
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
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The multi-thread configuration under test: BGR_THREADS when set
    // (the CI matrix pins it), else every core the host offers.
    let multi = RouterConfig::default().threads.max(cores).max(2);
    let mut records = Vec::new();

    let ds = rate_dataset();
    let nets = ds.design.circuit.nets().len();
    assert!(nets >= 200, "instance too small: {nets} nets");

    if smoke {
        // One smoke row per CI configuration: the scoreboard at the
        // environment's thread count (BGR_THREADS or 1).
        let threads = RouterConfig::default().threads;
        println!("{} (smoke): {} nets", ds.name, nets);
        run(&ds, SelectionStrategy::Scoreboard, threads, &mut records);
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
                run(ds, SelectionStrategy::Scoreboard, threads, &mut records);
            }
        }
        write_json(&records, &out_path);
        return;
    }

    let row = bench_row(&ds, multi, &mut records);
    assert!(
        row.t_seq < row.t_slow,
        "scoreboard ({:.3}s) must beat full rescan ({:.3}s)",
        row.t_seq,
        row.t_slow
    );
    if cores >= 2 {
        assert!(
            row.t_seq / row.t_par >= 1.5,
            "multi-thread scoreboard ({:.3}s at {multi} threads) must be >= 1.5x \
             the single-thread one ({:.3}s) on a {cores}-core host",
            row.t_par,
            row.t_seq
        );
    } else {
        println!("  (single-core host: skipping the 1.5x multi-thread assertion)");
    }

    // Thread-scaling curve (ROADMAP "real-core benchmarking"): the RATE
    // instance at threads ∈ {1, 2, 4, 8}. Threads 1 and `multi` are
    // already measured above; the remaining points fill the curve. All
    // points make identical selections, so the curve is work-for-work,
    // and every row lands in BENCH_deletion.json for cross-PR tracking.
    let base_selections = records
        .iter()
        .find(|r| r.instance == ds.name && r.strategy == "scoreboard")
        .map(|r| r.selections)
        .expect("RATE scoreboard row recorded");
    println!("{} thread-scaling sweep:", ds.name);
    for threads in [1usize, 2, 4, 8] {
        if threads == 1 || threads == multi {
            continue;
        }
        let (_, stats) = run(&ds, SelectionStrategy::Scoreboard, threads, &mut records);
        assert_eq!(
            stats.selection_log.len(),
            base_selections,
            "thread count changed the selection stream on {}",
            ds.name
        );
    }

    // Paper-scale rows (Table 1 reconstructions), report-only: on these
    // the constraint structure and density interactions differ from
    // RATE, so the speedups are informative rather than asserted.
    bench_row(c2_cached(), multi, &mut records);
    bench_row(c3_cached(), multi, &mut records);
    write_json(&records, &out_path);
}
