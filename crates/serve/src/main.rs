//! `bgr-serve`: drive a [`bgr_serve::JobQueue`] of synthesized routing
//! jobs with live operational metrics (DESIGN.md §14).
//!
//! Synthesizes `--jobs` small designs (seeds `--seed ..`), submits them
//! under a per-slice selection quota, and drains the queue round by
//! round. The queue reports into a [`bgr_metrics::MetricsRegistry`]
//! that is exported two ways, both optional:
//!
//! * `--metrics-addr HOST:PORT` — a minimal std-only HTTP endpoint
//!   serving the Prometheus text exposition at `/metrics`
//!   (`curl http://HOST:PORT/metrics`);
//! * `--metrics-file PATH` — the same exposition rewritten atomically
//!   after every round (node-exporter textfile-collector style).
//!
//! `--linger-ms` keeps the HTTP endpoint up after the queue settles so
//! a scraper can collect the final state. Exit code 1 if any job
//! failed.
//!
//! Overload governance (both default off; un-tripped limits leave the
//! drain byte-identical to an ungoverned one):
//!
//! * `--max-jobs N` — admission cap on live jobs; over-cap submissions
//!   are refused with a structured verdict and counted in
//!   `bgr_jobs_rejected_total`;
//! * `--deadline-ms T` — per-job wall-clock budget from first slice
//!   materialization; expired jobs fail with `DeadlineExpired` and
//!   count in `bgr_deadline_missed_total`.
//!
//! Usage:
//!   bgr-serve [--jobs N] [--quota Q] [--threads T] [--seed S]
//!             [--max-jobs N] [--deadline-ms T]
//!             [--metrics-addr HOST:PORT] [--metrics-file PATH]
//!             [--linger-ms MS]

use std::process::ExitCode;

use bgr_core::RouterConfig;
use bgr_metrics::MetricsRegistry;
use bgr_serve::{JobQueue, QueuePolicy};

struct Args {
    jobs: u64,
    quota: Option<u64>,
    threads: usize,
    seed: u64,
    max_jobs: Option<u64>,
    deadline_ms: Option<u64>,
    metrics_addr: Option<String>,
    metrics_file: Option<String>,
    linger_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: bgr-serve [--jobs N] [--quota Q] [--threads T] [--seed S]\n\
         \x20                [--max-jobs N] [--deadline-ms T]\n\
         \x20                [--metrics-addr HOST:PORT] [--metrics-file PATH] [--linger-ms MS]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        jobs: 4,
        quota: Some(8),
        threads: 4,
        seed: 1,
        max_jobs: None,
        deadline_ms: None,
        metrics_addr: None,
        metrics_file: None,
        linger_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| usage_for(flag));
        fn usage_for(flag: &str) -> String {
            eprintln!("missing value for {flag}");
            usage()
        }
        match flag.as_str() {
            "--jobs" => args.jobs = parse_num(&flag, &value(&flag)),
            "--quota" => {
                let v = value(&flag);
                args.quota = if v == "none" {
                    None
                } else {
                    Some(parse_num(&flag, &v))
                };
            }
            "--threads" => args.threads = parse_num(&flag, &value(&flag)) as usize,
            "--seed" => args.seed = parse_num(&flag, &value(&flag)),
            "--max-jobs" => args.max_jobs = Some(parse_num(&flag, &value(&flag))),
            "--deadline-ms" => args.deadline_ms = Some(parse_num(&flag, &value(&flag))),
            "--metrics-addr" => args.metrics_addr = Some(value(&flag)),
            "--metrics-file" => args.metrics_file = Some(value(&flag)),
            "--linger-ms" => args.linger_ms = parse_num(&flag, &value(&flag)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn parse_num(flag: &str, v: &str) -> u64 {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: not a number: {v}");
        usage()
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let registry = MetricsRegistry::new();
    let mut server = match &args.metrics_addr {
        None => None,
        Some(addr) => match registry.serve_http(addr.as_str()) {
            Ok(s) => {
                println!("metrics: http://{}/metrics", s.addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("cannot bind metrics endpoint {addr}: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let mut queue = JobQueue::with_metrics(&registry);
    queue.set_policy(QueuePolicy {
        max_jobs: args.max_jobs.map(|n| n as usize),
        max_checkpoint_bytes: None,
        deadline_ms: args.deadline_ms,
    });
    let mut admitted = 0u64;
    for i in 0..args.jobs {
        let params = bgr_gen::GenParams::small(args.seed + i);
        let design = bgr_gen::generate(&params);
        let placement = bgr_gen::place_design(&design, &params, bgr_gen::PlacementStyle::EvenFeed);
        match queue.try_submit(
            format!("job{i}"),
            design.circuit,
            placement,
            design.constraints,
            RouterConfig::default(),
            args.quota,
        ) {
            Ok(_) => admitted += 1,
            Err(verdict) => println!("job{i} rejected ({}): {verdict}", verdict.code()),
        }
    }
    println!(
        "submitted {admitted}/{} jobs (quota {:?}, {} threads)",
        args.jobs, args.quota, args.threads
    );

    let write_file = |registry: &MetricsRegistry| {
        if let Some(path) = &args.metrics_file {
            if let Err(e) = registry.write_to_file(std::path::Path::new(path)) {
                eprintln!("cannot write {path}: {e}");
            }
        }
    };

    let mut rounds = 0u64;
    while queue.run_round(args.threads) > 0 {
        rounds += 1;
        write_file(&registry);
    }
    write_file(&registry);

    let mut failed = 0u64;
    for job in queue.jobs() {
        let verdict = match job.audit() {
            Some(report) => report.to_string(),
            None => match job.error() {
                Some(e) => format!("error: {e}"),
                None => "no audit".to_string(),
            },
        };
        println!(
            "{:<8} {:<10} slices={} selections={} — {verdict}",
            job.name(),
            job.state().label(),
            job.slices(),
            job.selections_done(),
        );
        if job.state().is_terminal() && job.state() != bgr_serve::SessionState::Completed {
            failed += 1;
        }
    }
    println!("drained in {rounds} rounds; {failed} failed");

    if args.linger_ms > 0 && server.is_some() {
        println!("lingering {} ms for scrapes...", args.linger_ms);
        std::thread::sleep(std::time::Duration::from_millis(args.linger_ms));
    }
    if let Some(s) = &mut server {
        s.shutdown();
    }
    if failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
