//! End-to-end and per-layer benchmark of the bgr global router.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <c2p1_timing|c2p1_area|c1_drain> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The designs are the paper's C2P1 and
//! C1P1 plus three C1-shaped siblings; `--seed` orders the drain's job
//! submissions. `--trace 0` prints the end-to-end metrics, `--trace 1` runs
//! the traced breakdown and prints the per-layer metrics; the last
//! stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`, preceded by a line
//! recording the run's provenance and sample counts. Traced runs also
//! write their spans to `.bench_build/perfbench-out/spans-<workload>.jsonl`.
//! `perfbench/LAYERS.md` describes every metric.

mod drain;
mod inputs;
mod replay;
mod report;
mod route;
mod spans;
mod stats;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use workloads::{RunResult, Scratch, Workload};

/// Where runs leave spans and (temporarily) journals.
const OUT_DIR: &str = ".bench_build/perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <c2p1_timing|c2p1_area|c1_drain> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 20.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad(&"expected a non-negative number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The commit of the checkout, read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn run(args: &Args) -> Result<RunResult, String> {
    let mut scratch = Scratch::new(Path::new(OUT_DIR), args.workload.name())?;
    if !args.trace {
        return workloads::run_timed(args.workload, args.seed, args.seconds, &mut scratch);
    }
    let mut tracer = spans::Tracer::new();
    let result = workloads::run_traced(args.workload, args.seed, &mut tracer, &mut scratch)?;
    let path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", args.workload.name()));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: self time by span ({})", path.display());
    for (name, s) in tracer.self_time_by_name() {
        eprintln!("  {name:<28} {s:>10.4} s");
    }
    Ok(result)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let s = &result.samples;
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"profile\": \"{}\", \"commit\": \"{}\"}}, \"samples\": {{\"routes\": {}, \
         \"latencies\": {}, \"beyond_p90\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs::nproc(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        commit(),
        s.routes,
        s.latencies,
        s.beyond_p90
    );
    println!("{}", report::result_line(result.tally, &result.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload c1_drain --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::C1Drain);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        let d = args("--workload c2p1_area").unwrap();
        assert_eq!((d.seed, d.trace), (0, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload c2p1_area --trace 2").is_err());
        assert!(args("--workload c2p1_area --seed").is_err());
        assert!(args("--workload c2p1_area --bogus 1").is_err());
        assert!(args("--workload c2p1_area --seconds -1").is_err());
        assert!(args("--workload c2p1_area --seconds NaN").is_err());
    }
}
