//! Workload inputs.
//!
//! The designs are fixed: `C2P1` for the route workloads and `C1P1`
//! plus three C1-shaped siblings for the drain, with generator
//! parameters mirroring `bgr_gen`'s data sets. Routing cost across
//! C2-shaped generator seeds ranges over more than an order of
//! magnitude, so a seed-dependent design would make every figure a
//! property of the seed rather than of the program. The workload seed
//! instead orders the drain's job submissions.

use std::time::Instant;

use bgr_core::{RouterConfig, VerifyLevel};
use bgr_gen::{custom, DataSet, GenParams, PlacementStyle};
use bgr_netlist::SplitMix64;

/// Scoreboard shards used by every workload (the router's default,
/// fixed here so `BGR_SHARDS` cannot change the measured program).
const SHARDS: usize = 4;

/// The selection quota of every drained job slice.
pub const SLICE_QUOTA: u64 = 64;

/// Hardware threads available to the benchmark process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Generator seed of the drain's design `index`: `0xC1` (the paper's
/// `C1P1`) for index 0, a distinct odd-multiplier mix otherwise.
pub fn c1_seed(index: u64) -> u64 {
    0xC1u64.wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Design index of each of `jobs` jobs: every design equally often
/// (`jobs` a multiple of `designs`), in an order shuffled by `seed`.
pub fn job_order(seed: u64, jobs: usize, designs: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..jobs).map(|i| i % designs).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order
}

fn geometry() -> bgr_layout::Geometry {
    bgr_layout::Geometry {
        track_pitch_um: 4.0,
        ..bgr_layout::Geometry::default()
    }
}

/// C1-shaped generator parameters (`C1P1` at seed `0xC1`).
pub fn c1_params(seed: u64) -> GenParams {
    GenParams {
        seed,
        logic_cells: 700,
        depth: 14,
        rows: 10,
        ff_fraction: 0.15,
        diff_pairs: 6,
        pads: 16,
        feeds_per_row: 10,
        global_fanin: 0.25,
        num_constraints: 18,
        wire_budget: 0.30,
        geometry: geometry(),
    }
}

/// C2-shaped generator parameters (`C2P1` at seed `0xC2`).
pub fn c2_params(seed: u64) -> GenParams {
    GenParams {
        seed,
        logic_cells: 1400,
        depth: 18,
        rows: 14,
        ff_fraction: 0.15,
        diff_pairs: 10,
        pads: 24,
        feeds_per_row: 12,
        global_fanin: 0.25,
        num_constraints: 28,
        wire_budget: 0.30,
        geometry: geometry(),
    }
}

/// `C2P1`: generation, P1 placement, reference route and constraint
/// harvest, exactly as `bgr_gen` builds it.
pub fn c2_design() -> DataSet {
    custom("C2P1", c2_params(0xC2), PlacementStyle::EvenFeed)
}

/// The drain's design `index` (index 0 is `C1P1`).
pub fn c1_design(index: u64) -> DataSet {
    custom(
        &format!("C1P1-{index}"),
        c1_params(c1_seed(index)),
        PlacementStyle::EvenFeed,
    )
}

/// Pins the knobs the router would otherwise read from the
/// environment (`BGR_THREADS`, `BGR_SHARDS`, `BGR_VERIFY`); every route
/// runs on one thread.
fn pinned(base: RouterConfig) -> RouterConfig {
    RouterConfig {
        threads: 1,
        shards: SHARDS,
        verify: VerifyLevel::Off,
        ..base
    }
}

/// Table 2's constrained configuration.
pub fn constrained() -> RouterConfig {
    pinned(RouterConfig::default())
}

/// Table 2's "without constraints" configuration.
pub fn unconstrained() -> RouterConfig {
    pinned(RouterConfig::unconstrained())
}

/// Runs `build`, appending its wall time in seconds to `samples`.
pub fn timed<T>(samples: &mut Vec<f64>, build: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = build();
    samples.push(t.elapsed().as_secs_f64());
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_drain_design_is_c1p1() {
        assert_eq!(c1_seed(0), 0xC1);
        assert_ne!(c1_seed(1), c1_seed(2));
    }

    #[test]
    fn job_order_balances_designs_and_follows_the_seed() {
        let order = job_order(7, 100, 4);
        for d in 0..4 {
            assert_eq!(order.iter().filter(|&&x| x == d).count(), 25);
        }
        assert_eq!(order, job_order(7, 100, 4));
        assert_ne!(order, job_order(8, 100, 4));
    }

    #[test]
    fn pinned_configs_ignore_the_environment() {
        let c = constrained();
        assert_eq!(
            (c.threads, c.shards, c.verify),
            (1, SHARDS, VerifyLevel::Off)
        );
        assert!(c.use_constraints);
        assert!(!unconstrained().use_constraints);
    }

    #[test]
    fn params_mirror_the_generator_data_sets() {
        assert_eq!(bgr_gen::c1_cached().params, c1_params(0xC1));
        assert_eq!(bgr_gen::c2_cached().params, c2_params(0xC2));
    }
}
