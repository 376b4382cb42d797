//! The benchmark's own arithmetic: order statistics, failure ratios and
//! output digests. Kept free of router types so it is unit-testable.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A nearest-rank percentile together with the sample size behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at rank `ceil(p/100 · n)`.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly above the chosen rank — the guide's rule is to
    /// quote a tail percentile only when at least ten lie beyond it.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`.
///
/// # Panics
///
/// Panics on an empty sample, a NaN, or `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Percentile {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let s = sorted(xs);
    let n = s.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: s[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Attempted and failed operations of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (routes or jobs).
    pub attempted: u64,
    /// Of those, operations that errored, audited unclean, or
    /// disagreed with their reference.
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it passed every check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed divided by attempted (0 when nothing was attempted).
    pub fn failure_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// One minus [`Tally::failure_ratio`]: 1 when every operation
    /// passed, never 0 unless every operation failed.
    pub fn success_ratio(&self) -> f64 {
        1.0 - self.failure_ratio()
    }
}

/// Whether another repetition is expected to end within `budget_s`,
/// judging by the mean of the `done` repetitions that took `elapsed_s`
/// (always true before the first).
pub fn another_fits(elapsed_s: f64, done: usize, budget_s: f64) -> bool {
    done == 0 || elapsed_s + elapsed_s / done as f64 <= budget_s
}

/// FNV-1a 64-bit digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether `digest` agrees with the run's first digest, which
/// `reference` records on the first call.
pub fn agrees(reference: &mut Option<u64>, digest: u64) -> bool {
    *reference.get_or_insert(digest) == digest
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(xs.iter().all(|x| !x.is_nan()), "NaN in sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_rejects_empty() {
        median(&[]);
    }

    #[test]
    fn percentile_is_nearest_rank_with_counts() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 90.0);
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.samples, 100);
        assert_eq!(p90.beyond, 10);
        let p50 = percentile(&xs, 50.0);
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        let p100 = percentile(&xs, 100.0);
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
    }

    #[test]
    fn percentile_of_small_samples() {
        let one = percentile(&[4.0], 90.0);
        assert_eq!((one.value, one.samples, one.beyond), (4.0, 1, 0));
        // ceil(0.9 · 3) = 3 → the largest value, nothing beyond.
        let three = percentile(&[5.0, 1.0, 3.0], 90.0);
        assert_eq!((three.value, three.beyond), (5.0, 0));
        // ceil(0.5 · 4) = 2 → the lower middle value.
        assert_eq!(percentile(&[4.0, 3.0, 2.0, 1.0], 50.0).value, 2.0);
    }

    #[test]
    fn mean_and_ratio_handle_empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failure_ratio(), 0.0);
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failure_ratio(), 0.25);
        assert_eq!(t.success_ratio(), 0.75);
    }

    #[test]
    fn another_repetition_must_fit_the_budget() {
        assert!(another_fits(0.0, 0, 0.0));
        assert!(another_fits(5.0, 1, 10.0));
        assert!(!another_fits(6.0, 1, 10.0));
        assert!(another_fits(6.0, 3, 10.0));
        assert!(another_fits(9.5, 19, 10.0));
        assert!(!another_fits(9.6, 19, 10.0));
    }

    #[test]
    fn digests_must_agree_with_the_first() {
        let mut reference = None;
        assert!(agrees(&mut reference, fnv1a(b"abc")));
        assert!(agrees(&mut reference, fnv1a(b"abc")));
        assert!(!agrees(&mut reference, fnv1a(b"abd")));
        // A disagreement does not replace the reference.
        assert!(agrees(&mut reference, fnv1a(b"abc")));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
