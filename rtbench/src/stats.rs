//! The benchmark's own arithmetic: medians, percentiles, shares, and the
//! tally of output checks.

use des::stats::nearest_rank;

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `xs` (the workspace's rank convention,
/// `⌈q·n⌉` clamped to `[1, n]`); 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(q, v.len() as u64) as usize - 1]
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `part / whole`, or 0 when there is no whole to take a share of.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// How much slower the traced runs were than the untraced ones, as a
/// share of the untraced median wall; 0 without both kinds of run.
pub fn trace_overhead(traced_walls: &[f64], untraced_walls: &[f64]) -> f64 {
    if traced_walls.is_empty() || untraced_walls.is_empty() {
        return 0.0;
    }
    let base = median(untraced_walls);
    share(median(traced_walls) - base, base)
}

/// Tally of checked operations. Every failed check counts as wrong; a
/// failed *hard* check (an output that is invalid, not merely worse than
/// the oracle's) also counts as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checks {
    /// Operations whose output was checked.
    pub checked: u64,
    /// Checked operations whose check failed.
    pub wrong: u64,
    /// Checked operations whose output was invalid.
    pub failed: u64,
}

impl Checks {
    /// Record one checked operation with its validity (hard) and its
    /// agreement with the oracle (soft).
    pub fn record(&mut self, valid: bool, agrees: bool) {
        self.checked += 1;
        if !valid || !agrees {
            self.wrong += 1;
        }
        if !valid {
            self.failed += 1;
        }
    }

    /// Record an operation whose only check is validity.
    pub fn hard(&mut self, valid: bool) {
        self.record(valid, true);
    }

    /// Checked operations that failed their check, over checked.
    pub fn wrong_share(&self) -> f64 {
        share(self.wrong as f64, self.checked as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 0.99), 10.0);
        assert_eq!(percentile(&ten, 0.5), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn shares_and_means() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn trace_overhead_compares_medians() {
        assert_eq!(trace_overhead(&[11.0, 13.0, 12.0], &[10.0, 9.0, 11.0]), 0.2);
        assert_eq!(trace_overhead(&[9.0], &[10.0]), -0.1);
        assert_eq!(trace_overhead(&[], &[10.0]), 0.0);
    }

    #[test]
    fn wrong_share_counts_soft_and_hard_failures() {
        let mut c = Checks::default();
        assert_eq!(c.wrong_share(), 0.0);
        for _ in 0..6 {
            c.hard(true);
        }
        c.record(true, false); // valid but not what the oracle gives
        c.hard(false); // invalid output
        assert_eq!(
            c,
            Checks {
                checked: 8,
                wrong: 2,
                failed: 1
            }
        );
        assert_eq!(c.wrong_share(), 0.25);
    }
}
