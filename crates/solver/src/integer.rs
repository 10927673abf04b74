//! Exact one-dimensional integer minimization.
//!
//! The monolithic strategy's design variable is an integer block size
//! `M ∈ [1, M_max]` (paper Fig. 2). The feasible objective is piecewise
//! (it contains ceilings), so [`minimize_scan`] evaluates every point;
//! it is the oracle that faster, problem-specific searches are checked
//! against.
//!
//! Infeasible points are modeled by returning `None` from the objective;
//! the scan skips them.

/// Result of an integer minimization: the argument and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntOpt {
    /// Minimizing integer.
    pub arg: u64,
    /// Objective value there.
    pub value: f64,
}

/// Exhaustively minimize `f` over `lo..=hi`, skipping `None`
/// (infeasible) points. Ties break toward the smaller argument.
/// Returns `None` if every point is infeasible or the range is empty.
pub fn minimize_scan(lo: u64, hi: u64, mut f: impl FnMut(u64) -> Option<f64>) -> Option<IntOpt> {
    let mut best: Option<IntOpt> = None;
    let mut m = lo;
    while m <= hi {
        if let Some(v) = f(m) {
            debug_assert!(!v.is_nan(), "objective returned NaN at {m}");
            let better = match &best {
                None => true,
                Some(b) => v < b.value,
            };
            if better {
                best = Some(IntOpt { arg: m, value: v });
            }
        }
        if m == u64::MAX {
            break;
        }
        m += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_finds_global_minimum() {
        let f = |m: u64| Some(((m as f64) - 37.0).powi(2));
        let opt = minimize_scan(1, 100, f).unwrap();
        assert_eq!(opt.arg, 37);
        assert_eq!(opt.value, 0.0);
    }

    #[test]
    fn scan_skips_infeasible() {
        let f = |m: u64| if m < 10 { None } else { Some(m as f64) };
        let opt = minimize_scan(1, 100, f).unwrap();
        assert_eq!(opt.arg, 10);
    }

    #[test]
    fn scan_all_infeasible_is_none() {
        assert!(minimize_scan(1, 10, |_| None).is_none());
    }

    #[test]
    fn scan_empty_range_is_none() {
        assert!(minimize_scan(10, 5, |m| Some(m as f64)).is_none());
    }

    #[test]
    fn scan_tie_breaks_low() {
        let f = |m: u64| Some(if (5..=7).contains(&m) { 1.0 } else { 2.0 });
        assert_eq!(minimize_scan(1, 10, f).unwrap().arg, 5);
    }
}
