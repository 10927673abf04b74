//! Schedulability frontiers: the boundary of the feasible (τ0, D)
//! region for each strategy.
//!
//! The paper observes (§6.1) that deadlines below 2×10⁴ cycles admit no
//! feasible realization by either strategy, and its Figure 3 surfaces
//! have visible infeasible regions at fast arrivals. This module
//! computes those boundaries *analytically*:
//!
//! * **Enforced waits** is feasible iff `τ0 ≥ x̂_0/v` (head stability at
//!   the minimal periods) and `D ≥ Σ b_i·x̂_i` — both closed forms.
//! * **Monolithic** is feasible iff some block size `M` satisfies both
//!   Fig.-2 constraints; the smallest workable deadline at a given τ0
//!   is `min_M { b·M·τ0 + S·T̄(M) : T̄(M) ≤ M·τ0 }`. The bound increases
//!   with `M`, so the minimum is at the smallest stable `M`.

use crate::feasibility::minimal_periods;
use dataflow_model::analysis::{block_time, stability_floor};
use dataflow_model::Topology;
use serde::{Deserialize, Serialize};

/// Smallest inter-arrival time the enforced-waits strategy can sustain
/// (any deadline): `x̂_source / v`.
pub fn enforced_min_tau0(topology: &Topology) -> f64 {
    minimal_periods(topology)[topology.source()] / topology.vector_width() as f64
}

/// Smallest deadline the enforced-waits strategy can meet at `tau0`
/// with node-indexed factors `b`, or `None` if the arrival rate itself
/// is unsustainable.
pub fn enforced_min_deadline(topology: &Topology, b: &[f64], tau0: f64) -> Option<f64> {
    assert_eq!(b.len(), topology.len());
    if tau0 < enforced_min_tau0(topology) {
        return None;
    }
    let xmin = minimal_periods(topology);
    Some(xmin.iter().zip(b).map(|(&x, &bi)| bi * x).sum())
}

/// Asymptotic monolithic arrival-rate limit: the stability floor
/// `Σ G_i·t_i / v` (the per-item processing cost at perfect vector
/// packing). Finite block sizes are slightly worse due to ceilings.
pub fn monolithic_min_tau0_asymptote(topology: &Topology) -> f64 {
    stability_floor(
        topology.vector_width(),
        &topology.service_times(),
        &topology.total_gains(),
    )
}

/// Smallest deadline the monolithic strategy can meet at `tau0` with
/// knobs `(b, s)`, or `None` if no block size up to `m_cap` is stable.
/// The latency bound is increasing in `M`, so this is the bound at the
/// first stable `M`.
pub fn monolithic_min_deadline(
    topology: &Topology,
    b: f64,
    s: f64,
    tau0: f64,
    m_cap: u64,
) -> Option<f64> {
    let v = topology.vector_width();
    let (t, totals) = (topology.service_times(), topology.total_gains());
    (1..=m_cap).find_map(|m| {
        let block = block_time(v, &t, &totals, m);
        (block <= m as f64 * tau0).then_some(b * m as f64 * tau0 + s * block)
    })
}

/// A frontier sample: at inter-arrival `tau0`, the minimum feasible
/// deadline of each strategy (`None` = unsustainable arrival rate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Inter-arrival time.
    pub tau0: f64,
    /// Enforced-waits minimum deadline.
    pub enforced: Option<f64>,
    /// Monolithic minimum deadline.
    pub monolithic: Option<f64>,
}

/// Sample both frontiers over the given τ0 values.
pub fn frontier(
    topology: &Topology,
    enforced_b: &[f64],
    mono_b: f64,
    mono_s: f64,
    tau0s: &[f64],
) -> Vec<FrontierPoint> {
    tau0s
        .iter()
        .map(|&tau0| FrontierPoint {
            tau0,
            enforced: enforced_min_deadline(topology, enforced_b, tau0),
            monolithic: monolithic_min_deadline(topology, mono_b, mono_s, tau0, 100_000),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::blast_chain as blast;
    use crate::monolithic::MonolithicProblem;
    use crate::EnforcedProblem;
    use dataflow_model::RtParams;

    const PAPER_B: [f64; 4] = [1.0, 3.0, 9.0, 6.0];

    #[test]
    fn enforced_min_tau0_matches_head_stability() {
        let p = blast();
        let t = enforced_min_tau0(&p);
        assert!((t - 0.379 * 955.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn enforced_frontier_is_exact() {
        // Exactly at the frontier: feasible; a hair below: not.
        let p = blast();
        let tau0 = 10.0;
        let d_min = enforced_min_deadline(&p, &PAPER_B, tau0).unwrap();
        let solve = |d: f64| {
            EnforcedProblem::new(&p, RtParams::new(tau0, d).unwrap(), PAPER_B.to_vec()).solve()
        };
        assert!(solve(d_min + 1.0).is_ok());
        assert!(solve(d_min - 1.0).is_err());
        // The paper reports no feasible realizations below 2e4; our
        // analytic frontier with the paper's b sits at ≈ 2.34e4.
        assert!(d_min > 2.0e4 && d_min < 2.7e4, "{d_min}");
    }

    #[test]
    fn enforced_frontier_none_at_unsustainable_rate() {
        let p = blast();
        assert!(enforced_min_deadline(&p, &PAPER_B, 2.0).is_none());
    }

    #[test]
    fn monolithic_frontier_brackets_the_solver() {
        let p = blast();
        for tau0 in [10.0, 30.0, 100.0] {
            let d_min = monolithic_min_deadline(&p, 1.0, 1.0, tau0, 100_000).unwrap();
            let solve = |d: f64| {
                MonolithicProblem::new(&p, RtParams::new(tau0, d).unwrap(), 1.0, 1.0).solve()
            };
            assert!(solve(d_min * 1.001).is_ok(), "tau0={tau0}, d={d_min}");
            assert!(solve(d_min * 0.98).is_err(), "tau0={tau0}, d={d_min}");
        }
    }

    #[test]
    fn monolithic_min_tau0_asymptote_value() {
        let p = blast();
        let a = monolithic_min_tau0_asymptote(&p);
        assert!((a - 7.9).abs() < 0.1, "{a}");
        // No stable block size below the asymptote.
        assert!(monolithic_min_deadline(&p, 1.0, 1.0, a * 0.95, 50_000).is_none());
    }

    #[test]
    fn frontier_sampling_shape() {
        let p = blast();
        let pts = frontier(&p, &PAPER_B, 1.0, 1.0, &[1.0, 5.0, 10.0, 50.0]);
        assert_eq!(pts.len(), 4);
        // τ0 = 1: both unsustainable.
        assert!(pts[0].enforced.is_none() && pts[0].monolithic.is_none());
        // τ0 = 5: enforced only.
        assert!(pts[1].enforced.is_some() && pts[1].monolithic.is_none());
        // τ0 = 10 and 50: both.
        assert!(pts[2].enforced.is_some() && pts[2].monolithic.is_some());
        // The enforced min deadline is τ0-independent once sustainable.
        assert_eq!(pts[1].enforced, pts[3].enforced);
    }
}
