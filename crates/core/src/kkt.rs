//! KKT optimality certification for enforced-waits schedules.
//!
//! The Fig.-1 program is convex, so the KKT conditions are necessary and
//! sufficient for global optimality. Given a candidate period vector we
//! identify the active constraints, solve a small least-squares system
//! for the Lagrange multipliers, and report:
//!
//! * **stationarity residual** — `‖∇f + Σ μ_j a_j‖ / ‖∇f‖` over active
//!   constraints;
//! * **dual feasibility** — the most negative multiplier found;
//! * **primal feasibility** — the worst constraint violation.
//!
//! This is an *independent certificate*: it validates a solution no
//! matter which solver produced it, which is how water-filling and the
//! interior-point oracle vouch for each other beyond merely agreeing.
//! The certificate of a design is [`crate::EnforcedProblem::verify_kkt`].

#[doc(hidden)]
pub use crate::compat::verify_kkt;
use serde::{Deserialize, Serialize};
use solver::linalg::{dot, norm2, BandedMat, Mat};
use solver::linear::{Constraint, ConstraintSet};

/// Outcome of a KKT check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KktReport {
    /// Relative stationarity residual (≈0 at an optimum).
    pub stationarity_residual: f64,
    /// Most negative Lagrange multiplier (≥ −tol at an optimum).
    pub min_multiplier: f64,
    /// Worst primal violation (≤ tol at a feasible point).
    pub max_violation: f64,
    /// Labels of the active constraints.
    pub active: Vec<String>,
}

impl KktReport {
    /// The report on a period vector of `got` entries for a program of
    /// `expected` nodes: not optimal at any tolerance.
    fn length_mismatch(expected: usize, got: usize) -> Self {
        KktReport {
            stationarity_residual: f64::INFINITY,
            min_multiplier: 0.0,
            max_violation: f64::INFINITY,
            active: vec![format!(
                "period vector has {got} entries for {expected} nodes"
            )],
        }
    }

    /// True if the report certifies (approximate) optimality at the
    /// given tolerance.
    pub fn is_optimal(&self, tol: f64) -> bool {
        self.stationarity_residual <= tol
            && self.min_multiplier >= -tol
            && self.max_violation <= tol
    }
}

/// Check the KKT conditions for `periods` on the active-fraction
/// objective `(1/N) Σ t_i/x_i` with service times `t` over `cs`. A
/// period vector of the wrong length gets a report that certifies
/// nothing.
pub(crate) fn certify(
    cs: &ConstraintSet,
    t: &[f64],
    periods: &[f64],
    active_tol: f64,
) -> KktReport {
    if periods.len() != t.len() {
        return KktReport::length_mismatch(t.len(), periods.len());
    }
    let n = t.len();
    let grad: Vec<f64> = (0..n)
        .map(|i| -t[i] / (n as f64 * periods[i] * periods[i]))
        .collect();
    kkt_report(cs, &grad, periods, active_tol)
}

/// Check the KKT conditions for any convex program of the shape this
/// crate produces: a smooth objective gradient over a linear inequality
/// [`ConstraintSet`]. This is the solver-independent core of
/// [`certify`].
fn kkt_report(cs: &ConstraintSet, grad: &[f64], periods: &[f64], active_tol: f64) -> KktReport {
    let grad_norm = norm2(grad).max(1e-30);

    let x_norm = norm2(periods).max(1.0);
    let mut active: Vec<&Constraint> = Vec::new();
    let mut max_violation = 0.0_f64;
    for c in cs.constraints() {
        let scale = c.rhs.abs() + norm2(&c.coeffs) * x_norm;
        let slack = c.slack(periods);
        max_violation = max_violation.max(-slack / scale.max(1.0));
        if slack <= active_tol * scale.max(1.0) {
            active.push(c);
        }
    }

    if active.is_empty() {
        // Interior point with nonzero gradient: not stationary.
        return KktReport {
            stationarity_residual: 1.0,
            min_multiplier: 0.0,
            max_violation,
            active: vec![],
        };
    }

    // Least squares for μ ≥ 0:  A_actᵀ μ ≈ −∇f, where rows of A_act are
    // the active constraint normals. Solve the normal equations
    // (A Aᵀ + ridge) μ = −A ∇f.
    let k = active.len();
    let ridge = 1e-10 * (1.0 + grad_norm);
    let mu = if k < BANDED_ACTIVE_MIN {
        solve_multipliers_dense(&active, grad, ridge)
    } else {
        // Deep problems: the dense normal equations are O(k²·n) to
        // assemble and O(k³) to factor, which would make certification
        // far costlier than the O(N) water-filling solve it checks.
        // Exploit the chain's banded structure instead; fall back to
        // dense when the active profile is genuinely wide.
        solve_multipliers_banded(&active, grad, ridge)
            .unwrap_or_else(|| solve_multipliers_dense(&active, grad, ridge))
    };

    // Residual of stationarity: ∇f + Σ μ_j a_j.
    let mut resid = grad.to_vec();
    for (j, c) in active.iter().enumerate() {
        solver::linalg::axpy(mu[j], &c.coeffs, &mut resid);
    }
    KktReport {
        stationarity_residual: norm2(&resid) / grad_norm,
        min_multiplier: mu.iter().copied().fold(f64::INFINITY, f64::min),
        max_violation,
        active: active.iter().map(|c| c.label.clone()).collect(),
    }
}

/// Below this many active constraints the dense normal equations run
/// unchanged — paper-scale certificates stay bit-identical to earlier
/// releases, and dense is faster anyway at tiny k.
const BANDED_ACTIVE_MIN: usize = 32;

fn solve_multipliers_dense(active: &[&Constraint], grad: &[f64], ridge: f64) -> Vec<f64> {
    let k = active.len();
    let mut gram = Mat::zeros(k, k);
    let mut rhs = vec![0.0; k];
    for (i, ci) in active.iter().enumerate() {
        for (j, cj) in active.iter().enumerate() {
            gram[(i, j)] = dot(&ci.coeffs, &cj.coeffs);
        }
        rhs[i] = -dot(&ci.coeffs, grad);
    }
    gram.add_diagonal(ridge);
    match gram.cholesky() {
        Some(chol) => chol.solve(&rhs),
        None => vec![0.0; k],
    }
}

/// First and last nonzero coefficient of a constraint row.
fn support_span(coeffs: &[f64]) -> (usize, usize) {
    let lo = coeffs.iter().position(|&c| c != 0.0).unwrap_or(0);
    let hi = coeffs.iter().rposition(|&c| c != 0.0).unwrap_or(0);
    (lo, hi)
}

/// Dot product of two rows restricted to the intersection of their
/// support spans (equal to the full dot product; skipped terms are 0).
fn span_dot(a: &Constraint, sa: (usize, usize), b: &Constraint, sb: (usize, usize)) -> f64 {
    let lo = sa.0.max(sb.0);
    let hi = sa.1.min(sb.1);
    if lo > hi {
        return 0.0;
    }
    let mut acc = 0.0;
    for j in lo..=hi {
        acc += a.coeffs[j] * b.coeffs[j];
    }
    acc
}

/// Normal-equation solve exploiting the active set's banded-bordered
/// structure: narrow rows (span ≤ n/4) sorted by span start give a
/// banded gram block, the few wide rows (the deadline) form a border
/// eliminated by its Schur complement. Returns `None` when the profile
/// is wide (too many wide rows, or overlapping spans fill the band), in
/// which case the caller uses the dense path.
fn solve_multipliers_banded(active: &[&Constraint], grad: &[f64], ridge: f64) -> Option<Vec<f64>> {
    let n = grad.len();
    let k = active.len();
    let spans: Vec<(usize, usize)> = active.iter().map(|c| support_span(&c.coeffs)).collect();
    let mut narrow: Vec<usize> = Vec::with_capacity(k);
    let mut wide: Vec<usize> = Vec::new();
    let mut wmax = 0usize;
    for (i, &(lo, hi)) in spans.iter().enumerate() {
        if (hi - lo) * 4 > n {
            wide.push(i);
        } else {
            wmax = wmax.max(hi - lo);
            narrow.push(i);
        }
    }
    if wide.len() * 4 > k || narrow.len() < 2 {
        return None;
    }
    // Sort narrow rows by span start (stable tie-break on the original
    // index keeps the permutation deterministic).
    narrow.sort_by_key(|&i| (spans[i].0, spans[i].1, i));
    let m = narrow.len();

    // Gram bandwidth bound: rows whose span starts differ by more than
    // the widest narrow span cannot overlap, so in sorted order entry
    // (i, j) with lo_i − lo_j > wmax is zero. Two-pointer over the
    // sorted starts gives the profile width.
    let mut bgram = 0usize;
    let mut j = 0usize;
    for i in 0..m {
        let lo_i = spans[narrow[i]].0;
        while spans[narrow[j]].0 + wmax < lo_i {
            j += 1;
        }
        bgram = bgram.max(i - j);
    }
    if bgram + 1 >= m {
        return None;
    }

    let mut gram = BandedMat::zeros(m, bgram.max(1));
    let mut rhs_n = vec![0.0; m];
    for (si, &ai) in narrow.iter().enumerate() {
        let ca = active[ai];
        let sa = spans[ai];
        let first = si.saturating_sub(bgram.max(1));
        for (sj, &aj) in narrow.iter().enumerate().take(si + 1).skip(first) {
            *gram.at_mut(si, sj) = span_dot(ca, sa, active[aj], spans[aj]);
        }
        let mut acc = 0.0;
        for (cj, gj) in ca.coeffs[sa.0..=sa.1].iter().zip(&grad[sa.0..=sa.1]) {
            acc += cj * gj;
        }
        rhs_n[si] = -acc;
    }
    gram.add_diagonal(ridge);
    if !gram.cholesky_in_place() {
        return None;
    }

    // Border columns B_nw and the wide block B_ww (+ridge).
    let w = wide.len();
    let mut u0 = rhs_n;
    gram.solve_into(&mut u0);
    let mut us: Vec<Vec<f64>> = Vec::with_capacity(w);
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(w);
    for &wi in &wide {
        let cw = active[wi];
        let sw = spans[wi];
        let col: Vec<f64> = narrow
            .iter()
            .map(|&ni| span_dot(active[ni], spans[ni], cw, sw))
            .collect();
        let mut u = col.clone();
        gram.solve_into(&mut u);
        cols.push(col);
        us.push(u);
    }
    if w > 0 {
        let mut schur = Mat::zeros(w, w);
        let mut rhs_w = vec![0.0; w];
        for (p, &wp) in wide.iter().enumerate() {
            let cp = active[wp];
            let sp = spans[wp];
            for (q, &wq) in wide.iter().enumerate() {
                schur[(p, q)] = span_dot(cp, sp, active[wq], spans[wq]) - dot(&cols[p], &us[q]);
            }
            schur[(p, p)] += ridge;
            rhs_w[p] = -dot(&cp.coeffs, grad) - dot(&cols[p], &u0);
        }
        let chol = schur.cholesky()?;
        let mu_w = chol.solve(&rhs_w);
        for (q, u) in us.iter().enumerate() {
            solver::linalg::axpy(-mu_w[q], u, &mut u0);
        }
        let mut mu = vec![0.0; k];
        for (si, &ni) in narrow.iter().enumerate() {
            mu[ni] = u0[si];
        }
        for (q, &wi) in wide.iter().enumerate() {
            mu[wi] = mu_w[q];
        }
        Some(mu)
    } else {
        let mut mu = vec![0.0; k];
        for (si, &ni) in narrow.iter().enumerate() {
            mu[ni] = u0[si];
        }
        Some(mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::blast_chain as blast;
    use crate::EnforcedProblem;
    use dataflow_model::{GainModel, PipelineSpecBuilder, RtParams, Topology};

    #[test]
    fn wrong_length_periods_are_a_failed_report_not_a_panic() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let prob = EnforcedProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0]);
        for periods in [vec![], vec![500.0; 3], vec![500.0; 5]] {
            let report = prob.verify_kkt(&periods, 1e-6);
            assert!(!report.is_optimal(1e3), "{report:?}");
            assert_eq!(report.max_violation, f64::INFINITY);
            let want = format!("{} entries for 4 nodes", periods.len());
            assert!(report.active[0].contains(&want), "{report:?}");
        }
    }

    #[test]
    fn optimal_solutions_pass_kkt() {
        let p = blast();
        for (tau0, d) in [(5.0, 5e4), (10.0, 1e5), (50.0, 3.5e5)] {
            let params = RtParams::new(tau0, d).unwrap();
            let prob = EnforcedProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0]);
            for (method, s) in [
                ("interior point", prob.solve_interior_point()),
                ("water-filling", prob.solve()),
            ] {
                let report = prob.verify_kkt(&s.unwrap().periods, 1e-5);
                assert!(
                    report.is_optimal(1e-3),
                    "{method} at tau0={tau0} D={d}: {report:?}"
                );
            }
        }
    }

    #[test]
    fn suboptimal_point_fails_kkt() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let prob = EnforcedProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0]);
        // A strictly interior, clearly non-optimal point: minimal periods
        // scaled up slightly (deadline far from tight).
        let x: Vec<f64> = crate::feasibility::minimal_periods(&p)
            .iter()
            .map(|v| v * 1.5)
            .collect();
        let report = prob.verify_kkt(&x, 1e-6);
        assert!(!report.is_optimal(1e-3), "{report:?}");
    }

    #[test]
    fn deadline_constraint_is_active_when_binding() {
        let p = blast();
        let params = RtParams::new(10.0, 5e4).unwrap();
        let prob = EnforcedProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0]);
        let s = prob.solve().unwrap();
        let report = prob.verify_kkt(&s.periods, 1e-5);
        assert!(
            report.active.iter().any(|l| l == "deadline"),
            "deadline should bind at D=5e4: {:?}",
            report.active
        );
    }

    #[test]
    fn deep_chain_certificates_route_through_banded_multipliers() {
        // At 128 stages the active set (lower bounds + edges + deadline)
        // is far past BANDED_ACTIVE_MIN, so this exercises the
        // banded-bordered multiplier solve end to end.
        let mut builder = PipelineSpecBuilder::new(128);
        for i in 0..128 {
            builder = builder.stage(
                format!("s{i}"),
                100.0 + i as f64,
                GainModel::Bernoulli { p: 0.9 },
            );
        }
        let p = Topology::chain(&builder.build().unwrap());
        let b = EnforcedProblem::optimistic_backlog(&p);
        let min_d: f64 = crate::feasibility::minimal_periods(&p)
            .iter()
            .zip(&b)
            .map(|(x, bi)| x * bi)
            .sum();
        // A nearly minimal deadline pins most periods to their lower
        // bounds, producing a large active set.
        let prob = EnforcedProblem::new(&p, RtParams::new(5.0, min_d * 1.02).unwrap(), b);
        let s = prob.solve().unwrap();
        let report = prob.verify_kkt(&s.periods, 1e-5);
        assert!(
            report.active.len() >= BANDED_ACTIVE_MIN,
            "test should hit the banded path, active={}",
            report.active.len()
        );
        assert!(report.is_optimal(1e-3), "{report:?}");
    }

    #[test]
    fn infeasible_point_reports_violation() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let prob = EnforcedProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0]);
        // Way past the deadline.
        let x = vec![1e5, 1e5, 1e5, 1e5];
        let report = prob.verify_kkt(&x, 1e-6);
        assert!(report.max_violation > 0.0);
        assert!(!report.is_optimal(1e-3));
    }
}
