//! Log-barrier interior-point method for smooth convex minimization over
//! linear inequality constraints.
//!
//! Solves `min f(x)  s.t.  a_j·x ≤ b_j` for convex twice-differentiable
//! `f`. The centering subproblems `min t·f(x) − Σ log(b_j − a_j·x)` are
//! solved by damped Newton with backtracking line search that maintains
//! strict feasibility; the barrier weight `t` grows geometrically until
//! the duality-gap bound `m/t` falls below tolerance.
//!
//! This is the textbook method (Boyd & Vandenberghe ch. 11) on dense
//! Newton systems: every step assembles and factors an `n × n` Hessian,
//! O(n³). The workspace designs its schedules with exact water-filling
//! (`rtsdf-core`); this method is the independent oracle its tests
//! compare against, so it stays small and general rather than fast.

use crate::linalg::{axpy, dot, norm2, Mat};
use crate::linear::ConstraintSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A smooth convex objective.
///
/// Implementations must be convex on the feasible region; the solver does
/// not verify convexity but will typically fail to converge (and report
/// [`SolveError::Numerical`]) on non-convex inputs.
pub trait ConvexProblem {
    /// Number of variables.
    fn dim(&self) -> usize;
    /// Objective value at `x`.
    fn value(&self, x: &[f64]) -> f64;
    /// Write the gradient at `x` into `g` (length `dim`).
    fn gradient(&self, x: &[f64], g: &mut [f64]);
    /// Write the Hessian at `x` into `h` (shape `dim × dim`, pre-zeroed
    /// by the caller).
    fn hessian(&self, x: &[f64], h: &mut Mat);
}

/// Tuning knobs for the interior-point method. The defaults solve a
/// paper-scale problem (a handful of variables) to ~1e-9 gap in well
/// under a millisecond.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverOptions {
    /// Target duality-gap bound `m/t`.
    pub tolerance: f64,
    /// Geometric growth factor for the barrier weight.
    pub mu: f64,
    /// Initial barrier weight.
    pub t0: f64,
    /// Newton iterations allowed per centering step.
    pub max_newton_iters: usize,
    /// Maximum outer (centering) steps.
    pub max_outer_iters: usize,
    /// Armijo slope fraction for backtracking.
    pub armijo: f64,
    /// Backtracking shrink factor.
    pub beta: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            tolerance: 1e-9,
            mu: 20.0,
            t0: 1.0,
            max_newton_iters: 80,
            max_outer_iters: 60,
            armijo: 0.01,
            beta: 0.5,
        }
    }
}

/// A successful solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Solution {
    /// The minimizer.
    pub x: Vec<f64>,
    /// Objective value at the minimizer.
    pub value: f64,
    /// Guaranteed bound on suboptimality (barrier duality gap `m/t`).
    pub gap: f64,
    /// Total Newton iterations used.
    pub newton_iters: usize,
    /// Outer (centering) steps taken.
    pub outer_iters: usize,
    /// Barrier weight `t` at the start of each centering step — the μ
    /// trajectory of the solve, for telemetry.
    pub barrier_ts: Vec<f64>,
}

/// Why a solve failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolveError {
    /// The starting point violates (or touches) some constraints; the
    /// labels of the offending constraints are listed.
    NotStrictlyFeasible(Vec<String>),
    /// Phase-1 certified the constraint set has empty interior.
    Infeasible {
        /// Best-effort max violation found (≥ 0).
        violation: f64,
    },
    /// Newton's method broke down (non-PD Hessian after regularization,
    /// or non-finite values).
    Numerical(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotStrictlyFeasible(labels) => {
                write!(
                    f,
                    "start point not strictly feasible for: {}",
                    labels.join(", ")
                )
            }
            SolveError::Infeasible { violation } => {
                write!(
                    f,
                    "constraints have empty interior (violation {violation:.3e})"
                )
            }
            SolveError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Minimize `problem` over `constraints` starting from a strictly
/// feasible `x0`.
///
/// Use [`find_interior_point`] first if no strictly feasible point is
/// known.
pub fn minimize(
    problem: &dyn ConvexProblem,
    constraints: &ConstraintSet,
    x0: &[f64],
    opts: &SolverOptions,
) -> Result<Solution, SolveError> {
    let n = problem.dim();
    assert_eq!(
        constraints.dim(),
        n,
        "constraint/problem dimension mismatch"
    );
    assert_eq!(x0.len(), n, "start point dimension mismatch");

    let bad: Vec<String> = constraints
        .constraints()
        .iter()
        .filter(|c| c.slack(x0) <= 0.0)
        .map(|c| c.label.clone())
        .collect();
    if !bad.is_empty() {
        return Err(SolveError::NotStrictlyFeasible(bad));
    }

    let m = constraints.len().max(1) as f64;
    let mut x = x0.to_vec();
    let mut t = opts.t0;
    let mut total_newton = 0usize;
    let mut barrier_ts = Vec::new();

    for outer in 0..opts.max_outer_iters {
        barrier_ts.push(t);
        total_newton += center(problem, constraints, &mut x, t, opts)?;
        if m / t < opts.tolerance {
            return Ok(Solution {
                value: problem.value(&x),
                gap: m / t,
                newton_iters: total_newton,
                outer_iters: outer + 1,
                barrier_ts,
                x,
            });
        }
        t *= opts.mu;
    }
    // Outer loop exhausted; the gap bound still holds for the last t.
    Ok(Solution {
        value: problem.value(&x),
        gap: m / (t / opts.mu),
        newton_iters: total_newton,
        outer_iters: opts.max_outer_iters,
        barrier_ts,
        x,
    })
}

/// One centering step: Newton on `t·f(x) − Σ log(slack_j)`.
/// Returns the number of Newton iterations used.
fn center(
    problem: &dyn ConvexProblem,
    constraints: &ConstraintSet,
    x: &mut [f64],
    t: f64,
    opts: &SolverOptions,
) -> Result<usize, SolveError> {
    let n = problem.dim();
    let mut g = vec![0.0; n];
    let mut h = Mat::zeros(n, n);
    // One scratch buffer shared by every escalating-ridge retry of every
    // Newton iteration, instead of cloning the Hessian per attempt.
    let mut scratch = Mat::zeros(n, n);

    for iter in 0..opts.max_newton_iters {
        // Gradient and Hessian of the barrier-augmented objective.
        problem.gradient(x, &mut g);
        for gi in g.iter_mut() {
            *gi *= t;
        }
        h.fill_zero();
        problem.hessian(x, &mut h);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] *= t;
            }
        }
        for c in constraints.constraints() {
            let s = c.slack(x);
            if s <= 0.0 || !s.is_finite() {
                return Err(SolveError::Numerical(format!(
                    "lost strict feasibility of '{}' during centering",
                    c.label
                )));
            }
            axpy(1.0 / s, &c.coeffs, &mut g);
            h.rank1_update(&c.coeffs, 1.0 / (s * s));
        }

        // Newton direction, with escalating ridge if the Hessian is not
        // numerically positive definite.
        let mut d = None;
        let mut ridge = 0.0;
        for _ in 0..8 {
            scratch.copy_from(&h);
            if ridge > 0.0 {
                scratch.add_diagonal(ridge);
            }
            if scratch.cholesky_in_place() {
                let mut sol = g.clone();
                scratch.chol_solve_into(&mut sol);
                d = Some(sol);
                break;
            }
            ridge = if ridge == 0.0 { 1e-12 } else { ridge * 100.0 };
        }
        let mut d =
            d.ok_or_else(|| SolveError::Numerical("Hessian not positive definite".into()))?;
        for di in d.iter_mut() {
            *di = -*di;
        }

        // Newton decrement as the stopping criterion: λ² = −gᵀd.
        let lambda2 = -dot(&g, &d);
        if !lambda2.is_finite() {
            return Err(SolveError::Numerical("non-finite Newton decrement".into()));
        }
        if lambda2 / 2.0 <= 1e-12 {
            return Ok(iter);
        }

        // Backtracking line search: first shrink into the strictly
        // feasible region, then Armijo on the barrier objective.
        let phi = |x: &[f64]| -> f64 {
            let mut v = t * problem.value(x);
            for c in constraints.constraints() {
                let s = c.slack(x);
                if s <= 0.0 {
                    return f64::INFINITY;
                }
                v -= s.ln();
            }
            v
        };
        let phi0 = phi(x);
        let slope = dot(&g, &d); // negative
        let mut step = 1.0;
        let mut trial = x.to_vec();
        let mut ok = false;
        for _ in 0..100 {
            trial.copy_from_slice(x);
            axpy(step, &d, &mut trial);
            let v = phi(&trial);
            if v.is_finite() && v <= phi0 + opts.armijo * step * slope {
                ok = true;
                break;
            }
            step *= opts.beta;
        }
        if !ok {
            // No progress possible: accept current point as centered.
            return Ok(iter);
        }
        x.copy_from_slice(&trial);
        if norm2(&d) * step < 1e-14 {
            return Ok(iter + 1);
        }
    }
    Ok(opts.max_newton_iters)
}

/// Phase-1: find a strictly feasible point for `constraints`, or certify
/// that none exists (within `radius` of `x0`).
///
/// Solves `min s  s.t.  a_j·x − b_j ≤ s, |x_i − x0_i| ≤ radius` with the
/// same barrier machinery. If the optimum has `s < 0` the returned `x`
/// is strictly feasible for the original set.
pub fn find_interior_point(
    constraints: &ConstraintSet,
    x0: &[f64],
    radius: f64,
    opts: &SolverOptions,
) -> Result<Vec<f64>, SolveError> {
    find_interior_point_detailed(constraints, x0, radius, opts).map(|(x, _)| x)
}

/// [`find_interior_point`] variant that also reports how many Newton
/// iterations the phase-1 solve used (0 when `x0` was already strictly
/// interior), so callers can account the cost in telemetry.
pub fn find_interior_point_detailed(
    constraints: &ConstraintSet,
    x0: &[f64],
    radius: f64,
    opts: &SolverOptions,
) -> Result<(Vec<f64>, usize), SolveError> {
    let n = constraints.dim();
    assert_eq!(x0.len(), n);
    // Fast path: x0 may already be strictly interior.
    if constraints
        .constraints()
        .iter()
        .all(|c| c.slack(x0) > 1e-12)
    {
        return Ok((x0.to_vec(), 0));
    }

    // Augmented problem over (x, s): minimize s.
    struct LinearS {
        dim: usize,
    }
    impl ConvexProblem for LinearS {
        fn dim(&self) -> usize {
            self.dim
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[self.dim - 1]
        }
        fn gradient(&self, _x: &[f64], g: &mut [f64]) {
            for gi in g.iter_mut() {
                *gi = 0.0;
            }
            g[self.dim - 1] = 1.0;
        }
        fn hessian(&self, _x: &[f64], _h: &mut Mat) {}
    }

    let mut aug = ConstraintSet::new(n + 1);
    for c in constraints.constraints() {
        let mut coeffs = c.coeffs.clone();
        coeffs.push(-1.0);
        aug.push(coeffs, c.rhs, c.label.clone());
    }
    for i in 0..n {
        let mut up = vec![0.0; n + 1];
        up[i] = 1.0;
        aug.push(up, x0[i] + radius, format!("trust+ x{i}"));
        let mut lo = vec![0.0; n + 1];
        lo[i] = -1.0;
        aug.push(lo, radius - x0[i], format!("trust- x{i}"));
    }
    // Bound s above so the barrier domain is bounded.
    let s0 = constraints.max_violation(x0).max(0.0) + 1.0;
    let mut sb = vec![0.0; n + 1];
    sb[n] = 1.0;
    aug.push(sb, 2.0 * s0 + 1.0, "s upper bound");

    let mut z0 = x0.to_vec();
    z0.push(s0);
    let sol = minimize(&LinearS { dim: n + 1 }, &aug, &z0, opts)?;
    let s_opt = sol.x[n];
    if s_opt < -1e-12 {
        Ok((sol.x[..n].to_vec(), sol.newton_iters))
    } else {
        Err(SolveError::Infeasible {
            violation: s_opt.max(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Separable quadratic: Σ (x_i − c_i)².
    struct Quadratic {
        center: Vec<f64>,
    }
    impl ConvexProblem for Quadratic {
        fn dim(&self) -> usize {
            self.center.len()
        }
        fn value(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.center)
                .map(|(xi, ci)| (xi - ci).powi(2))
                .sum()
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            for i in 0..x.len() {
                g[i] = 2.0 * (x[i] - self.center[i]);
            }
        }
        fn hessian(&self, _x: &[f64], h: &mut Mat) {
            for i in 0..h.rows() {
                h[(i, i)] = 2.0;
            }
        }
    }

    /// Σ t_i / x_i — the paper's active-fraction shape.
    struct Reciprocal {
        t: Vec<f64>,
    }
    impl ConvexProblem for Reciprocal {
        fn dim(&self) -> usize {
            self.t.len()
        }
        fn value(&self, x: &[f64]) -> f64 {
            x.iter().zip(&self.t).map(|(xi, ti)| ti / xi).sum()
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            for i in 0..x.len() {
                g[i] = -self.t[i] / (x[i] * x[i]);
            }
        }
        fn hessian(&self, x: &[f64], h: &mut Mat) {
            for i in 0..x.len() {
                h[(i, i)] = 2.0 * self.t[i] / (x[i] * x[i] * x[i]);
            }
        }
    }

    #[test]
    fn unconstrained_interior_minimum() {
        // Min of (x-1)² + (y-2)² inside a generous box: hits the center.
        let p = Quadratic {
            center: vec![1.0, 2.0],
        };
        let mut cs = ConstraintSet::new(2);
        cs.push_upper_bound(0, 100.0, "x ub");
        cs.push_upper_bound(1, 100.0, "y ub");
        cs.push_lower_bound(0, -100.0, "x lb");
        cs.push_lower_bound(1, -100.0, "y lb");
        let sol = minimize(&p, &cs, &[0.0, 0.0], &SolverOptions::default()).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-6, "{:?}", sol.x);
        assert!((sol.x[1] - 2.0).abs() < 1e-6, "{:?}", sol.x);
        assert!(sol.gap < 1e-8);
        // The μ trajectory has one weight per centering step.
        assert_eq!(sol.barrier_ts.len(), sol.outer_iters);
    }

    #[test]
    fn active_constraint_binds() {
        // Min (x-5)² s.t. x ≤ 2 → x* = 2.
        let p = Quadratic { center: vec![5.0] };
        let mut cs = ConstraintSet::new(1);
        cs.push_upper_bound(0, 2.0, "cap");
        cs.push_lower_bound(0, -10.0, "floor");
        let sol = minimize(&p, &cs, &[0.0], &SolverOptions::default()).unwrap();
        assert!((sol.x[0] - 2.0).abs() < 1e-5, "{:?}", sol.x);
    }

    #[test]
    fn reciprocal_with_budget_matches_waterfilling_closed_form() {
        // min t1/x1 + t2/x2 s.t. x1 + x2 ≤ B, x ≥ ε.
        // KKT: x_i ∝ sqrt(t_i), budget tight.
        let t = vec![1.0, 4.0];
        let b = 10.0;
        let p = Reciprocal { t: t.clone() };
        let mut cs = ConstraintSet::new(2);
        cs.push(vec![1.0, 1.0], b, "budget");
        cs.push_lower_bound(0, 0.01, "x1 lb");
        cs.push_lower_bound(1, 0.01, "x2 lb");
        let sol = minimize(&p, &cs, &[1.0, 1.0], &SolverOptions::default()).unwrap();
        let scale = b / (t[0].sqrt() + t[1].sqrt());
        let expect = [t[0].sqrt() * scale, t[1].sqrt() * scale];
        assert!(
            (sol.x[0] - expect[0]).abs() < 1e-4,
            "{:?} vs {:?}",
            sol.x,
            expect
        );
        assert!(
            (sol.x[1] - expect[1]).abs() < 1e-4,
            "{:?} vs {:?}",
            sol.x,
            expect
        );
    }

    #[test]
    fn rejects_infeasible_start() {
        let p = Quadratic { center: vec![0.0] };
        let mut cs = ConstraintSet::new(1);
        cs.push_upper_bound(0, 1.0, "cap");
        let err = minimize(&p, &cs, &[2.0], &SolverOptions::default()).unwrap_err();
        match err {
            SolveError::NotStrictlyFeasible(labels) => assert_eq!(labels, vec!["cap".to_string()]),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn boundary_start_is_rejected_too() {
        let p = Quadratic { center: vec![0.0] };
        let mut cs = ConstraintSet::new(1);
        cs.push_upper_bound(0, 1.0, "cap");
        assert!(matches!(
            minimize(&p, &cs, &[1.0], &SolverOptions::default()),
            Err(SolveError::NotStrictlyFeasible(_))
        ));
    }

    #[test]
    fn phase1_finds_interior_point() {
        let mut cs = ConstraintSet::new(2);
        cs.push(vec![1.0, 1.0], 10.0, "sum");
        cs.push_lower_bound(0, 1.0, "x0 lb");
        cs.push_lower_bound(1, 1.0, "x1 lb");
        // Start infeasible (below the lower bounds).
        let x = find_interior_point(&cs, &[0.0, 0.0], 100.0, &SolverOptions::default()).unwrap();
        assert!(cs.is_feasible(&x, 0.0));
        for c in cs.constraints() {
            assert!(c.slack(&x) > 0.0, "not strictly feasible: {}", c.label);
        }
    }

    #[test]
    fn phase1_certifies_empty_interior() {
        let mut cs = ConstraintSet::new(1);
        cs.push_upper_bound(0, 1.0, "ub");
        cs.push_lower_bound(0, 2.0, "lb");
        let err = find_interior_point(&cs, &[0.0], 100.0, &SolverOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::Infeasible { .. }), "{err:?}");
    }

    #[test]
    fn phase1_fast_path_keeps_interior_start() {
        let mut cs = ConstraintSet::new(1);
        cs.push_upper_bound(0, 10.0, "ub");
        let x = find_interior_point(&cs, &[3.0], 100.0, &SolverOptions::default()).unwrap();
        assert_eq!(x, vec![3.0]);
    }

    #[test]
    fn solution_respects_all_constraints() {
        let p = Reciprocal {
            t: vec![287.0, 955.0, 402.0, 2753.0],
        };
        let mut cs = ConstraintSet::new(4);
        cs.push(vec![1.0, 3.0, 9.0, 6.0], 2e5, "deadline");
        for (i, t) in [287.0, 955.0, 402.0, 2753.0].iter().enumerate() {
            cs.push_lower_bound(i, *t, format!("x{i} >= t{i}"));
        }
        cs.push_upper_bound(0, 12_800.0, "rate");
        let x0 = vec![300.0, 1000.0, 450.0, 2800.0];
        let sol = minimize(&p, &cs, &x0, &SolverOptions::default()).unwrap();
        assert!(cs.is_feasible(&sol.x, 1e-6), "{:?}", sol.x);
        assert!(
            sol.value < p.value(&x0),
            "optimizer should improve on start"
        );
    }

    #[test]
    fn detailed_phase1_fast_path_reports_zero_newtons() {
        let mut cs = ConstraintSet::new(1);
        cs.push_upper_bound(0, 10.0, "ub");
        let (x, newtons) =
            find_interior_point_detailed(&cs, &[3.0], 100.0, &SolverOptions::default()).unwrap();
        assert_eq!(x, vec![3.0]);
        assert_eq!(newtons, 0);
    }

    #[test]
    fn error_display_strings() {
        let e = SolveError::NotStrictlyFeasible(vec!["a".into()]);
        assert!(e.to_string().contains("a"));
        let e = SolveError::Infeasible { violation: 0.5 };
        assert!(e.to_string().contains("empty interior"));
        let e = SolveError::Numerical("boom".into());
        assert!(e.to_string().contains("boom"));
    }
}
