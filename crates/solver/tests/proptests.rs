//! Property-based tests for the optimization toolkit.

use proptest::prelude::*;
use solver::convex::{find_interior_point, minimize, ConvexProblem, SolverOptions};
use solver::integer::minimize_scan;
use solver::linalg::Mat;
use solver::linear::ConstraintSet;

/// Separable quadratic Σ (x_i − c_i)² for solver tests.
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

proptest! {
    #[test]
    fn scan_result_never_beaten_by_any_point(
        seed in 0u64..1000,
        lo in 0u64..50,
        span in 1u64..200,
    ) {
        let hi = lo + span;
        let f = |m: u64| {
            // Deterministic pseudo-random objective with some infeasible
            // points.
            let h = m.wrapping_mul(seed.wrapping_mul(2654435761).wrapping_add(97));
            if h % 7 == 0 { None } else { Some(((h >> 3) % 1000) as f64) }
        };
        if let Some(best) = minimize_scan(lo, hi, f) {
            for m in lo..=hi {
                if let Some(v) = f(m) {
                    prop_assert!(best.value <= v, "m={m} beats the scan result");
                }
            }
            prop_assert_eq!(f(best.arg), Some(best.value));
        } else {
            for m in lo..=hi {
                prop_assert!(f(m).is_none());
            }
        }
    }

    #[test]
    fn interior_point_solution_dominates_random_feasible_points(
        cx in -5.0..5.0f64,
        cy in -5.0..5.0f64,
        budget in 2.0..20.0f64,
        probe_a in 0.0..1.0f64,
        probe_b in 0.0..1.0f64,
    ) {
        // min (x-cx)² + (y-cy)²  s.t.  x + y ≤ budget, x ≥ -10, y ≥ -10.
        let p = Quadratic { center: vec![cx, cy] };
        let mut cs = ConstraintSet::new(2);
        cs.push(vec![1.0, 1.0], budget, "budget");
        cs.push_lower_bound(0, -10.0, "x lb");
        cs.push_lower_bound(1, -10.0, "y lb");
        let x0 = find_interior_point(&cs, &[0.0, 0.0], 100.0, &SolverOptions::default()).unwrap();
        let sol = minimize(&p, &cs, &x0, &SolverOptions::default()).unwrap();
        prop_assert!(cs.is_feasible(&sol.x, 1e-7), "{:?}", sol.x);
        // Compare against random feasible probes (strictly inside).
        let px = -10.0 + probe_a * (budget + 9.0);
        let py_max = budget - px;
        let py = -10.0 + probe_b * (py_max + 9.99);
        if cs.is_feasible(&[px, py], 0.0) {
            prop_assert!(
                sol.value <= p.value(&[px, py]) + 1e-6,
                "probe ({px},{py}) beats solver: {} vs {}",
                p.value(&[px, py]),
                sol.value
            );
        }
    }

    #[test]
    fn cholesky_solve_residual_is_small(
        diag in prop::collection::vec(0.5..10.0f64, 2..6),
        rhs_seed in 0u64..100,
    ) {
        // SPD matrix: diag + small symmetric perturbation.
        let n = diag.len();
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = diag[i] + n as f64; // diagonally dominant
            for j in 0..i {
                let v = (((i * 31 + j * 17) % 7) as f64 - 3.0) / 10.0;
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| ((rhs_seed as usize + i) % 11) as f64 - 5.0).collect();
        let x = a.clone().cholesky().expect("diagonally dominant is SPD").solve(&b);
        let ax = a.matvec(&x);
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() < 1e-8, "residual too big");
        }
    }
}
