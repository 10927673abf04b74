//! The exact deadline price shared by the chain and DAG water-filling
//! solvers.
//!
//! For a deadline price `λ`, both solvers pick the scaled periods `z(λ)`
//! that minimize `Σ a_i/z_i + λ·Σ c_i·z_i` over their order constraints
//! and box bounds, and both want the smallest `λ` whose `z(λ)` meets the
//! deadline. In `μ = λ^(-1/2)` a free node or block takes the value
//! `μ·√(A/C)`, so within one structure — which nodes pool or tie, and
//! which sit at a bound — the budget `Σ c_i·z_i` is affine in `μ`: free
//! blocks add slope `√(A·C)`, clamped ones a constant. [`exact_price`]
//! takes bracketed Newton steps on that affine piece until the piece
//! holds its own root, then settles the last ulps of `λ` on the float
//! grid. The answer depends only on the problem, never on the starting
//! point, so warm and cold solves agree bit for bit.

/// Newton steps before the search falls back to the float-grid search
/// alone; generic instances converge in two or three.
const MAX_NEWTON_STEPS: usize = 64;

/// The first `μ` to try for objective weights `a`, budget weights `c`,
/// bounds `lo ≤ z ≤ cap` and totals `g` (`z_i = g_i·x_i`). Each period
/// of a warm hint whose `ẑ` sits strictly inside its bounds estimates
/// `μ` by stationarity, `ẑ_i = μ·√(a_i/c_i)`, and the seed is their
/// mean. Without a hint, or with every hinted node at a bound, it is
/// the `μ` at which unclamped, unpooled nodes would exhaust the deadline.
pub(crate) fn seed_mu(
    deadline: f64,
    a: &[f64],
    c: &[f64],
    g: &[f64],
    lo: &[f64],
    cap: f64,
    hint: Option<&[f64]>,
) -> f64 {
    let (sum, count) = (hint.unwrap_or_default().iter().enumerate())
        .map(|(i, &x)| (i, g[i] * x))
        .filter(|&(i, z)| z > lo[i] && z < cap)
        .fold((0.0, 0.0), |(s, k), (i, z)| {
            (s + z / (a[i] / c[i]).sqrt(), k + 1.0)
        });
    if count > 0.0 {
        return sum / count;
    }
    let slope: f64 = a.iter().zip(c).map(|(&ai, &ci)| (ai * ci).sqrt()).sum();
    deadline / slope
}

/// The smallest float `λ ≥ 0` whose `z(λ)` fits `deadline`, or `None`
/// when not even `λ = f64::MAX` fits. One budget evaluation `eval(λ)`
/// returns whether `z(λ)` meets the deadline in floating point, and the
/// affine budget piece `slope·μ + offset` of its structure (`offset` is
/// the budget of clamped blocks). It must fit monotonically: if `λ`
/// fits, so does every larger price. `mu0` seeds the first Newton step;
/// it changes how many evaluations the search takes, never its answer.
pub(crate) fn exact_price(
    deadline: f64,
    mu0: f64,
    mut eval: impl FnMut(f64) -> (bool, f64, f64),
) -> Option<f64> {
    if eval(0.0).0 {
        return Some(0.0);
    }
    // Bracket in μ: `lo` fits (0 until one does), `hi` does not (μ = ∞
    // is λ = 0, which was just rejected).
    let (mut lo, mut hi) = (0.0_f64, f64::INFINITY);
    let mut mu = Some(mu0)
        .filter(|m| m.is_normal() && *m > 0.0)
        .unwrap_or(1.0);
    let mut last = (f64::NAN, false);
    for _ in 0..MAX_NEWTON_STEPS {
        let lambda = (mu * mu).recip();
        let (fits, slope, offset) = eval(lambda);
        last = (lambda, fits);
        if fits {
            lo = mu;
        } else {
            hi = mu;
        }
        // Where this piece meets the deadline; NaN or ±∞ on a flat piece.
        let root = (deadline - offset) / slope;
        if (root - mu).abs() <= 1e-12 * mu {
            mu = root;
            break;
        }
        mu = if root > lo && root < hi {
            root
        } else if hi.is_infinite() {
            lo * 16.0
        } else if lo == 0.0 {
            hi / 16.0
        } else {
            (lo * hi).sqrt()
        };
        if hi <= lo * (1.0 + 1e-12) {
            break;
        }
    }
    let mut fits = |lambda: f64| {
        if lambda.to_bits() == last.0.to_bits() {
            last.1
        } else {
            eval(lambda).0
        }
    };
    first_fit((mu * mu).recip(), &mut fits)
}

/// The smallest positive float `λ` with `fits(λ)`, found by stepping
/// outward from `guess` in doubling ulp strides and then bisecting:
/// positive floats order like their bit patterns. `λ = 0` (bit pattern
/// 0) is known not to fit.
fn first_fit(guess: f64, fits: &mut impl FnMut(f64) -> bool) -> Option<f64> {
    let at = f64::from_bits;
    let top = f64::MAX.to_bits();
    let start = guess.clamp(f64::MIN_POSITIVE, f64::MAX).to_bits();
    // Invariant: `lo` does not fit, `hi` does.
    let (mut lo, mut hi);
    let mut stride = 1u64;
    if fits(at(start)) {
        hi = start;
        loop {
            let probe = hi.saturating_sub(stride);
            if probe == 0 || !fits(at(probe)) {
                lo = probe;
                break;
            }
            hi = probe;
            stride *= 2;
        }
    } else {
        lo = start;
        loop {
            if lo == top {
                return None;
            }
            let probe = lo.saturating_add(stride).min(top);
            if fits(at(probe)) {
                hi = probe;
                break;
            }
            lo = probe;
            stride *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(at(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(at(hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A budget with a kink: slope 1 up to μ = 2, then slope 3.
    fn kinked(deadline: f64) -> impl FnMut(f64) -> (bool, f64, f64) {
        move |lambda: f64| {
            let mu = lambda.sqrt().recip();
            let (slope, offset) = if mu <= 2.0 { (1.0, 0.0) } else { (3.0, -4.0) };
            (slope * mu + offset <= deadline, slope, offset)
        }
    }

    #[test]
    fn finds_the_smallest_fitting_float_from_any_seed() {
        let mut answers = Vec::new();
        for mu0 in [1e-6, 0.5, 1.9, 2.1, 7.0, 1e9] {
            let mut evals = 0;
            let mut eval = kinked(5.0);
            let lam = exact_price(5.0, mu0, |l| {
                evals += 1;
                eval(l)
            })
            .expect("fits at large prices");
            assert!(evals <= 80, "seed {mu0}: {evals} evaluations");
            answers.push(lam.to_bits());
            // Smallest: one ulp lower no longer fits.
            assert!(kinked(5.0)(lam).0);
            assert!(!kinked(5.0)(f64::from_bits(lam.to_bits() - 1)).0);
        }
        answers.dedup();
        assert_eq!(answers.len(), 1, "seed-independent answer");
        // μ* = 3 on the steep piece.
        let lam = f64::from_bits(answers[0]);
        assert!((lam.sqrt().recip() - 3.0).abs() < 1e-12);
    }
}
