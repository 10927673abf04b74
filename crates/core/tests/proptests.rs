//! Property-based tests for the scheduling strategies: solver agreement,
//! feasibility, and KKT certification on randomized pipelines.

use dataflow_model::analysis::block_time;
use dataflow_model::{
    GainModel, PipelineSpec, PipelineSpecBuilder, RtParams, Topology, TopologyBuilder,
};
use proptest::prelude::*;
use rtsdf_core::comparison::{compare_at, sweep, CellResult, SweepConfig};
use rtsdf_core::monolithic::BlockModel;
use rtsdf_core::{
    minimal_periods, BlockTable, EnforcedProblem, MonolithicProblem, MonolithicSchedule,
    ScheduleError,
};

/// Two-point empirical law with mean `gain`: stresses the Empirical code
/// path rather than only Bernoulli.
fn two_point(gain: f64) -> GainModel {
    let k = gain.ceil().max(1.0) as u32;
    let p_hi = gain / k as f64;
    GainModel::Empirical {
        pmf: vec![(0, 1.0 - p_hi), (k, p_hi)],
    }
}

/// A random pipeline of 2–6 stages, or now and then 7–64. About one
/// stage in five has mean gain 0 — `Deterministic { k: 0 }`,
/// `Bernoulli { p: 0 }` or an all-zero `Empirical` law — which splits
/// the Fig.-1 chain into independent water-filling segments; the others
/// have two-point laws with means in 0.1..3.
fn pipeline() -> impl Strategy<Value = PipelineSpec> {
    prop_oneof![2..=6usize, 2..=6usize, 2..=6usize, 7..=64usize]
        .prop_flat_map(|n| prop::collection::vec(stage(), n..=n))
        .prop_map(|stages| {
            let mut b = PipelineSpecBuilder::new(64);
            for (i, (t, gain)) in stages.into_iter().enumerate() {
                b = b.stage(format!("s{i}"), t, gain);
            }
            b.build().expect("valid")
        })
}

/// One stage of [`pipeline`]: a service time and a gain law, zero-mean
/// three times in sixteen.
fn stage() -> impl Strategy<Value = (f64, GainModel)> {
    (10.0..2000.0f64, 0.1..3.0f64, 0..16u32).prop_map(|(t, gain, law)| {
        let gain = match law {
            0 => GainModel::Deterministic { k: 0 },
            1 => GainModel::Bernoulli { p: 0.0 },
            2 => GainModel::Empirical {
                pmf: vec![(0, 1.0)],
            },
            _ => two_point(gain),
        };
        (t, gain)
    })
}

/// Vector widths from scalar to very wide.
fn vector_width() -> impl Strategy<Value = u32> {
    (0..4usize).prop_map(|i| [1, 32, 128, 1024][i])
}

/// A chain whose stage gains span 10^-2..10^0.5, so the totals `G_i`
/// range from ~1e-4 and below to well above 1.
fn extreme_chain() -> impl Strategy<Value = PipelineSpec> {
    (
        vector_width(),
        prop::collection::vec((10.0..3000.0f64, -2.0..0.5f64), 1..=6),
    )
        .prop_map(|(v, stages)| {
            let mut b = PipelineSpecBuilder::new(v);
            for (i, (t, log_gain)) in stages.into_iter().enumerate() {
                b = b.stage(format!("s{i}"), t, two_point(10f64.powf(log_gain)));
            }
            b.build().expect("valid")
        })
}

/// A single-source DAG: the source fans out over thinned edges to 2–4
/// branches that fan back in to a join (a diamond at 2), then a sink.
fn fan_in_dag() -> impl Strategy<Value = Topology> {
    (
        vector_width(),
        prop::collection::vec((10.0..3000.0f64, -2.0..0.5f64, 0.05..=1.0f64), 2..=4),
        (10.0..3000.0f64, 10.0..3000.0f64, 10.0..3000.0f64),
        -2.0..0.5f64,
    )
        .prop_map(|(v, branches, (t_source, t_join, t_sink), log_tail)| {
            let join = branches.len() + 1;
            let mut b = TopologyBuilder::new(v).node("source", t_source);
            for (i, &(t, _, _)) in branches.iter().enumerate() {
                b = b.node(format!("b{i}"), t);
            }
            b = b.node("join", t_join).node("sink", t_sink);
            for (i, &(_, log_gain, weight)) in branches.iter().enumerate() {
                b = b
                    .edge(0, i + 1, GainModel::Deterministic { k: 1 }, weight)
                    .edge(i + 1, join, two_point(10f64.powf(log_gain)), 1.0);
            }
            b.edge(join, join + 1, two_point(10f64.powf(log_tail)), 1.0)
                .build()
                .expect("valid")
        })
}

/// τ0 as a multiple of the asymptotic stability limit `Σ G_i·t_i / v`:
/// below it nothing is stable, just above it only large blocks are.
fn tau_scale() -> impl Strategy<Value = f64> {
    prop_oneof![0.9..1.0f64, 1.0..1.5f64, 1.5..6.0f64]
}

/// D as a multiple of the smallest feasible deadline, often right on it.
fn d_scale() -> impl Strategy<Value = f64> {
    prop_oneof![Just(1.0), 1.0..1.01f64, 1.01..4.0f64]
}

/// The operating point `τ0 = tau_scale × Σ G_i·t_i/v` (the stability
/// floor), `D = d_scale ×` the smallest feasible deadline there, with `D`
/// capped so `max_block_size` stays at most `max_m`.
fn scaled_point(
    model: &impl BlockModel,
    tau_scale: f64,
    d_scale: f64,
    b: f64,
    s: f64,
    max_m: u64,
) -> RtParams {
    let (v, t, g) = model.block_model();
    let limit = t.iter().zip(&g).map(|(t, g)| t * g).sum::<f64>() / v as f64;
    let tau0 = limit * tau_scale;
    // The smallest feasible deadline is the latency bound at the first
    // stable block size.
    let d_min = (1..=max_m)
        .find(|&m| block_time(v, &t, &g, m) <= m as f64 * tau0)
        .map_or(f64::INFINITY, |m| {
            b * m as f64 * tau0 + s * block_time(v, &t, &g, m)
        });
    let d = (d_min * d_scale).min(max_m as f64 * b * tau0);
    RtParams::new(tau0, d).unwrap()
}

/// Check the breakpoint search against the exhaustive scan on `model`:
/// same feasibility, same block size, bit-equal active fraction.
/// `max_block_size` stays at most `MAX_M` so the scan stays fast.
fn breakpoint_matches_scan(
    model: &impl BlockModel,
    tau_scale: f64,
    d_scale: f64,
    b: f64,
    s: f64,
) -> Result<(), TestCaseError> {
    const MAX_M: u64 = 200_000;
    let params = scaled_point(model, tau_scale, d_scale, b, s, MAX_M);
    let (tau0, d) = (params.tau0, params.deadline);
    let prob = MonolithicProblem::new(model, params, b, s);
    match (prob.solve(), prob.solve_fast()) {
        (Ok(scan), Ok(fast)) => {
            prop_assert_eq!(scan.block_size, fast.block_size, "tau0={} D={}", tau0, d);
            prop_assert_eq!(
                scan.active_fraction.to_bits(),
                fast.active_fraction.to_bits()
            );
        }
        (Err(_), Err(_)) => {}
        (scan, fast) => prop_assert!(false, "tau0={tau0} D={d}: {scan:?} vs {fast:?}"),
    }
    Ok(())
}

/// At least 20 operating points as `(tau_scale, d_scale)` for
/// [`scaled_point`], always including `τ0` a hair on either side of the
/// stability floor at the minimum feasible deadline.
fn operating_points() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((tau_scale(), d_scale()), 16..=24).prop_map(|mut points| {
        points.extend([
            (1.0 - 1e-6, 1.0),
            (1.0 + 1e-6, 1.0),
            (1.0 - 1e-6, 2.0),
            (1.0 + 1e-6, 2.0),
        ]);
        points
    })
}

/// Build one [`BlockTable`] for `model` at a large bound and solve every
/// point of `points` on it: the table walk, the point's own
/// `solve_fast` and the exhaustive scan agree on feasibility, block
/// size and active-fraction bits, and the walk evaluates exactly the
/// candidates `solve_fast` does. The sweep's table
/// ([`BlockTable::covering`] the points) gives the same answers.
fn shared_table_matches_per_point_solves(
    model: &impl BlockModel,
    points: &[(f64, f64)],
    b: f64,
    s: f64,
) -> Result<(), TestCaseError> {
    const MAX_M: u64 = 20_000;
    let params: Vec<RtParams> = points
        .iter()
        .map(|&(tau_scale, d_scale)| scaled_point(model, tau_scale, d_scale, b, s, MAX_M))
        .collect();
    let table = MonolithicProblem::new(model, params[0], b, s).block_table(MAX_M);
    let covering = BlockTable::covering(model, params.iter().copied(), b, s);
    prop_assert!(covering.bound() <= MAX_M);
    for &p in &params {
        let prob = MonolithicProblem::new(model, p, b, s);
        let (tau0, d) = (p.tau0, p.deadline);
        let solves = [
            prob.solve_on(&table),
            prob.solve_on(&covering),
            prob.solve_fast(),
            prob.solve(),
        ];
        type Solved = Result<MonolithicSchedule, ScheduleError>;
        let key = |r: &Solved| {
            r.as_ref()
                .ok()
                .map(|m| (m.block_size, m.active_fraction.to_bits()))
        };
        for other in &solves[1..] {
            prop_assert_eq!(key(&solves[0]), key(other), "tau0={} D={}", tau0, d);
        }
        let evaluations = |r: &Solved| {
            r.as_ref()
                .ok()
                .and_then(|m| m.telemetry.as_ref())
                .map(|t| t.iterations)
        };
        prop_assert_eq!(evaluations(&solves[0]), evaluations(&solves[2]));
    }
    Ok(())
}

/// A chain whose totals `G_i` span 1e-4 to 100: up to five stages with
/// mean gains 10^-1..10^0.5.
fn price_chain() -> impl Strategy<Value = PipelineSpec> {
    (
        vector_width(),
        prop::collection::vec((10.0..3000.0f64, -1.0..0.5f64), 1..=5),
    )
        .prop_map(|(v, stages)| {
            let mut b = PipelineSpecBuilder::new(v);
            for (i, (t, log_gain)) in stages.into_iter().enumerate() {
                b = b.stage(format!("s{i}"), t, two_point(10f64.powf(log_gain)));
            }
            b.build().expect("valid")
        })
}

/// D as a multiple of the smallest feasible deadline, mostly just above
/// it.
fn d_just_above() -> impl Strategy<Value = f64> {
    prop_oneof![1.0 + 1e-9..1.0 + 1e-6, 1.0 + 1e-6..1.01f64, 1.01..4.0f64]
}

/// Pool-adjacent-violators at deadline price `lambda`, as the chain
/// water-filling solver computes it: the minimizer of
/// `Σ a_i/z_i + λ·c_i·z_i` over nonincreasing `z` with `lo_i ≤ z_i ≤ cap`.
fn pav(a: &[f64], c: &[f64], lo: &[f64], cap: f64, lambda: f64) -> Vec<f64> {
    let value =
        |a_sum: f64, c_sum: f64, lo_max: f64| (a_sum / (lambda * c_sum)).sqrt().clamp(lo_max, cap);
    // (a_sum, c_sum, lo_max, len, value)
    let mut stack: Vec<(f64, f64, f64, usize, f64)> = Vec::new();
    for i in 0..a.len() {
        let mut blk = (a[i], c[i], lo[i], 1, value(a[i], c[i], lo[i]));
        while let Some(&prev) = stack.last() {
            if prev.4 >= blk.4 {
                break;
            }
            stack.pop();
            blk = (
                blk.0 + prev.0,
                blk.1 + prev.1,
                blk.2.max(prev.2),
                blk.3 + prev.3,
                0.0,
            );
            blk.4 = value(blk.0, blk.1, blk.2);
        }
        stack.push(blk);
    }
    let mut z = Vec::with_capacity(a.len());
    for b in stack {
        z.resize(z.len() + b.3, b.4);
    }
    z
}

/// The chain water-filling solver before the exact price search, kept
/// as a differential oracle: a 200-step geometric bisection of the
/// deadline price λ over [`pav`]. Returns the periods before clamping
/// to the service times.
fn bisection_chain_periods(p: &PipelineSpec, params: RtParams, b: &[f64]) -> Vec<f64> {
    let n = p.len();
    let (t, g) = (p.service_times(), p.total_gains());
    let cap = p.vector_width() as f64 * params.tau0;
    let a: Vec<f64> = (0..n).map(|i| t[i] * g[i] / n as f64).collect();
    let c: Vec<f64> = (0..n).map(|i| b[i] / g[i]).collect();
    let lo: Vec<f64> = (0..n).map(|i| t[i] * g[i]).collect();
    let budget = |z: &[f64]| -> f64 { z.iter().zip(&c).map(|(&zi, &ci)| zi * ci).sum() };
    let z = if budget(&vec![cap; n]) <= params.deadline {
        vec![cap; n]
    } else {
        let (mut lam_lo, mut lam_hi) = (1e-30, 1.0);
        while budget(&pav(&a, &c, &lo, cap, lam_hi)) > params.deadline {
            lam_hi *= 10.0;
        }
        for _ in 0..200 {
            let mid = (lam_lo * lam_hi).sqrt();
            if budget(&pav(&a, &c, &lo, cap, mid)) > params.deadline {
                lam_lo = mid;
            } else {
                lam_hi = mid;
            }
        }
        pav(&a, &c, &lo, cap, lam_hi)
    };
    z.iter().zip(&g).map(|(z, g)| z / g).collect()
}

/// The DAG water-filling solver before the exact price search, kept as a
/// differential oracle: a 200-step arithmetic bisection of λ over the
/// topo-order projection (clamp to `cap`, lower to the parents, raise to
/// the floor).
fn bisection_dag_periods(topo: &Topology, params: RtParams, b: &[f64]) -> Vec<f64> {
    let n = topo.len();
    let (t, g) = (topo.service_times(), topo.total_gains());
    let cap = topo.vector_width() as f64 * params.tau0;
    let a: Vec<f64> = (0..n).map(|i| t[i] * g[i] / n as f64).collect();
    let c: Vec<f64> = (0..n).map(|i| b[i] / g[i]).collect();
    let mut floor: Vec<f64> = (0..n).map(|i| t[i] * g[i]).collect();
    for &i in topo.topo_order().iter().rev() {
        for &e in topo.out_edges(i) {
            floor[i] = floor[i].max(floor[topo.edge(e).dst]);
        }
    }
    let project = |lambda: f64| {
        let mut z = vec![0.0; n];
        for &i in topo.topo_order() {
            let parents = topo
                .in_edges(i)
                .iter()
                .map(|&e| z[topo.edge(e).src])
                .fold(f64::INFINITY, f64::min);
            z[i] = (a[i] / (lambda * c[i]))
                .sqrt()
                .min(cap)
                .min(parents)
                .max(floor[i]);
        }
        z
    };
    let usage = |z: &[f64]| -> f64 { z.iter().zip(&c).map(|(&zi, &ci)| ci * zi).sum() };
    let mut z = project(0.0);
    if usage(&z) > params.deadline {
        let (mut lam_lo, mut lam_hi) = (0.0, 1e-12);
        while usage(&project(lam_hi)) > params.deadline {
            lam_lo = lam_hi;
            lam_hi *= 10.0;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lam_lo + lam_hi);
            if usage(&project(mid)) > params.deadline {
                lam_lo = mid;
            } else {
                lam_hi = mid;
            }
        }
        z = project(lam_hi);
    }
    z.iter().zip(&g).map(|(z, g)| z / g).collect()
}

/// KKT activity tolerance for a deadline `d_scale` times the smallest
/// feasible one. Just above that deadline, free periods sit barely above
/// their bounds; a looser tolerance would count those bounds active and
/// force negative multipliers onto them.
fn active_tol(d_scale: f64) -> f64 {
    (1e-3 * (d_scale - 1.0)).min(1e-5)
}

/// Periods agree to `1e-9` relative.
fn periods_agree(got: &[f64], oracle: &[f64]) -> Result<(), TestCaseError> {
    for (x, y) in got.iter().zip(oracle) {
        prop_assert!(
            (x - y).abs() <= 1e-9 * y.abs(),
            "{got:?} vs oracle {oracle:?}"
        );
    }
    Ok(())
}

/// A feasible operating point + factors for the given pipeline, derived
/// from its minimal periods.
fn feasible_point(p: &PipelineSpec, tau_scale: f64, d_scale: f64) -> Option<(RtParams, Vec<f64>)> {
    let b: Vec<f64> = p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect();
    let xmin = minimal_periods(&Topology::chain(p));
    let tau0 = xmin[0] / p.vector_width() as f64 * tau_scale;
    // NaN or nonpositive tau0 means the scale degenerated the point.
    if tau0.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return None;
    }
    let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
    let d = min_d * d_scale;
    Some((RtParams::new(tau0, d).ok()?, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn waterfilling_and_interior_point_agree(
        p in pipeline(),
        tau_scale in 1.05..20.0f64,
        d_scale in 1.05..20.0f64,
    ) {
        let Some((params, b)) = feasible_point(&p, tau_scale, d_scale) else {
            return Ok(());
        };
        let t = Topology::chain(&p);
        let prob = EnforcedProblem::new(&t, params, b);
        let wf = prob.solve().expect("feasible by construction");
        let ip = prob.solve_interior_point().expect("feasible by construction");
        prop_assert!(
            (wf.active_fraction - ip.active_fraction).abs()
                <= 1e-4 * wf.active_fraction.max(1e-9),
            "WF {} vs IP {}",
            wf.active_fraction,
            ip.active_fraction
        );
    }

    #[test]
    fn waterfilling_solution_is_feasible_and_certified(
        p in pipeline(),
        tau_scale in 1.05..20.0f64,
        d_scale in 1.05..20.0f64,
    ) {
        let Some((params, b)) = feasible_point(&p, tau_scale, d_scale) else {
            return Ok(());
        };
        let t = Topology::chain(&p);
        let prob = EnforcedProblem::new(&t, params, b);
        let s = prob.solve().expect("feasible by construction");
        let cs = prob.constraint_set();
        prop_assert!(cs.is_feasible(&s.periods, 1e-6 * params.deadline.max(1.0)));
        prop_assert!(s.waits.iter().all(|&w| w >= 0.0));
        let kkt = prob.verify_kkt(&s.periods, 1e-5);
        prop_assert!(kkt.is_optimal(5e-3), "{kkt:?}");
    }

    #[test]
    fn tighter_deadline_never_improves_active_fraction(
        p in pipeline(),
        tau_scale in 1.05..20.0f64,
        d_scale in 1.2..10.0f64,
    ) {
        let Some((params_loose, b)) = feasible_point(&p, tau_scale, d_scale * 2.0) else {
            return Ok(());
        };
        let Some((params_tight, _)) = feasible_point(&p, tau_scale, d_scale) else {
            return Ok(());
        };
        let t = Topology::chain(&p);
        let loose = EnforcedProblem::new(&t, params_loose, b.clone())
            .solve()
            .unwrap();
        let tight = EnforcedProblem::new(&t, params_tight, b).solve().unwrap();
        prop_assert!(loose.active_fraction <= tight.active_fraction + 1e-9);
    }

    #[test]
    fn minimal_periods_are_componentwise_minimal(
        p in pipeline(),
        inflate in prop::collection::vec(1.0..4.0f64, 6),
    ) {
        // Any feasible period vector (built by inflating x̂ upstream-first
        // so the chain constraints stay satisfied) dominates x̂.
        let xmin = minimal_periods(&Topology::chain(&p));
        let g = p.mean_gains();
        // Inflate from the tail: x_i' = max(t_i, g_i·x_{i+1}') · inflate_i.
        let t = p.service_times();
        let n = p.len();
        let mut x = vec![0.0; n];
        x[n - 1] = t[n - 1] * inflate[0];
        for i in (0..n - 1).rev() {
            x[i] = (t[i].max(g[i] * x[i + 1])) * inflate[(n - 1 - i) % inflate.len()];
        }
        for i in 0..n {
            prop_assert!(x[i] >= xmin[i] - 1e-9, "constructed feasible x below x̂ at {i}");
        }
    }

    #[test]
    fn monolithic_exact_result_beats_random_probes(
        p in pipeline(),
        tau_scale in 2.0..40.0f64,
        d_scale in 2.0..40.0f64,
        probe in 1u64..5_000,
    ) {
        // Build an operating point generous enough that the monolithic
        // strategy usually has a feasible block size.
        let totals = p.total_gains();
        let rate_limit: f64 = p
            .nodes()
            .iter()
            .zip(&totals)
            .map(|(n, &g)| n.service_time * g)
            .sum::<f64>()
            / p.vector_width() as f64;
        let tau0 = rate_limit * tau_scale;
        let d = p.total_service_time() * d_scale + tau0 * 64.0;
        let params = RtParams::new(tau0, d).unwrap();
        let prob = MonolithicProblem::new(&p, params, 1.0, 1.0);
        if let Ok(best) = prob.solve() {
            if let Some(v) = prob.objective(probe.min(prob.max_block_size().max(1))) {
                prop_assert!(best.active_fraction <= v + 1e-12);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_price_matches_bisection_on_chains(
        p in price_chain(),
        tau_scale in 1.0..20.0f64,
        d_scale in d_just_above(),
    ) {
        let Some((params, b)) = feasible_point(&p, tau_scale, d_scale) else {
            return Ok(());
        };
        let chain = Topology::chain(&p);
        let prob = EnforcedProblem::new(&chain, params, b.clone());
        let s = prob.solve().expect("feasible by construction");
        let oracle: Vec<f64> = bisection_chain_periods(&p, params, &b)
            .iter()
            .zip(p.service_times())
            .map(|(&x, t)| x.max(t))
            .collect();
        periods_agree(&s.periods, &oracle)?;
        prop_assert!(s.latency_bound <= params.deadline, "{} > {}", s.latency_bound, params.deadline);
        let kkt = prob.verify_kkt(&s.periods, active_tol(d_scale));
        prop_assert!(kkt.is_optimal(5e-3), "{kkt:?}");
    }

    #[test]
    fn exact_price_matches_bisection_on_dags(
        t in fan_in_dag(),
        tau_scale in 1.0..20.0f64,
        d_scale in d_just_above(),
    ) {
        let b = EnforcedProblem::optimistic_backlog(&t);
        let xmin = minimal_periods(&t);
        let tau0 = xmin[t.source()] * t.total_gains()[t.source()] / t.vector_width() as f64 * tau_scale;
        let min_d: f64 = xmin.iter().zip(&b).map(|(x, bi)| x * bi).sum();
        let params = RtParams::new(tau0, min_d * d_scale).unwrap();
        let prob = EnforcedProblem::new(&t, params, b.clone());
        let s = prob.solve().expect("feasible by construction");
        periods_agree(&s.periods, &bisection_dag_periods(&t, params, &b))?;
        prop_assert!(s.latency_bound <= params.deadline, "{} > {}", s.latency_bound, params.deadline);
        prop_assert!(prob.constraint_set().is_feasible(&s.periods, 1e-9 * params.deadline));
        // The projection is conservative at fan-ins, so it is not a KKT
        // point of the DAG program. The certificate goes to the interior
        // point, away from the degenerate corner at the smallest
        // deadline, and water-filling may not beat it.
        if d_scale >= 1.01 {
            let ip = prob.solve_interior_point().expect("feasible by construction");
            let kkt = prob.verify_kkt(&ip.periods, 1e-5);
            prop_assert!(kkt.is_optimal(5e-3), "{kkt:?}");
            prop_assert!(s.active_fraction >= ip.active_fraction * (1.0 - 1e-6));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn monolithic_breakpoint_matches_scan_on_chains(
        p in extreme_chain(),
        tau_scale in tau_scale(),
        d_scale in d_scale(),
        b in 1.0..2.0f64,
        s in 1.0..1.5f64,
    ) {
        breakpoint_matches_scan(&p, tau_scale, d_scale, b, s)?;
    }

    #[test]
    fn monolithic_breakpoint_matches_scan_on_dags(
        t in fan_in_dag(),
        tau_scale in tau_scale(),
        d_scale in d_scale(),
        b in 1.0..2.0f64,
        s in 1.0..1.5f64,
    ) {
        breakpoint_matches_scan(&t, tau_scale, d_scale, b, s)?;
    }

    #[test]
    fn monolithic_breakpoint_matches_scan_at_the_stability_floor(
        p in extreme_chain(),
        t in fan_in_dag(),
        tau_scale in 1.0 - 1e-6..1.0 + 1e-6,
        d_scale in d_scale(),
    ) {
        breakpoint_matches_scan(&p, tau_scale, d_scale, 1.0, 1.0)?;
        breakpoint_matches_scan(&t, tau_scale, d_scale, 1.0, 1.0)?;
    }
}

proptest! {
    // Each case solves 20+ points three ways on two models, scan included.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn monolithic_shared_table_matches_per_point_solves(
        p in extreme_chain(),
        t in fan_in_dag(),
        points in operating_points(),
        b in 1.0..2.0f64,
        s in 1.0..1.5f64,
    ) {
        shared_table_matches_per_point_solves(&p, &points, b, s)?;
        shared_table_matches_per_point_solves(&t, &points, b, s)?;
    }
}

/// Compare two sweeps' cells one by one, requiring bit-identical
/// feasibility and active fractions.
fn assert_sweeps_identical(a: &[CellResult], b: &[CellResult]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!((x.tau0, x.deadline), (y.tau0, y.deadline));
        prop_assert_eq!(x.enforced, y.enforced, "tau0={} D={}", x.tau0, x.deadline);
        prop_assert_eq!(
            x.monolithic,
            y.monolithic,
            "tau0={} D={}",
            x.tau0,
            x.deadline
        );
    }
    Ok(())
}

proptest! {
    // Sweeps run many solves per case; keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_sweep_bit_identical_to_sequential_on_random_grids(
        p in pipeline(),
        tau0s in prop::collection::vec(0.5..150.0f64, 0..=4),
        deadlines in prop::collection::vec(2e4..4e5f64, 0..=4),
    ) {
        // Random grid shapes include empty, 1×N, and N×1; random
        // operating points include infeasible cells. The work-stealing
        // scheduler must reproduce the cells solved one at a time, in
        // order, bit for bit.
        let config = SweepConfig {
            enforced_b: p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect(),
            monolithic_b: 1.0,
            monolithic_s: 1.0,
        };
        let t = Topology::chain(&p);
        let seq: Vec<CellResult> = tau0s
            .iter()
            .flat_map(|&tau0| deadlines.iter().map(move |&d| RtParams::new(tau0, d).unwrap()))
            .map(|params| compare_at(&t, params, &config))
            .collect();
        let par = sweep(&t, &tau0s, &deadlines, &config, None).expect("valid grid");
        assert_sweeps_identical(&seq, &par.cells)?;
    }
}
