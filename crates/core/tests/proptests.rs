//! Property-based tests for the scheduling strategies: solver agreement,
//! feasibility, and KKT certification on randomized pipelines.

use dataflow_model::analysis::block_time;
use dataflow_model::{
    GainModel, PipelineSpec, PipelineSpecBuilder, RtParams, Topology, TopologyBuilder,
};
use proptest::prelude::*;
use rtsdf_core::comparison::{
    sweep, sweep_parallel, sweep_parallel_with, sweep_with, SweepConfig, SweepOptions,
};
use rtsdf_core::feasibility::minimal_periods;
use rtsdf_core::kkt::verify_kkt;
use rtsdf_core::monolithic::BlockModel;
use rtsdf_core::{EnforcedWaitsProblem, MonolithicProblem, SolveMethod, WarmStart};

/// Two-point empirical law with mean `gain`: stresses the Empirical code
/// path rather than only Bernoulli.
fn two_point(gain: f64) -> GainModel {
    let k = gain.ceil().max(1.0) as u32;
    let p_hi = gain / k as f64;
    GainModel::Empirical {
        pmf: vec![(0, 1.0 - p_hi), (k, p_hi)],
    }
}

/// A random pipeline with strictly positive mean gains (so both Fig.-1
/// solution methods apply).
fn pipeline() -> impl Strategy<Value = PipelineSpec> {
    prop::collection::vec((10.0..2000.0f64, 0.1..3.0f64), 2..=6).prop_map(|stages| {
        let mut b = PipelineSpecBuilder::new(64);
        for (i, (t, gain)) in stages.into_iter().enumerate() {
            b = b.stage(format!("s{i}"), t, two_point(gain));
        }
        b.build().expect("valid")
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
    let (v, t, g) = model.block_model();
    let limit = t.iter().zip(&g).map(|(t, g)| t * g).sum::<f64>() / v as f64;
    let tau0 = limit * tau_scale;
    // The smallest feasible deadline is the latency bound at the first
    // stable block size.
    let d_min = (1..=MAX_M)
        .find(|&m| block_time(v, &t, &g, m) <= m as f64 * tau0)
        .map_or(f64::INFINITY, |m| {
            b * m as f64 * tau0 + s * block_time(v, &t, &g, m)
        });
    let d = (d_min * d_scale).min(MAX_M as f64 * b * tau0);
    let prob = MonolithicProblem::new(model, RtParams::new(tau0, d).unwrap(), b, s);
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

/// A feasible operating point + factors for the given pipeline, derived
/// from its minimal periods.
fn feasible_point(p: &PipelineSpec, tau_scale: f64, d_scale: f64) -> Option<(RtParams, Vec<f64>)> {
    let b: Vec<f64> = p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect();
    let xmin = minimal_periods(p);
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
        let prob = EnforcedWaitsProblem::new(&p, params, b);
        let wf = prob.solve(SolveMethod::WaterFilling).expect("feasible by construction");
        let ip = prob.solve(SolveMethod::InteriorPoint).expect("feasible by construction");
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
        let prob = EnforcedWaitsProblem::new(&p, params, b);
        let s = prob.solve(SolveMethod::WaterFilling).expect("feasible by construction");
        let cs = prob.constraint_set();
        prop_assert!(cs.is_feasible(&s.periods, 1e-6 * params.deadline.max(1.0)));
        prop_assert!(s.waits.iter().all(|&w| w >= 0.0));
        let kkt = verify_kkt(&prob, &s.periods, 1e-5);
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
        let loose = EnforcedWaitsProblem::new(&p, params_loose, b.clone())
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        let tight = EnforcedWaitsProblem::new(&p, params_tight, b)
            .solve(SolveMethod::WaterFilling)
            .unwrap();
        prop_assert!(loose.active_fraction <= tight.active_fraction + 1e-9);
    }

    #[test]
    fn minimal_periods_are_componentwise_minimal(
        p in pipeline(),
        inflate in prop::collection::vec(1.0..4.0f64, 6),
    ) {
        // Any feasible period vector (built by inflating x̂ upstream-first
        // so the chain constraints stay satisfied) dominates x̂.
        let xmin = minimal_periods(&p);
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
    fn warm_started_solves_converge_to_cold_schedule(
        p in pipeline(),
        tau_scale in 1.05..20.0f64,
        d_scale in 1.2..20.0f64,
        hint_scale in 1.05..2.0f64,
    ) {
        // A warm start seeded from a *different* operating point's
        // schedule must land on the same optimum as a cold solve, for
        // both Fig.-1 methods.
        let Some((params, b)) = feasible_point(&p, tau_scale, d_scale) else {
            return Ok(());
        };
        let Some((hint_params, _)) = feasible_point(&p, tau_scale, d_scale * hint_scale) else {
            return Ok(());
        };
        let hint_sched = EnforcedWaitsProblem::new(&p, hint_params, b.clone())
            .solve(SolveMethod::WaterFilling)
            .expect("feasible by construction");
        let hint = WarmStart::from_schedule(&hint_sched);
        for method in [SolveMethod::WaterFilling, SolveMethod::InteriorPoint] {
            let prob = EnforcedWaitsProblem::new(&p, params, b.clone());
            let cold = prob.solve(method).expect("feasible by construction");
            let warm = prob.solve_warm(method, &hint).expect("warm solve succeeds");
            prop_assert!(
                (cold.active_fraction - warm.active_fraction).abs()
                    <= 1e-4 * cold.active_fraction.max(1e-9),
                "{method:?}: cold {} vs warm {}",
                cold.active_fraction,
                warm.active_fraction
            );
            for (c, w) in cold.periods.iter().zip(&warm.periods) {
                prop_assert!(
                    (c - w).abs() <= 1e-3 * c.abs().max(1.0),
                    "{method:?}: periods {c} vs {w}"
                );
            }
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
}

/// Compare two sweep results cell by cell, requiring bit-identical
/// feasibility and active fractions.
fn assert_sweeps_identical(
    a: &rtsdf_core::comparison::SweepResult,
    b: &rtsdf_core::comparison::SweepResult,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cells.len(), b.cells.len());
    for (x, y) in a.cells.iter().zip(&b.cells) {
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
        // scheduler must reproduce the sequential sweep bit for bit,
        // cold and warm alike.
        let config = SweepConfig {
            enforced_b: p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect(),
            monolithic_b: 1.0,
            monolithic_s: 1.0,
        };
        let seq = sweep(&p, &tau0s, &deadlines, &config).expect("valid grid");
        let par = sweep_parallel(&p, &tau0s, &deadlines, &config).expect("valid grid");
        assert_sweeps_identical(&seq, &par)?;
        let opts = SweepOptions::warm();
        let warm_seq = sweep_with(&p, &tau0s, &deadlines, &config, &opts).expect("valid grid");
        let warm_par =
            sweep_parallel_with(&p, &tau0s, &deadlines, &config, &opts).expect("valid grid");
        assert_sweeps_identical(&warm_seq, &warm_par)?;
    }
}
