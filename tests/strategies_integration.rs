//! Cross-crate integration: the optimizers, the KKT verifier, and the
//! queueing-theory estimator working together on the BLAST pipeline.

use rtsdf::prelude::*;
use rtsdf::queueing::estimate::{estimate_backlog_factors, EstimateConfig};

const PAPER_B: [f64; 4] = [1.0, 3.0, 9.0, 6.0];

fn blast() -> PipelineSpec {
    rtsdf::blast::paper_pipeline()
}

#[test]
fn both_solvers_agree_and_certify_across_the_grid() {
    let t = Topology::chain(&blast());
    let (tau0s, ds) = RtParams::paper_grid(5, 4);
    let mut solved = 0;
    for &tau0 in &tau0s {
        for &d in &ds {
            let params = RtParams::new(tau0, d).unwrap();
            let prob = EnforcedProblem::new(&t, params, PAPER_B.to_vec());
            let wf = prob.solve();
            let ip = prob.solve_interior_point();
            match (wf, ip) {
                (Ok(wf), Ok(ip)) => {
                    solved += 1;
                    assert!(
                        (wf.active_fraction - ip.active_fraction).abs() < 1e-4,
                        "solver mismatch at tau0={tau0} D={d}: {} vs {}",
                        wf.active_fraction,
                        ip.active_fraction
                    );
                    let kkt = prob.verify_kkt(&wf.periods, 1e-5);
                    assert!(
                        kkt.is_optimal(1e-3),
                        "KKT failure at tau0={tau0} D={d}: {kkt:?}"
                    );
                }
                (Err(_), Err(_)) => {} // consistently infeasible
                (wf, ip) => {
                    panic!("feasibility disagreement at tau0={tau0} D={d}: {wf:?} vs {ip:?}")
                }
            }
        }
    }
    assert!(solved >= 8, "too few feasible grid cells solved: {solved}");
}

#[test]
fn enforced_waits_schedule_is_reproducible() {
    let p = blast();
    let params = RtParams::new(10.0, 1e5).unwrap();
    let s1 = EnforcedProblem::new(&Topology::chain(&p), params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let s2 = EnforcedProblem::new(&Topology::chain(&p), params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    assert_eq!(s1.periods, s2.periods);
    assert_eq!(s1.active_fraction, s2.active_fraction);
}

#[test]
fn queueing_estimates_reasonable_versus_paper_calibration() {
    // The paper's empirically calibrated factors are b = [1, 3, 9, 6].
    // The a-priori estimator should produce factors of the same scale
    // (within small integers, not orders of magnitude) for a schedule
    // that is deadline-bound.
    let p = blast();
    let params = RtParams::new(10.0, 3e4).unwrap();
    let sched = EnforcedProblem::new(&Topology::chain(&p), params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let est = estimate_backlog_factors(&p, &sched.periods, params.tau0, &EstimateConfig::default());
    for (i, e) in est.iter().enumerate() {
        assert!(
            e.b >= 1.0 && e.b <= 16.0,
            "node {i}: a-priori b = {} out of plausible range",
            e.b
        );
    }
}

#[test]
fn monolithic_and_enforced_feasibility_boundaries() {
    let p = blast();
    // Enforced head-stability limit: x̂_0/v ≈ 2.83 cycles.
    let below = RtParams::new(2.0, 1e9).unwrap();
    let above = RtParams::new(3.0, 1e9).unwrap();
    assert!(
        EnforcedProblem::new(&Topology::chain(&p), below, PAPER_B.to_vec())
            .solve()
            .is_err()
    );
    assert!(
        EnforcedProblem::new(&Topology::chain(&p), above, PAPER_B.to_vec())
            .solve()
            .is_ok()
    );
    // Monolithic stability limit: Σ G_i·t_i / v ≈ 7.9 cycles.
    let below = RtParams::new(7.0, 3.5e5).unwrap();
    let above = RtParams::new(9.0, 3.5e5).unwrap();
    assert!(MonolithicProblem::new(&p, below, 1.0, 1.0).solve().is_err());
    assert!(MonolithicProblem::new(&p, above, 1.0, 1.0).solve().is_ok());
}

#[test]
fn monolithic_fast_and_exact_agree_across_grid() {
    let p = blast();
    let (tau0s, ds) = RtParams::paper_grid(4, 4);
    for &tau0 in &tau0s {
        for &d in &ds {
            let params = RtParams::new(tau0, d).unwrap();
            let prob = MonolithicProblem::new(&p, params, 1.0, 1.0);
            match (prob.solve(), prob.solve_fast()) {
                (Ok(a), Ok(b)) => assert!(
                    (a.active_fraction - b.active_fraction).abs() < 1e-9,
                    "tau0={tau0} D={d}: {} vs {}",
                    a.active_fraction,
                    b.active_fraction
                ),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("tau0={tau0} D={d}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn wait_schedules_serialize_roundtrip() {
    let p = blast();
    let params = RtParams::new(10.0, 1e5).unwrap();
    let s = EnforcedProblem::new(&Topology::chain(&p), params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let json = serde_json::to_string(&s).unwrap();
    let back: WaitSchedule = serde_json::from_str(&json).unwrap();
    // serde_json's default float parsing may be off by one ulp (exact
    // roundtrip is behind its `float_roundtrip` feature), so compare to
    // a tight tolerance instead of bitwise.
    for (a, b) in s.periods.iter().zip(&back.periods) {
        assert!((a - b).abs() <= a.abs() * 1e-15, "{a} vs {b}");
    }
    assert!((s.active_fraction - back.active_fraction).abs() < 1e-12);
}
