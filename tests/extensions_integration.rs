//! Integration tests for the beyond-the-paper extensions: flexible
//! shares, co-scheduling, schedulability frontiers, firing timelines,
//! and the vacation discipline — exercised together through the facade.

use rtsdf::core::coschedule::{admit, max_replicas, Workload};
use rtsdf::core::flexible::{with_service_times, FlexibleSharesProblem};
use rtsdf::core::frontier::{enforced_min_deadline, enforced_min_tau0, monolithic_min_deadline};
use rtsdf::core::{check_feasibility, FeasibilityError};
use rtsdf::prelude::*;
use rtsdf::sim::config::FiringDiscipline;
use rtsdf::sim::timeline::{record_timeline, render_ascii};

const PAPER_B: [f64; 4] = [1.0, 3.0, 9.0, 6.0];

fn blast() -> Topology {
    Topology::chain(&rtsdf::blast::paper_pipeline())
}

#[test]
fn frontier_flexible_and_equal_share_orders() {
    // Frontier chain: flexible minimum < equal-share minimum, and the
    // equal-share frontier matches the closed form.
    let p = blast();
    let tau0 = 10.0;
    let equal_min = enforced_min_deadline(&p, &PAPER_B, tau0).unwrap();
    // Analytic flexible minimum: (Σ √(c_i·b_i))² at utilization 1.
    let c: Vec<f64> = p.service_times().iter().map(|t| t / 4.0).collect();
    let flex_min: f64 = c
        .iter()
        .zip(&PAPER_B)
        .map(|(&ci, &bi)| (ci * bi).sqrt())
        .sum::<f64>()
        .powi(2);
    assert!(flex_min < equal_min);
    // Flexible schedules just above its analytic minimum...
    let params = RtParams::new(tau0, flex_min * 1.02).unwrap();
    assert!(FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec())
        .solve()
        .is_ok());
    // ...and not below it.
    let params = RtParams::new(tau0, flex_min * 0.98).unwrap();
    assert!(FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec())
        .solve()
        .is_err());
}

#[test]
fn frontier_respects_both_axes() {
    let p = blast();
    // The arrival-rate wall.
    assert!(enforced_min_deadline(&p, &PAPER_B, enforced_min_tau0(&p) * 0.9).is_none());
    // Monolithic frontier exists only above its rate wall.
    assert!(monolithic_min_deadline(&p, 1.0, 1.0, 5.0, 50_000).is_none());
    assert!(monolithic_min_deadline(&p, 1.0, 1.0, 20.0, 50_000).is_some());
}

#[test]
fn coscheduling_composes_with_the_frontier() {
    // A workload right at its feasibility frontier consumes ~the whole
    // device; two of them cannot be admitted.
    let p = blast();
    let tau0 = 10.0;
    let d_min = enforced_min_deadline(&p, &PAPER_B, tau0).unwrap();
    let w = Workload {
        topology: &p,
        params: RtParams::new(tau0, d_min * 1.05).unwrap(),
        b: PAPER_B.to_vec(),
    };
    let n = max_replicas(&w).unwrap();
    assert!(
        n <= 2,
        "near-frontier workloads are expensive: {n} replicas"
    );
    // A relaxed workload co-schedules with it if capacity remains.
    let relaxed = Workload {
        topology: &p,
        params: RtParams::new(50.0, 3e5).unwrap(),
        b: PAPER_B.to_vec(),
    };
    let single = admit(std::slice::from_ref(&relaxed)).unwrap();
    assert!(single.total_utilization < 0.2);
}

#[test]
fn flexible_schedule_simulates_within_its_deadline() {
    let p = blast();
    let params = RtParams::new(10.0, 2.2e4).unwrap(); // below equal-share min
    let sched = FlexibleSharesProblem::new(&p, params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let realized = with_service_times(&p, &sched.service_times);
    let ws = WaitSchedule {
        waits: vec![0.0; p.len()],
        periods: sched.periods.clone(),
        active_fraction: sched.utilization,
        backlog_factors: PAPER_B.to_vec(),
        latency_bound: sched.latency_bound,
        telemetry: None,
    };
    let report = run_seeds(&SimConfig::quick(10.0, 0, 5_000), 8, None, |c, h| {
        enforced::simulate(&realized, &ws, params.deadline, c, h)
    })
    .unwrap();
    assert!(
        report.miss_free_fraction() >= 0.75,
        "flexible schedule below the equal-share frontier should still be miss-free-ish: {}",
        report.miss_free_fraction()
    );
}

#[test]
fn timeline_reflects_the_optimized_waits() {
    let p = blast();
    let params = RtParams::new(10.0, 1e5).unwrap();
    let sched = EnforcedProblem::new(&p, params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let tl = record_timeline(&p, &sched, 1e5, &SimConfig::quick(10.0, 1, 2_000), 30_000.0).unwrap();
    for node in 0..p.len() {
        let mean = tl.mean_period(node).expect("several firings in the window");
        assert!(
            (mean - sched.periods[node].round()).abs() <= 1.0,
            "node {node}: timeline period {mean} vs schedule {}",
            sched.periods[node]
        );
    }
    let art = render_ascii(&tl, 80);
    assert_eq!(art.lines().count(), p.len() + 1);
}

#[test]
fn vacation_discipline_is_a_pure_win_at_slow_rates() {
    let t = blast();
    let params = RtParams::new(80.0, 3e5).unwrap();
    let sched = EnforcedProblem::new(&t, params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let mut strict = SimConfig::quick(80.0, 2, 3_000);
    let mut vacation = strict.clone();
    vacation.discipline = FiringDiscipline::Vacation;
    let sm = enforced::simulate(&t, &sched, params.deadline, &strict, Hooks::default()).unwrap();
    let vm = enforced::simulate(&t, &sched, params.deadline, &vacation, Hooks::default()).unwrap();
    assert!(
        vm.active_fraction < sm.active_fraction,
        "{} vs {}",
        vm.active_fraction,
        sm.active_fraction
    );
    assert!(vm.latency.mean() <= sm.latency.mean() + 1e-9);
    assert!(vm.miss_rate() <= sm.miss_rate() + 1e-12);
    // And the strict run's *vacation metric* equals roughly what the
    // vacation run actually charges.
    let rel =
        (sm.active_fraction_nonempty - vm.active_fraction).abs() / vm.active_fraction.max(1e-12);
    assert!(
        rel < 0.35,
        "vacation metric {} vs realized {}",
        sm.active_fraction_nonempty,
        vm.active_fraction
    );
    strict.seed = 3;
    vacation.seed = 3;
    let sm2 = enforced::simulate(&t, &sched, params.deadline, &strict, Hooks::default()).unwrap();
    let vm2 = enforced::simulate(&t, &sched, params.deadline, &vacation, Hooks::default()).unwrap();
    assert_eq!(sm2.items_completed, vm2.items_completed);
}

/// The logalytics DAG (fan-out and fan-in) the CI gates run.
fn logalytics() -> Topology {
    rtsdf::apps::logalytics::synthesize(&rtsdf::apps::logalytics::LogalyticsConfig::default(), 7)
        .expect("valid synthesis")
}

#[test]
fn enforced_frontier_is_exact_on_a_dag() {
    // The DAG form of the chain frontier check: just above the analytic
    // minimum deadline the point is feasible, just below it is not.
    let t = logalytics();
    assert!(t.as_chain().is_none(), "logalytics is not a chain");
    let b = EnforcedProblem::optimistic_backlog(&t);
    let tau0_min = enforced_min_tau0(&t);
    for tau0 in [tau0_min, 1.5 * tau0_min, 40.0_f64.max(tau0_min)] {
        let d_min = enforced_min_deadline(&t, &b, tau0).expect("sustainable rate");
        let at = |d: f64| check_feasibility(&t, &RtParams::new(tau0, d).unwrap(), &b);
        assert!(at(d_min * (1.0 + 1e-9)).is_ok(), "tau0={tau0}, d={d_min}");
        assert!(
            matches!(
                at(d_min * (1.0 - 1e-9)),
                Err(FeasibilityError::DeadlineTooTight { .. })
            ),
            "tau0={tau0}, d={d_min}"
        );
    }
    // Below the arrival-rate wall there is no frontier at all.
    assert!(enforced_min_deadline(&t, &b, tau0_min * 0.99).is_none());
    assert!(matches!(
        check_feasibility(&t, &RtParams::new(tau0_min * 0.99, 1e9).unwrap(), &b),
        Err(FeasibilityError::ArrivalRateTooHigh { .. })
    ));
}

#[test]
fn flexible_shares_never_worse_than_equal_shares_on_a_dag() {
    let t = logalytics();
    let b = EnforcedProblem::optimistic_backlog(&t);
    let tau0 = 40.0;
    let d_min = enforced_min_deadline(&t, &b, tau0).expect("sustainable rate");
    for slack in [1.05, 1.5, 3.0, 10.0] {
        let params = RtParams::new(tau0, d_min * slack).unwrap();
        let prob = FlexibleSharesProblem::new(&t, params, b.clone());
        let equal = prob
            .equal_share_baseline()
            .expect("feasible above the frontier");
        let flexible = prob.solve().expect("flexible is feasible where equal is");
        assert!(
            flexible.utilization <= equal + 1e-6,
            "D = {:.0}: flexible {} vs equal {equal}",
            params.deadline,
            flexible.utilization
        );
        assert!(flexible.shares.iter().sum::<f64>() <= 1.0 + 1e-9);
    }
}
