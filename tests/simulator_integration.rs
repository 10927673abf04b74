//! Cross-crate integration: optimizer → simulator → measurement, the
//! paper's §6.2 loop at test scale.

use rtsdf::prelude::*;
use rtsdf::sim::calibration::{calibrate_enforced, CalibrationConfig};
use rtsdf::sim::validate::{enforced_agreement, monolithic_agreement};

const PAPER_B: [f64; 4] = [1.0, 3.0, 9.0, 6.0];

fn blast() -> PipelineSpec {
    rtsdf::blast::paper_pipeline()
}

#[test]
fn optimizer_and_simulator_agree_for_both_strategies() {
    // §6.2: "the active fractions measured in the simulator closely
    // matched those predicted by the optimizer for each approach and
    // set of parameters tested."
    let p = blast();
    let points = [
        RtParams::new(10.0, 1e5).unwrap(),
        RtParams::new(30.0, 2e5).unwrap(),
        RtParams::new(80.0, 3e5).unwrap(),
    ];
    let enforced = enforced_agreement(&p, &points, &PAPER_B, 8_000, 17);
    assert!(
        !enforced.cells.is_empty() && enforced.worst_rel_error() < 0.05,
        "enforced agreement: {:#?}",
        enforced.cells
    );
    // Monolithic blocks can hold thousands of items, so agreement needs
    // a stream many blocks long; use slower arrivals (smaller optimal
    // M) and a longer stream.
    let mono_points = [
        RtParams::new(30.0, 1e5).unwrap(),
        RtParams::new(60.0, 2e5).unwrap(),
        RtParams::new(80.0, 3e5).unwrap(),
    ];
    let mono = monolithic_agreement(&p, &mono_points, 1.0, 1.0, 20_000, 17);
    assert!(
        !mono.cells.is_empty() && mono.worst_rel_error() < 0.08,
        "monolithic agreement: {:#?}",
        mono.cells
    );
}

#[test]
fn paper_backlog_factors_are_low_miss_across_seeds() {
    // The paper's calibrated b = [1,3,9,6] gave no misses in ≥95% of
    // trials and <1% missed items otherwise. At test scale we check a
    // slightly weaker version of the same property.
    let p = blast();
    let params = RtParams::new(10.0, 1e5).unwrap();
    let sched = EnforcedProblem::new(&Topology::chain(&p), params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let report = run_seeds(&SimConfig::quick(10.0, 0, 5_000), 12, None, |c, h| {
        enforced::simulate(&Topology::chain(&p), &sched, params.deadline, c, h)
    })
    .unwrap();
    assert!(
        report.miss_free_fraction() >= 0.75,
        "miss-free fraction {}",
        report.miss_free_fraction()
    );
    assert!(
        report.worst_miss_rate() < 0.01,
        "worst miss rate {}",
        report.worst_miss_rate()
    );
}

#[test]
fn optimistic_backlog_factors_miss_more_than_calibrated() {
    // §6.2's starting point b_i = ⌈g_i⌉ was optimistic: it produced
    // frequent misses, which is what drove the calibration. Verify the
    // direction of that effect.
    let p = blast();
    let params = RtParams::new(5.0, 4e4).unwrap();
    let optimistic = EnforcedProblem::optimistic_backlog(&Topology::chain(&p));
    let opt_sched = EnforcedProblem::new(&Topology::chain(&p), params, optimistic)
        .solve()
        .unwrap();
    let cal_sched = EnforcedProblem::new(&Topology::chain(&p), params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let cfg = SimConfig::quick(5.0, 0, 8_000);
    let opt = run_seeds(&cfg, 10, None, |c, h| {
        enforced::simulate(&Topology::chain(&p), &opt_sched, params.deadline, c, h)
    })
    .unwrap();
    let cal = run_seeds(&cfg, 10, None, |c, h| {
        enforced::simulate(&Topology::chain(&p), &cal_sched, params.deadline, c, h)
    })
    .unwrap();
    assert!(
        opt.miss_free_fraction() <= cal.miss_free_fraction(),
        "optimistic {} vs calibrated {}",
        opt.miss_free_fraction(),
        cal.miss_free_fraction()
    );
    // And the calibrated design pays for safety with a higher active
    // fraction (waits must shrink to absorb the larger latency bound).
    assert!(cal_sched.active_fraction >= opt_sched.active_fraction - 1e-12);
}

#[test]
fn monolithic_nearly_miss_free_at_b1_s1() {
    // §6.2 reports no misses for the monolithic strategy even at
    // b = 1, S = 1. Our optimizer saturates the latency bound exactly
    // (the paper's Fig. 2 as stated), so sampled gain variance can push
    // a block's processing a hair past the bound — we observe rare
    // misses (worst ≈ 0.1% of items), comfortably inside the paper's
    // "fewer than 1%" regime. A tiny safety margin (S = 1.1) removes
    // them entirely, recovering the paper's observation.
    let p = blast();
    for (tau0, d) in [(30.0, 1e5), (60.0, 2e5)] {
        let params = RtParams::new(tau0, d).unwrap();
        let sched = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve()
            .unwrap();
        let report = run_seeds(&SimConfig::quick(tau0, 0, 5_000), 8, None, |c, h| {
            monolithic::simulate(&Topology::chain(&p), &sched, params.deadline, c, h)
        })
        .unwrap();
        assert!(
            report.worst_miss_rate() < 0.01,
            "tau0={tau0}, D={d}: worst rate {}",
            report.worst_miss_rate()
        );

        let safe = MonolithicProblem::new(&p, params, 1.0, 1.1)
            .solve()
            .unwrap();
        let safe_report = run_seeds(&SimConfig::quick(tau0, 0, 5_000), 8, None, |c, h| {
            monolithic::simulate(&Topology::chain(&p), &safe, params.deadline, c, h)
        })
        .unwrap();
        assert_eq!(
            safe_report.miss_free_fraction(),
            1.0,
            "S = 1.1 should be miss-free; worst rate {}",
            safe_report.worst_miss_rate()
        );
    }
}

#[test]
fn calibration_loop_reaches_target_and_beats_start() {
    let p = blast();
    let grid = vec![RtParams::new(8.0, 8e4).unwrap()];
    let result = calibrate_enforced(&p, &CalibrationConfig::quick(grid)).unwrap();
    assert!(result.converged, "{:?}", result.rounds);
    let last = result.rounds.last().unwrap();
    assert!(last.worst_miss_free >= 0.95);
    // Factors grew beyond the optimistic start if the start was failing.
    if result.rounds.len() > 1 {
        let first = &result.rounds[0];
        assert!(first.worst_miss_free < 0.95);
        assert!(result.b.iter().sum::<f64>() > first.b.iter().sum::<f64>());
    }
}

#[test]
fn empty_firings_metric_ordering() {
    // The "vacation" accounting never exceeds the charged accounting.
    let p = blast();
    let params = RtParams::new(50.0, 2e5).unwrap();
    let sched = EnforcedProblem::new(&Topology::chain(&p), params, PAPER_B.to_vec())
        .solve()
        .unwrap();
    let (t, cfg) = (Topology::chain(&p), SimConfig::quick(50.0, 2, 3_000));
    let m = enforced::simulate(&t, &sched, params.deadline, &cfg, Hooks::default()).unwrap();
    assert!(m.active_fraction_nonempty <= m.active_fraction + 1e-12);
    // At τ0=50 the tail stages see little traffic: some firings must be
    // empty, so the two metrics genuinely differ.
    assert!(
        m.active_fraction_nonempty < m.active_fraction,
        "expected empty firings at a slow arrival rate"
    );
}
