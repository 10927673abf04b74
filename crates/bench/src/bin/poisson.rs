//! Experiment E10 (extension) — Poisson arrivals.
//!
//! The paper assumes a fixed arrival rate and notes (§7) that Poisson
//! arrivals are "a reasonable generalization". This binary quantifies
//! what that generalization costs: the same enforced-waits schedules
//! are simulated under periodic and Poisson arrivals of equal mean
//! rate, and the backlog factors are recalibrated under Poisson
//! arrivals.
//!
//! ```text
//! cargo run --release -p bench --bin poisson
//! ```

use rtsdf::model::ArrivalProcess;
use rtsdf::prelude::*;
use rtsdf::sim::calibration::{calibrate_enforced, CalibrationConfig};

fn main() {
    let p = rtsdf::blast::paper_pipeline();
    let t = Topology::chain(&p);
    let b = vec![1.0, 3.0, 9.0, 6.0];

    println!("periodic vs Poisson arrivals under the paper-calibrated b = {b:?}");
    println!();
    let mut rows = Vec::new();
    for (tau0, d) in [(5.0, 2.6e4), (10.0, 3e4), (10.0, 1e5)] {
        let params = RtParams::new(tau0, d).unwrap();
        let sched = EnforcedProblem::new(&t, params, b.clone())
            .solve()
            .expect("feasible");
        let mut stats = Vec::new();
        for arrivals in [
            ArrivalProcess::Periodic { tau0 },
            ArrivalProcess::Poisson { tau0 },
        ] {
            let mut cfg = SimConfig::quick(tau0, 0, 10_000);
            cfg.arrivals = arrivals;
            let report = run_seeds(&cfg, 12, None, |c, h| {
                enforced::simulate(&t, &sched, d, c, h)
            })
            .expect("the schedule fits the pipeline");
            stats.push((report.miss_free_fraction(), report.worst_miss_rate()));
        }
        rows.push(vec![
            format!("{tau0:.0}"),
            format!("{d:.0}"),
            format!("{:.2} / {:.4}%", stats[0].0, 100.0 * stats[0].1),
            format!("{:.2} / {:.4}%", stats[1].0, 100.0 * stats[1].1),
        ]);
    }
    print!(
        "{}",
        bench::render_table(
            &[
                "tau0",
                "D",
                "periodic (miss-free / worst rate)",
                "poisson (miss-free / worst rate)"
            ],
            &rows
        )
    );

    // Recalibrate under Poisson arrivals.
    println!();
    println!("recalibrating the backlog factors under Poisson arrivals...");
    let grid = vec![
        RtParams::new(5.0, 2.6e4).unwrap(),
        RtParams::new(10.0, 3e4).unwrap(),
    ];
    let mut config = CalibrationConfig::quick(grid);
    config.seeds_per_point = 12;
    config.stream_length = 8_000;
    // The quick config simulates with periodic arrivals by default; the
    // calibration loop itself is arrival-agnostic, so we emulate the
    // Poisson study by bumping the targets through direct simulation:
    let result = calibrate_enforced(&t, &config).unwrap_or_else(|e| {
        eprintln!("calibration failed: {e}");
        std::process::exit(1);
    });
    println!("  periodic-arrivals calibration: b = {:?}", result.b);

    // Poisson check at the periodic-calibrated factors, then escalate by
    // hand until miss-free, reporting the gap.
    let mut b_poisson = result.b.clone();
    for round in 0..8 {
        let mut worst: f64 = 1.0;
        let mut observed = vec![0.0_f64; p.len()];
        for params in [
            RtParams::new(5.0, 2.6e4).unwrap(),
            RtParams::new(10.0, 3e4).unwrap(),
        ] {
            let Ok(sched) = EnforcedProblem::new(&t, params, b_poisson.clone()).solve() else {
                continue;
            };
            let mut cfg = SimConfig::quick(params.tau0, 0, 8_000);
            cfg.arrivals = ArrivalProcess::Poisson { tau0: params.tau0 };
            let report = run_seeds(&cfg, 12, None, |c, h| {
                enforced::simulate(&t, &sched, params.deadline, c, h)
            })
            .expect("the schedule fits the pipeline");
            worst = worst.min(report.miss_free_fraction());
            for (o, &x) in observed.iter_mut().zip(&report.max_backlog_vectors()) {
                *o = o.max(x);
            }
        }
        println!("  poisson round {round}: b = {b_poisson:?}, worst miss-free {worst:.2}");
        if worst >= 0.95 {
            break;
        }
        for (bi, &oi) in b_poisson.iter_mut().zip(&observed) {
            *bi = bi.max(oi.ceil());
        }
    }
    println!();
    if b_poisson
        .iter()
        .zip(&result.b)
        .any(|(pois, per)| pois > per)
    {
        println!(
            "conclusion: Poisson arrivals need b >= {b_poisson:?} vs periodic {:?} — burstier\n\
             input inflates worst-case queues, as the paper's queueing outlook predicts",
            result.b
        );
    } else {
        println!(
            "conclusion: at these operating points the periodic-calibrated b = {:?} already\n\
             absorbs Poisson variability (the deadline slack dominates arrival jitter)",
            result.b
        );
    }
}
