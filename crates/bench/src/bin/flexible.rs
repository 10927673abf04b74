//! Experiment E9 (extension) — flexible processor shares (§7 future
//! work: "more coarse-grained division of processor time").
//!
//! Compares processor utilization of the paper's equal-share
//! enforced-waits scheme against the flexible-share generalization
//! across deadlines, and validates the flexible schedules' deadline
//! behaviour in simulation.
//!
//! ```text
//! cargo run --release -p bench --bin flexible
//! ```

use rtsdf::core::flexible::{with_service_times, FlexibleSharesProblem};
use rtsdf::prelude::*;

fn main() {
    let p = rtsdf::blast::paper_pipeline();
    let b = vec![1.0, 3.0, 9.0, 6.0];
    let tau0 = 10.0;

    println!("equal vs flexible processor shares on the BLAST pipeline (tau0 = {tau0})");
    println!("(utilization = fraction of the whole processor consumed; lower is better)");
    println!();
    let mut rows = Vec::new();
    for d in [1.7e4, 2e4, 2.5e4, 3e4, 5e4, 1e5, 2e5, 3.5e5] {
        let params = RtParams::new(tau0, d).unwrap();
        let prob = FlexibleSharesProblem::new(&p, params, b.clone());
        let equal = prob.equal_share_baseline().ok();
        let flexible = prob.solve().ok().map(|s| s.utilization);
        rows.push(vec![
            format!("{d:.0}"),
            equal.map_or("infeasible".into(), |v| format!("{v:.4}")),
            flexible.map_or("infeasible".into(), |v| format!("{v:.4}")),
            match (equal, flexible) {
                (Some(e), Some(f)) => format!("{:+.1}%", 100.0 * (f - e) / e),
                (None, Some(_)) => "flexible only".into(),
                _ => "-".into(),
            },
        ]);
    }
    print!(
        "{}",
        bench::render_table(&["D", "equal shares", "flexible shares", "delta"], &rows)
    );

    // Validate one tight-deadline flexible schedule in simulation: build
    // the realized pipeline (service time = full period under the
    // chosen share) and check misses.
    println!();
    let d = 2.5e4;
    let params = RtParams::new(tau0, d).unwrap();
    let sched = FlexibleSharesProblem::new(&p, params, b.clone())
        .solve()
        .expect("feasible");
    println!(
        "flexible schedule at D = {d:.0}: shares {:?}",
        sched
            .shares
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    let realized = with_service_times(&p, &sched.service_times);
    let wait_schedule = WaitSchedule {
        waits: vec![0.0; p.len()],
        periods: sched.periods.clone(),
        active_fraction: sched.utilization,
        backlog_factors: b,
        latency_bound: sched.latency_bound,
        telemetry: None,
    };
    let realized = Topology::chain(&realized);
    let report = run_seeds(&SimConfig::quick(tau0, 0, 10_000), 10, None, |c, h| {
        enforced::simulate(&realized, &wait_schedule, d, c, h)
    })
    .expect("the schedule fits the pipeline");
    println!(
        "simulated 10 seeds x 10k items: miss-free {:.0}%, worst miss rate {:.3}%",
        100.0 * report.miss_free_fraction(),
        100.0 * report.worst_miss_rate()
    );
}
