//! Flexible processor shares: the §7 future-work extension.
//!
//! The paper fixes each node's processor share at 1/N. This example
//! shows what giving the scheduler control over the shares buys: a
//! wider feasible region (deadlines below the equal-share minimum) and
//! lower utilization at tight deadlines — and that the two designs
//! coincide once deadline slack is plentiful.
//!
//! Run with:
//! ```text
//! cargo run --release -p rtsdf --example flexible_shares
//! ```

use rtsdf::core::flexible::{with_service_times, FlexibleSharesProblem};
use rtsdf::core::frontier::enforced_min_deadline;
use rtsdf::prelude::*;

fn main() {
    let pipeline = Topology::chain(&rtsdf::blast::paper_pipeline());
    let b = vec![1.0, 3.0, 9.0, 6.0];
    let tau0 = 10.0;

    let equal_min = enforced_min_deadline(&pipeline, &b, tau0).expect("sustainable rate");
    println!("BLAST pipeline at tau0 = {tau0} cycles/item");
    println!("equal-share (paper) minimum feasible deadline: {equal_min:.0} cycles");
    println!();

    println!(
        "{:>9}  {:>14}  {:>16}  {:>30}",
        "D", "equal shares", "flexible shares", "flexible share split"
    );
    for d in [1.7e4, 2.0e4, equal_min * 1.02, 3e4, 6e4, 1.5e5] {
        let params = RtParams::new(tau0, d).unwrap();
        let prob = FlexibleSharesProblem::new(&pipeline, params, b.clone());
        let equal = prob.equal_share_baseline().ok();
        let flexible = prob.solve().ok();
        println!(
            "{d:>9.0}  {:>14}  {:>16}  {:>30}",
            equal.map_or("infeasible".into(), |v| format!("{v:.4}")),
            flexible
                .as_ref()
                .map_or("infeasible".into(), |s| format!("{:.4}", s.utilization)),
            flexible.as_ref().map_or("-".into(), |s| format!(
                "{:?}",
                s.shares
                    .iter()
                    .map(|x| (x * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            )),
        );
    }

    // Validate a below-equal-minimum flexible schedule in simulation.
    let d = 2.0e4;
    let params = RtParams::new(tau0, d).unwrap();
    let sched = FlexibleSharesProblem::new(&pipeline, params, b.clone())
        .solve()
        .expect("feasible for flexible shares");
    println!();
    println!("at D = {d:.0} (below the equal-share minimum!) the flexible design gives each");
    println!(
        "stage exactly its period as service time; shares: {:?}",
        sched
            .shares
            .iter()
            .map(|x| (x * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );
    let realized = with_service_times(&pipeline, &sched.service_times);
    let wait_schedule = WaitSchedule {
        waits: vec![0.0; pipeline.len()],
        periods: sched.periods.clone(),
        active_fraction: sched.utilization,
        backlog_factors: b,
        latency_bound: sched.latency_bound,
        telemetry: None,
    };
    let report = run_seeds(&SimConfig::quick(tau0, 0, 8_000), 8, None, |c, h| {
        enforced::simulate(&realized, &wait_schedule, d, c, h)
    })
    .expect("the schedule fits the pipeline");
    println!(
        "simulated 8 seeds x 8k items: miss-free {:.0}%, worst miss rate {:.3}%",
        100.0 * report.miss_free_fraction(),
        100.0 * report.worst_miss_rate()
    );
}
