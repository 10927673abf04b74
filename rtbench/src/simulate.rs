//! `simulate-blast`: both BLAST schedules checked in the simulator, run
//! as a closed batch of seeded runs. The discrete-event simulator's hot
//! loops do nearly all the work; the two solves happen in set-up.

use crate::stats::{mean, share, Checks};
use crate::trace::{durations_us, roots_total_us, Call, Tracer};
use crate::{core_split, measure, Ctx, Outcome};
use dataflow_model::{PipelineSpec, RtParams};
use des::stats::OnlineStats;
use pipeline_sim::reference::{simulate_enforced_reference, simulate_monolithic_reference};
use pipeline_sim::{
    run_seeds_enforced, run_seeds_monolithic, simulate_enforced, simulate_monolithic,
    MultiSeedReport, SimConfig, SimMetrics,
};
use rtsdf_core::comparison::SweepConfig;
use rtsdf_core::{EnforcedWaitsProblem, MonolithicProblem, MonolithicSchedule, WaitSchedule};

const DEADLINE: f64 = 1e5;
const ENFORCED_TAU0: f64 = 10.0;
const MONOLITHIC_TAU0: f64 = 50.0;
const ITEMS: usize = 1_000_000;
/// `run_seeds_*` numbers its seeds `0..SEEDS` itself.
const SEEDS: u64 = 8;

struct Simulate {
    pipeline: PipelineSpec,
    enforced: WaitSchedule,
    monolithic: MonolithicSchedule,
}

fn prepare(tracer: &Tracer) -> Simulate {
    let pipeline = blast::paper_pipeline();
    let config = SweepConfig::paper_blast();
    let params = |tau0| RtParams::new(tau0, DEADLINE).expect("positive operating point");
    let enforced = tracer
        .span(Call::EnforcedSolve, || {
            EnforcedWaitsProblem::new(&pipeline, params(ENFORCED_TAU0), config.enforced_b.clone())
                .solve_with_fallback()
        })
        .expect("the enforced operating point is feasible");
    let monolithic = tracer
        .span(Call::MonolithicSolve, || {
            MonolithicProblem::new(
                &pipeline,
                params(MONOLITHIC_TAU0),
                config.monolithic_b,
                config.monolithic_s,
            )
            .solve_fast()
        })
        .expect("the monolithic operating point is feasible");
    Simulate {
        pipeline,
        enforced,
        monolithic,
    }
}

fn config(tau0: f64, seed: u64) -> SimConfig {
    SimConfig::quick(tau0, seed, ITEMS)
}

fn pass(s: &Simulate, tracer: &Tracer) -> [MultiSeedReport; 2] {
    [
        tracer.span(Call::RunSeedsEnforced, || {
            run_seeds_enforced(
                &s.pipeline,
                &s.enforced,
                DEADLINE,
                &config(ENFORCED_TAU0, 0),
                SEEDS,
            )
        }),
        tracer.span(Call::RunSeedsMonolithic, || {
            run_seeds_monolithic(
                &s.pipeline,
                &s.monolithic,
                DEADLINE,
                &config(MONOLITHIC_TAU0, 0),
                SEEDS,
            )
        }),
    ]
}

/// Item conservation: every arrived item completed, was dropped at the
/// horizon, or was shed.
pub fn conserved(m: &SimMetrics) -> bool {
    m.items_completed + m.items_dropped + m.items_shed == m.items_arrived
}

/// Serialized form, for bit-exact comparison of runs.
pub fn bits<T: serde::Serialize>(x: &T) -> String {
    serde_json::to_string(x).expect("metrics serialize")
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let timed = measure(ctx, tracer, prepare, |s, _, t| pass(s, t));
    let s = &timed.state;
    let first = &timed.outputs[0].1;
    let runs: Vec<&SimMetrics> = first.iter().flat_map(|r| &r.runs).collect();

    let mut checks = Checks::default();
    let mut conservation_violations = 0;
    for m in &runs {
        checks.hard(conserved(m));
        conservation_violations += u64::from(!conserved(m));
    }
    // One seed per strategy, picked by the workload seed, against the
    // frozen scalar oracles.
    let k = ctx.seed % SEEDS;
    let enforced_ref = simulate_enforced_reference(
        &s.pipeline,
        &s.enforced,
        DEADLINE,
        &config(ENFORCED_TAU0, k),
        None,
        None,
    );
    let monolithic_ref = simulate_monolithic_reference(
        &s.pipeline,
        &s.monolithic,
        DEADLINE,
        &config(MONOLITHIC_TAU0, k),
        None,
        None,
    );
    let reference_ok = [
        bits(&enforced_ref) == bits(&first[0].runs[k as usize]),
        bits(&monolithic_ref) == bits(&first[1].runs[k as usize]),
    ];
    for ok in reference_ok {
        checks.hard(ok);
    }
    let first_bits = bits(first);
    for (_, later) in &timed.outputs[1..] {
        checks.hard(bits(later) == first_bits);
    }

    let arrived: u64 = runs.iter().map(|m| m.items_arrived).sum();
    let misses: u64 = runs.iter().map(|m| m.deadline_misses + m.items_shed).sum();
    let mut latency = OnlineStats::new();
    for m in &runs {
        latency.merge(&m.latency);
    }
    let items_per_s = share(arrived as f64, timed.fastest_untraced());
    let mut outcome = Outcome::new(&timed, checks);
    outcome.throughput = items_per_s;
    outcome.af_mean = mean(&runs.iter().map(|m| m.active_fraction).collect::<Vec<_>>());
    outcome.met_share = 1.0 - share(misses as f64, arrived as f64);
    outcome.latency_mean = latency.mean();
    outcome.latency_max = latency.max().unwrap_or(0.0);
    outcome.report = vec![
        ("items_per_s", items_per_s, "items/s"),
        ("af_mean", outcome.af_mean, "fraction"),
        ("miss_rate", 1.0 - outcome.met_share, "fraction"),
        ("latency_mean_cycles", outcome.latency_mean, "cycles"),
        ("latency_max_cycles", outcome.latency_max, "cycles"),
        ("wrong_share", checks.wrong_share(), "fraction"),
    ];
    outcome.set_layer(
        "sim.reference_mismatches",
        reference_ok.iter().filter(|ok| !**ok).count() as f64,
    );
    outcome.set_layer(
        "sim.conservation_violations",
        conservation_violations as f64,
    );
    for (name, telemetry) in [
        ("core.enforced_iters_per_cell", &s.enforced.telemetry),
        ("core.monolithic_evals_per_cell", &s.monolithic.telemetry),
    ] {
        outcome.set_layer(
            name,
            telemetry.as_ref().map_or(0.0, |t| t.iterations as f64),
        );
    }

    if tracer.is_on() {
        let spans = tracer.spans();
        core_split(&mut outcome, &spans);
        let run_seeds = durations_us(&spans, |c| {
            matches!(c, Call::RunSeedsEnforced | Call::RunSeedsMonolithic)
        });
        let enforced_runs: f64 = durations_us(&spans, |c| c == Call::RunSeedsEnforced)
            .iter()
            .sum();
        outcome.set_layer(
            "sim.enforced_share",
            share(enforced_runs, roots_total_us(&spans)),
        );

        // Replay every seed as a single call on this thread: the
        // simulator's own rate, and how much of it the seed fan-out keeps.
        let replay = tracer.fork(0);
        let mut single = [(0u64, 0.0f64); 2];
        for seed in 0..SEEDS {
            let e = replay.span(Call::SimulateEnforced, || {
                simulate_enforced(
                    &s.pipeline,
                    &s.enforced,
                    DEADLINE,
                    &config(ENFORCED_TAU0, seed),
                )
            });
            let m = replay.span(Call::SimulateMonolithic, || {
                simulate_monolithic(
                    &s.pipeline,
                    &s.monolithic,
                    DEADLINE,
                    &config(MONOLITHIC_TAU0, seed),
                )
            });
            single[0].0 += e.items_arrived;
            single[1].0 += m.items_arrived;
        }
        let replay_spans = replay.spans();
        single[0].1 = durations_us(&replay_spans, |c| c == Call::SimulateEnforced)
            .iter()
            .sum();
        single[1].1 = durations_us(&replay_spans, |c| c == Call::SimulateMonolithic)
            .iter()
            .sum();
        outcome.set_layer(
            "sim.enforced_items_per_s",
            share(single[0].0 as f64, single[0].1 / 1e6),
        );
        outcome.set_layer(
            "sim.monolithic_items_per_s",
            share(single[1].0 as f64, single[1].1 / 1e6),
        );
        let traced_passes = timed.traced.len().max(1) as f64;
        let fan_out_wall = run_seeds.iter().sum::<f64>() / traced_passes;
        outcome.set_layer(
            "sim.seed_parallel_efficiency",
            share(single[0].1 + single[1].1, ctx.workers as f64 * fan_out_wall),
        );
        tracer.absorb(replay);
    }
    outcome
}
