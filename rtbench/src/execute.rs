//! `execute-blast`: the BLAST chain run on real threads as an open loop.
//! The executor's pacer releases items at their nominal times and
//! latency counts from that due time, so OS timers, sleeps and channels
//! set the result; no solver or simulator code is timed.

use crate::stats::{median, share, Checks};
use crate::trace::{durations_us, Call, Tracer};
use crate::{core_split, measure, Ctx, Outcome};
use dataflow_model::{RtParams, Topology};
use rtsdf_core::comparison::SweepConfig;
use rtsdf_core::{AnySchedule, EnforcedWaitsProblem, WaitSchedule};
use rtsdf_exec::{calibrate, run_enforced, sim_vs_real, ExecConfig, ExecMetrics};

/// The CI exec-smoke operating point: generous enough that the emulated
/// stages keep up on a shared machine.
const TAU0: f64 = 80.0;
const DEADLINE: f64 = 4e5;
const ITEMS: usize = 2000;
const TARGET_SECONDS: f64 = 2.0;
/// Simulator seeds `sim_vs_real` averages over, after the run's own.
const SIM_SEEDS: u64 = 4;
/// The tolerance the exec-smoke gate holds sim and real to.
const TOLERANCE: f64 = 0.10;

struct Execute {
    seed: u64,
    topology: Topology,
    schedule: WaitSchedule,
    config: ExecConfig,
}

fn prepare(seed: u64, tracer: &Tracer) -> Execute {
    let pipeline = blast::paper_pipeline();
    let params = RtParams::new(TAU0, DEADLINE).expect("positive operating point");
    let schedule = tracer
        .span(Call::EnforcedSolve, || {
            EnforcedWaitsProblem::new(&pipeline, params, SweepConfig::paper_blast().enforced_b)
                .solve_with_fallback()
        })
        .expect("the operating point is feasible");
    tracer.span(Call::Calibrate, calibrate);
    let mut config = ExecConfig::new(ITEMS, seed, TAU0, DEADLINE);
    config.target_duration_secs = TARGET_SECONDS;
    Execute {
        seed,
        topology: Topology::chain(&pipeline),
        schedule,
        config,
    }
}

/// Pass `number` runs its own stream realization, derived from the
/// workload seed: each run's result is then a median over many inputs,
/// not a property of one gain draw.
fn pass_config(s: &Execute, number: u64) -> ExecConfig {
    ExecConfig {
        seed: s.seed.wrapping_mul(1000).wrapping_add(number),
        ..s.config.clone()
    }
}

fn pass(s: &Execute, number: u64, tracer: &Tracer) -> ExecMetrics {
    let config = pass_config(s, number);
    tracer
        .span(Call::RunEnforced, || {
            run_enforced(&s.topology, &s.schedule, &config)
        })
        .expect("the executor accepts the schedule")
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let timed = measure(ctx, tracer, |t| prepare(ctx.seed, t), pass);
    let s = &timed.state;

    let mut checks = Checks::default();
    let mut conservation_violations = 0u64;
    for (_, m) in &timed.outputs {
        checks.hard(m.conservation_holds());
        conservation_violations += u64::from(!m.conservation_holds());
    }
    // Outside the timed region: one more real run against the simulator.
    let check_tracer = tracer.fork(0);
    let config = pass_config(s, 0);
    let sim_seeds: Vec<u64> = (1..=SIM_SEEDS)
        .map(|k| config.seed.wrapping_add(k))
        .collect();
    let agreement = check_tracer
        .span(Call::SimVsReal, || {
            sim_vs_real(
                &s.topology,
                &AnySchedule::Enforced(s.schedule.clone()),
                &config,
                &sim_seeds,
                TOLERANCE,
            )
        })
        .expect("the executor accepts the schedule");
    checks.hard(agreement.conservation_violations == 0);
    conservation_violations += agreement.conservation_violations;
    checks.record(true, agreement.agreement_failures == 0);

    // Medians over the untraced passes: each pass is one real run.
    let untraced: Vec<&ExecMetrics> = timed
        .outputs
        .iter()
        .filter(|(traced, _)| !traced)
        .map(|(_, m)| m)
        .collect();
    let med = |f: &dyn Fn(&ExecMetrics) -> f64| {
        median(&untraced.iter().map(|m| f(m)).collect::<Vec<_>>())
    };
    let items_per_s = share(untraced[0].items_arrived as f64, timed.fastest_untraced());
    let mut outcome = Outcome::new(&timed, checks);
    outcome.throughput = items_per_s;
    outcome.af_mean = med(&|m| m.active_fraction);
    outcome.met_share = 1.0 - med(&|m| m.miss_rate());
    outcome.latency_mean = med(&|m| m.latency.mean());
    outcome.latency_max = med(&|m| m.latency.max().unwrap_or(0.0));
    outcome.report = vec![
        ("items_per_s", items_per_s, "items/s"),
        ("af_mean", outcome.af_mean, "fraction"),
        ("miss_rate", 1.0 - outcome.met_share, "fraction"),
        ("latency_mean_cycles", outcome.latency_mean, "cycles"),
        ("latency_max_cycles", outcome.latency_max, "cycles"),
        ("wrong_share", checks.wrong_share(), "fraction"),
    ];
    outcome.set_layer(
        "exec.conservation_violations",
        conservation_violations as f64,
    );
    outcome.set_layer(
        "exec.agreement_failures",
        agreement.agreement_failures as f64,
    );
    outcome.set_layer(
        "exec.p90_distance_max",
        agreement
            .sojourn
            .iter()
            .filter_map(|d| d.p90_distance)
            .fold(0.0, f64::max),
    );
    outcome.set_layer(
        "core.enforced_iters_per_cell",
        s.schedule
            .telemetry
            .as_ref()
            .map_or(0.0, |t| t.iterations as f64),
    );

    if tracer.is_on() {
        let spans = tracer.spans();
        core_split(&mut outcome, &spans);
        let all: Vec<&ExecMetrics> = timed.outputs.iter().map(|(_, m)| m).collect();
        let med_all =
            |f: &dyn Fn(&ExecMetrics) -> f64| median(&all.iter().map(|m| f(m)).collect::<Vec<_>>());
        outcome.set_layer(
            "exec.pacer_late_max_ms",
            med_all(&|m| m.pacer_max_late_ns as f64 / 1e6),
        );
        outcome.set_layer(
            "exec.sleep_overshoot_us",
            med_all(&|m| m.calibration.sleep_overshoot_mean_ns as f64 / 1e3),
        );
        outcome.set_layer(
            "exec.send_blocked_ms",
            med_all(&|m| {
                m.stages
                    .iter()
                    .map(|st| st.send_blocked_ns as f64)
                    .sum::<f64>()
                    / 1e6
            }),
        );
        outcome.set_layer(
            "exec.calibrate_ms",
            durations_us(&spans, |c| c == Call::Calibrate)
                .iter()
                .sum::<f64>()
                / 1e3,
        );
    }
    tracer.absorb(check_tracer);
    outcome
}
