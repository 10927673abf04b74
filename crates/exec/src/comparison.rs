//! Sim-vs-real cross-validation: run the same schedule through the
//! discrete-event simulator and the threaded executor and quantify how
//! well they agree.
//!
//! The simulator is averaged over several seeds (its logical clock is
//! cheap), the executor runs once at its configured seed (wall time is
//! expensive). Agreement is reported per quantity — active fraction and
//! deadline-miss rate are the headline pair the CI gate reads — plus an
//! informational per-stage sojourn-quantile distance against an
//! observed simulator run at the executor's own seed.
//!
//! Two counters exist specifically for `bench_diff` gating:
//! `conservation_violations` (an executor run that lost or invented
//! items) and `agreement_failures` (quantities outside tolerance).
//! Both must be zero for a healthy run, so their gate direction is
//! "must not increase above the committed baseline of 0".

use crate::executor::{run_enforced, run_monolithic, ExecConfig, ExecError};
use crate::report::ExecMetrics;
use dataflow_model::Topology;
use des::obs::ObsSink;
use pipeline_sim::config::FiringDiscipline;
use pipeline_sim::{enforced, monolithic, Hooks, SimConfig, SimMetrics};
use rtsdf_core::AnySchedule;
use serde::{Deserialize, Serialize};

/// Agreement on one scalar quantity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantityAgreement {
    /// What is being compared (`"active_fraction"`, `"miss_rate"`, …).
    pub quantity: String,
    /// Simulator value (mean over the sim seeds).
    pub sim: f64,
    /// Executor value.
    pub real: f64,
    /// The error that was checked: relative where the simulator value
    /// is nonzero, absolute otherwise.
    pub error: f64,
    /// True if `error` is relative (`|real−sim|/|sim|`), false if it is
    /// the absolute difference (simulator value was zero).
    pub relative: bool,
    /// `error <= tolerance`.
    pub within: bool,
}

impl QuantityAgreement {
    fn check(quantity: &str, sim: f64, real: f64, tolerance: f64) -> Self {
        let abs = (real - sim).abs();
        let (error, relative) = if sim.abs() > 1e-12 {
            (abs / sim.abs(), true)
        } else {
            (abs, false)
        };
        QuantityAgreement {
            quantity: quantity.to_string(),
            sim,
            real,
            error,
            relative,
            within: error <= tolerance,
        }
    }
}

/// Informational per-stage sojourn-quantile distance (executor vs an
/// observed simulator run at the executor's seed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageSojournDistance {
    /// Stage name.
    pub stage: String,
    /// Simulator sojourn p50 / p90, cycles.
    pub sim_p50: Option<f64>,
    /// Executor sojourn p50, cycles.
    pub real_p50: Option<f64>,
    /// Simulator sojourn p90, cycles.
    pub sim_p90: Option<f64>,
    /// Executor sojourn p90, cycles.
    pub real_p90: Option<f64>,
    /// `|real_p90 − sim_p90|` normalized by `max(sim_p90, 1)`: a scale-
    /// free distance between the distribution tails. Timer granularity
    /// makes this noisy at small time scales, so it is reported but not
    /// gated.
    pub p90_distance: Option<f64>,
}

/// The full sim-vs-real agreement report for one workload × schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgreementReport {
    /// `"enforced"` or `"monolithic"`.
    pub strategy: String,
    /// Tolerance the scalar quantities were checked against.
    pub tolerance: f64,
    /// Simulator seeds averaged over.
    pub sim_seeds: Vec<u64>,
    /// Scalar agreements (active fraction, miss rate, completion rate).
    pub quantities: Vec<QuantityAgreement>,
    /// Per-stage sojourn distances (informational).
    pub sojourn: Vec<StageSojournDistance>,
    /// 1 if the executor run violated item conservation, else 0.
    /// Gated: must stay at 0.
    pub conservation_violations: u64,
    /// Number of scalar quantities outside tolerance. Gated: must stay
    /// at 0.
    pub agreement_failures: u64,
    /// The executor run the comparison is about.
    pub exec: ExecMetrics,
}

impl AgreementReport {
    /// True when every gated condition holds.
    pub fn passes(&self) -> bool {
        self.conservation_violations == 0 && self.agreement_failures == 0
    }
}

fn sim_config(exec: &ExecConfig, seed: u64) -> SimConfig {
    SimConfig {
        stream_length: exec.stream_length,
        seed,
        arrivals: exec.arrivals.clone(),
        drain_factor: 50.0,
        discipline: FiringDiscipline::StrictPeriodic,
    }
}

fn run_sim(
    topology: &Topology,
    schedule: &AnySchedule,
    config: &SimConfig,
    deadline: f64,
    hooks: Hooks<'_>,
) -> Result<SimMetrics, ExecError> {
    match schedule {
        AnySchedule::Enforced(s) => enforced::simulate(topology, s, deadline, config, hooks),
        AnySchedule::Monolithic(s) => monolithic::simulate(topology, s, deadline, config, hooks),
    }
    .map_err(|e| ExecError::Mismatch(e.to_string()))
}

/// Run `schedule` through both backends and quantify agreement.
///
/// The simulator runs once per seed in `sim_seeds` (scalar quantities
/// compare against the mean) plus one observed run at the executor's
/// seed (for the per-stage sojourn distances). The executor runs once,
/// per `exec_config`.
pub fn sim_vs_real(
    topology: &Topology,
    schedule: &AnySchedule,
    exec_config: &ExecConfig,
    sim_seeds: &[u64],
    tolerance: f64,
) -> Result<AgreementReport, ExecError> {
    if sim_seeds.is_empty() {
        return Err(ExecError::Config(
            "sim_vs_real needs at least one sim seed".into(),
        ));
    }
    let exec = match schedule {
        AnySchedule::Enforced(s) => run_enforced(topology, s, exec_config)?,
        AnySchedule::Monolithic(s) => run_monolithic(topology, s, exec_config)?,
    };

    // Simulator scalar quantities, averaged over seeds.
    let mut sim_active = 0.0;
    let mut sim_miss = 0.0;
    let mut sim_completed = 0.0;
    for &seed in sim_seeds {
        let m = run_sim(
            topology,
            schedule,
            &sim_config(exec_config, seed),
            exec_config.deadline,
            Hooks::default(),
        )?;
        sim_active += m.active_fraction;
        sim_miss += m.miss_rate();
        sim_completed += m.items_completed as f64 / m.items_arrived.max(1) as f64;
    }
    let k = sim_seeds.len() as f64;
    sim_active /= k;
    sim_miss /= k;
    sim_completed /= k;

    let real_completed = exec.items_completed as f64 / exec.items_arrived.max(1) as f64;
    let quantities = vec![
        QuantityAgreement::check(
            "active_fraction",
            sim_active,
            exec.active_fraction,
            tolerance,
        ),
        QuantityAgreement::check("miss_rate", sim_miss, exec.miss_rate(), tolerance),
        QuantityAgreement::check("completion_rate", sim_completed, real_completed, tolerance),
    ];

    // Observed sim run at the executor's own seed: distributional
    // comparison of per-stage sojourn.
    let mut sink = ObsSink::new(topology.len());
    run_sim(
        topology,
        schedule,
        &sim_config(exec_config, exec_config.seed),
        exec_config.deadline,
        Hooks {
            obs: Some(&mut sink),
            ..Hooks::default()
        },
    )?;
    let sojourn = sink
        .report()
        .stages
        .iter()
        .zip(&exec.stages)
        .enumerate()
        .map(|(i, (sim_stage, real_stage))| {
            let sim_p90 = sim_stage.sojourn.p90;
            let real_p90 = real_stage.sojourn_cycles.p90;
            StageSojournDistance {
                stage: topology.node(i).name.clone(),
                sim_p50: sim_stage.sojourn.p50,
                real_p50: real_stage.sojourn_cycles.p50,
                sim_p90,
                real_p90,
                p90_distance: match (sim_p90, real_p90) {
                    (Some(s), Some(r)) => Some((r - s).abs() / s.max(1.0)),
                    _ => None,
                },
            }
        })
        .collect();

    let conservation_violations = u64::from(!exec.conservation_holds());
    let agreement_failures = quantities.iter().filter(|q| !q.within).count() as u64;
    Ok(AgreementReport {
        strategy: exec.strategy.clone(),
        tolerance,
        sim_seeds: sim_seeds.to_vec(),
        quantities,
        sojourn,
        conservation_violations,
        agreement_failures,
        exec,
    })
}
