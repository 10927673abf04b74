//! Empirical calibration of the backlog factors `b_i` (paper §6.2).
//!
//! The deadline constraint of the Fig.-1 program needs worst-case queue
//! sizes, expressed as multiples `b_i` of the vector width. Estimating
//! them from queueing theory is hard for a tandem network of
//! bulk-service queues (§3), so the paper calibrates empirically:
//!
//! 1. start optimistically at `b_i = ⌈g_i⌉`;
//! 2. optimize the waits and simulate many seeds over the operating
//!    grid;
//! 3. if too many runs miss deadlines, raise the factors of the nodes
//!    whose observed queue high-water marks exceeded the design
//!    assumption, and repeat.
//!
//! The paper reports `b = [1, 3, 9, 6]` for the BLAST pipeline, reaching
//! miss-free execution in ≥ 95% of random trials across the grid.

use crate::config::SimConfig;
use crate::enforced;
use crate::hooks::SimError;
use crate::runner::{run_jobs, seed_configs, split_reports};
use dataflow_model::{PipelineSpec, RtParams, Topology};
use rtsdf_core::{EnforcedProblem, WaitSchedule};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Calibration methodology parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Operating points to validate on. Infeasible points are skipped
    /// (matching the paper, whose grid is chosen within the feasible
    /// region).
    pub grid: Vec<RtParams>,
    /// Random seeds per operating point (paper: 100).
    pub seeds_per_point: u64,
    /// Stream length per run (paper: 50 000).
    pub stream_length: usize,
    /// Required fraction of miss-free runs at every point (paper: 0.95).
    pub target_miss_free: f64,
    /// Escalation rounds before giving up.
    pub max_rounds: usize,
    /// Upper limit on any individual factor (divergence guard).
    pub b_cap: f64,
}

impl CalibrationConfig {
    /// A scaled-down methodology for tests and examples: small grid,
    /// few seeds, short streams.
    pub fn quick(grid: Vec<RtParams>) -> Self {
        CalibrationConfig {
            grid,
            seeds_per_point: 8,
            stream_length: 3_000,
            target_miss_free: 0.95,
            max_rounds: 12,
            b_cap: 64.0,
        }
    }
}

/// One escalation round's record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationRound {
    /// Factors tried this round.
    pub b: Vec<f64>,
    /// Worst miss-free fraction over the grid.
    pub worst_miss_free: f64,
    /// The operating point attaining it, as `(τ0, D)`.
    pub worst_point: Option<(f64, f64)>,
    /// Componentwise max empirical backlog (vectors) over all points
    /// and seeds.
    pub observed_backlog: Vec<f64>,
    /// Mean solver iterations (deadline-price evaluations) per feasible
    /// grid point this round.
    pub mean_solver_iterations: f64,
}

/// Final calibration outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CalibrationResult {
    /// The calibrated factors.
    pub b: Vec<f64>,
    /// Per-round history.
    pub rounds: Vec<CalibrationRound>,
    /// True if the target was met within the round budget.
    pub converged: bool,
}

/// Why [`calibrate_enforced`] could not calibrate.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrationError {
    /// The operating grid has no point.
    EmptyGrid,
    /// No grid point has a feasible schedule at the factors `b` (the
    /// optimistic start, or an escalated vector).
    NoFeasiblePoint {
        /// The backlog factors every grid point was infeasible at.
        b: Vec<f64>,
    },
    /// A seeded run rejected its input.
    Sim(SimError),
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::EmptyGrid => write!(f, "calibration grid is empty"),
            CalibrationError::NoFeasiblePoint { b } => {
                write!(f, "no feasible grid point at backlog factors {b:?}")
            }
            CalibrationError::Sim(e) => write!(f, "calibration run failed: {e}"),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// Run the §6.2 calibration loop for the enforced-waits strategy.
///
/// Each round solves every grid point at the round's factors, then
/// simulates all (feasible point, seed) runs on one job queue across
/// [`rtsdf_core::worker_threads`] threads.
///
/// # Errors
/// [`CalibrationError::EmptyGrid`] for an empty grid,
/// [`CalibrationError::NoFeasiblePoint`] when a round finds no grid
/// point feasible at its factors, and [`CalibrationError::Sim`] if a
/// seeded run rejects its input.
pub fn calibrate_enforced(
    pipeline: &PipelineSpec,
    config: &CalibrationConfig,
) -> Result<CalibrationResult, CalibrationError> {
    if config.grid.is_empty() {
        return Err(CalibrationError::EmptyGrid);
    }
    let workers = rtsdf_core::worker_threads();
    let n = pipeline.len();
    let topology = Topology::chain(pipeline);
    let mut b = EnforcedProblem::optimistic_backlog(&topology);
    let mut rounds = Vec::new();
    // Set once an escalation clamps a factor to `b_cap`: one more
    // evaluation round runs at the capped factors, then the loop stops.
    let mut capped = false;
    let mut round = 0;

    loop {
        // Solve every grid point first, then run all (feasible point,
        // seed) jobs as one list; results fold in grid order.
        let mut iter_sum = 0u64;
        let mut iter_points = 0u64;
        let mut points: Vec<(RtParams, WaitSchedule)> = Vec::new();
        for params in &config.grid {
            let prob = EnforcedProblem::new(&topology, *params, b.clone());
            let Ok(sched) = prob.solve() else {
                continue; // infeasible at these factors: skip
            };
            if let Some(t) = &sched.telemetry {
                iter_sum += t.iterations;
                iter_points += 1;
            }
            points.push((*params, sched));
        }
        if points.is_empty() {
            return Err(CalibrationError::NoFeasiblePoint { b });
        }
        let mut jobs = Vec::new();
        for (k, (params, _)) in points.iter().enumerate() {
            let cfg = SimConfig::quick(params.tau0, 0, config.stream_length);
            jobs.extend(seed_configs(&cfg, config.seeds_per_point).map(|c| (k, c)));
        }
        let runs = run_jobs(&jobs, workers, None, |(k, c), h| {
            let (params, sched) = &points[*k];
            enforced::simulate(&topology, sched, params.deadline, c, h)
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(CalibrationError::Sim)?;

        let mut worst_miss_free = 1.0_f64;
        let mut worst_point = None;
        let mut observed = vec![0.0_f64; n];
        let reports = split_reports(runs, config.seeds_per_point, points.len());
        for ((params, _), report) in points.iter().zip(&reports) {
            let mf = report.miss_free_fraction();
            if mf < worst_miss_free {
                worst_miss_free = mf;
                worst_point = Some((params.tau0, params.deadline));
            }
            for (o, &x) in observed.iter_mut().zip(&report.max_backlog_vectors()) {
                *o = o.max(x);
            }
        }

        rounds.push(CalibrationRound {
            b: b.clone(),
            worst_miss_free,
            worst_point,
            observed_backlog: observed.clone(),
            mean_solver_iterations: if iter_points > 0 {
                iter_sum as f64 / iter_points as f64
            } else {
                0.0
            },
        });

        if worst_miss_free >= config.target_miss_free {
            return Ok(CalibrationResult {
                b,
                rounds,
                converged: true,
            });
        }

        // Stop only *after* evaluating the current factors, so the
        // returned `b` is always the last simulated vector (a capped or
        // budget-exhausted escalation result was previously returned
        // without ever being solved or simulated).
        round += 1;
        if round >= config.max_rounds || capped {
            break;
        }

        // Escalate: raise each factor to the observed high-water mark;
        // if observation never exceeded the assumption, bump the node
        // with the tightest margin by one.
        let mut changed = false;
        for i in 0..n {
            let candidate = observed[i].ceil();
            if candidate > b[i] {
                b[i] = candidate.min(config.b_cap);
                changed = true;
            }
        }
        if !changed {
            let (worst_i, _) = b
                .iter()
                .enumerate()
                .map(|(i, &bi)| (i, observed[i] / bi))
                .fold(
                    (0, f64::NEG_INFINITY),
                    |acc, x| if x.1 > acc.1 { x } else { acc },
                );
            b[worst_i] = (b[worst_i] + 1.0).min(config.b_cap);
        }
        capped = b.iter().any(|&bi| bi >= config.b_cap);
    }

    Ok(CalibrationResult {
        converged: false,
        b,
        rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_seeds;
    use dataflow_model::{GainModel, PipelineSpecBuilder};

    fn blast() -> PipelineSpec {
        PipelineSpecBuilder::new(128)
            .stage("s0", 287.0, GainModel::Bernoulli { p: 0.379 })
            .stage(
                "s1",
                955.0,
                GainModel::CensoredPoisson {
                    mean: 1.920,
                    cap: 16,
                },
            )
            .stage("s2", 402.0, GainModel::Bernoulli { p: 0.0332 })
            .stage("s3", 2753.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap()
    }

    #[test]
    fn calibration_converges_on_blast_subgrid() {
        let p = blast();
        let grid = vec![
            RtParams::new(10.0, 1e5).unwrap(),
            RtParams::new(30.0, 1.5e5).unwrap(),
        ];
        let result = calibrate_enforced(&p, &CalibrationConfig::quick(grid)).unwrap();
        assert!(result.converged, "history: {:?}", result.rounds);
        assert_eq!(result.b.len(), 4);
        // Factors should start optimistic and only grow.
        let optimistic = EnforcedProblem::optimistic_backlog(&Topology::chain(&p));
        for (bi, oi) in result.b.iter().zip(&optimistic) {
            assert!(bi >= oi);
        }
        // First round used the optimistic factors.
        assert_eq!(result.rounds[0].b, optimistic);
    }

    #[test]
    fn calibrated_factors_hold_on_fresh_seeds() {
        let p = blast();
        let grid = vec![RtParams::new(10.0, 1e5).unwrap()];
        let result = calibrate_enforced(&p, &CalibrationConfig::quick(grid.clone())).unwrap();
        assert!(result.converged);
        // Validate on seeds the calibration never saw.
        let t = Topology::chain(&p);
        let sched = EnforcedProblem::new(&t, grid[0], result.b.clone())
            .solve()
            .unwrap();
        let mut cfg = SimConfig::quick(10.0, 0, 3_000);
        cfg.seed = 10_000;
        let report = run_seeds(&cfg, 6, None, |c, h| {
            enforced::simulate(&t, &sched, 1e5, c, h)
        })
        .unwrap();
        assert!(
            report.miss_free_fraction() >= 0.5,
            "fresh-seed miss-free fraction {}",
            report.miss_free_fraction()
        );
    }

    #[test]
    fn empty_grid_is_an_error() {
        let p = blast();
        let err = calibrate_enforced(&p, &CalibrationConfig::quick(vec![])).unwrap_err();
        assert_eq!(err, CalibrationError::EmptyGrid);
        assert!(err.to_string().contains("grid is empty"), "{err}");
    }

    #[test]
    fn an_infeasible_grid_is_an_error() {
        // Arrivals every cycle with a 100-cycle deadline: no schedule
        // exists at the optimistic factors.
        let p = blast();
        let grid = vec![RtParams::new(1.0, 100.0).unwrap()];
        let err = calibrate_enforced(&p, &CalibrationConfig::quick(grid)).unwrap_err();
        assert_eq!(
            err,
            CalibrationError::NoFeasiblePoint {
                b: EnforcedProblem::optimistic_backlog(&Topology::chain(&p))
            }
        );
    }

    #[test]
    fn returned_factors_were_always_evaluated() {
        // Regression: on hitting `b_cap` (or the round budget) the loop
        // used to escalate and then return factors that were never
        // solved or simulated, so `result.b` disagreed with the last
        // recorded round. Force the cap with a hopeless deadline and a
        // tiny cap, and require the invariant.
        let p = blast();
        // An unreachable target forces escalation every round; a tiny
        // cap makes it clamp almost immediately.
        let mut config = CalibrationConfig::quick(vec![RtParams::new(10.0, 1e5).unwrap()]);
        config.target_miss_free = 2.0;
        config.b_cap = 3.0;
        config.seeds_per_point = 2;
        config.stream_length = 500;
        let result = calibrate_enforced(&p, &config).unwrap();
        assert!(!result.converged);
        assert!(
            result.b.iter().any(|&bi| bi >= config.b_cap),
            "cap was never hit: {:?}",
            result.b
        );
        let last = result.rounds.last().expect("at least one round");
        assert_eq!(
            result.b, last.b,
            "returned factors must be the last evaluated vector"
        );
        // The capped vector itself was evaluated: its round is recorded
        // with real simulation output.
        assert!(result.rounds.iter().all(|r| !r.observed_backlog.is_empty()));
    }

    #[test]
    fn round_budget_exhaustion_returns_last_evaluated_b() {
        // Same invariant on the max_rounds path: with a single round
        // allowed, the result must be the (evaluated) starting factors,
        // not an escalated vector that never ran.
        let p = blast();
        let mut config = CalibrationConfig::quick(vec![RtParams::new(10.0, 4e4).unwrap()]);
        config.max_rounds = 1;
        config.seeds_per_point = 2;
        config.stream_length = 500;
        let result = calibrate_enforced(&p, &config).unwrap();
        assert_eq!(result.rounds.len(), 1);
        assert_eq!(result.b, result.rounds[0].b);
        if !result.converged {
            assert_eq!(
                result.b,
                EnforcedProblem::optimistic_backlog(&Topology::chain(&p))
            );
        }
    }
}
