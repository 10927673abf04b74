//! Forwards from the design API's former chain and DAG names.
//!
//! The benchmark harness in `rtbench/` is frozen, and it still names
//! the chain problem, its KKT certificate, the DAG problem, the
//! monolithic DAG alias and the chain sweep. These forwards keep its
//! calls compiling with unchanged meaning, on the same code paths. CI
//! fails when a `.rs` file outside this crate's sources and `rtbench/`
//! names one, so they can only lose callers.

use crate::comparison::{sweep_on, validate, Model, SweepConfig, SweepResult};
use crate::enforced::{ChainProblem, EnforcedProblem, WaitSchedule};
use crate::kkt::{certify, KktReport};
use crate::monolithic::MonolithicProblem;
use crate::schedule::ScheduleError;
use crate::threads::worker_threads;
use dataflow_model::{PipelineSpec, RtParams};

/// [`EnforcedProblem`] on a chain, as a [`PipelineSpec`]: the chain
/// kernel under its former public name.
#[derive(Debug, Clone)]
pub struct EnforcedWaitsProblem(ChainProblem);

impl EnforcedWaitsProblem {
    /// The chain problem with one backlog factor per stage.
    pub fn new(pipeline: &PipelineSpec, params: RtParams, b: Vec<f64>) -> Self {
        EnforcedWaitsProblem(ChainProblem::new(pipeline, params, b))
    }

    /// The exact water-filling solve, [`EnforcedProblem::solve`].
    pub fn solve_with_fallback(&self) -> Result<WaitSchedule, ScheduleError> {
        self.0.solve()
    }
}

/// [`EnforcedProblem::verify_kkt`] on the chain problem.
pub fn verify_kkt(problem: &EnforcedWaitsProblem, periods: &[f64], active_tol: f64) -> KktReport {
    let chain = &problem.0;
    certify(
        &chain.constraint_set(),
        chain.service_times(),
        periods,
        active_tol,
    )
}

/// [`EnforcedProblem`] under its former DAG name.
pub type EnforcedDagProblem<'a> = EnforcedProblem<'a>;

/// [`MonolithicProblem`] under its former DAG name.
pub type MonolithicDagProblem = MonolithicProblem;

/// [`crate::comparison::sweep`] on a chain, as a [`PipelineSpec`],
/// without live progress.
pub fn sweep_parallel(
    pipeline: &PipelineSpec,
    tau0s: &[f64],
    deadlines: &[f64],
    config: &SweepConfig,
) -> Result<SweepResult, ScheduleError> {
    validate(pipeline.len(), tau0s, deadlines, config)?;
    let model = Model::Chain(pipeline);
    let threads = worker_threads();
    Ok(sweep_on(model, tau0s, deadlines, config, threads, None))
}
