//! The simulator as a [`PipelineExecutor`] backend.
//!
//! `rtsdf-exec` runs schedules on OS threads; this module wraps the
//! discrete-event simulator behind the *same* trait, so callers (the
//! CLI's `execute` command, the sim-vs-real comparison) can drive
//! either backend through one interface and compare
//! [`dataflow_model::ExecOutcome`]s quantity by quantity.

use crate::config::SimConfig;
use crate::enforced::simulate_enforced_topology;
use crate::metrics::SimMetrics;
use crate::monolithic::simulate_monolithic_topology;
use dataflow_model::exec::{ExecOutcome, IntoOutcome, PipelineExecutor};
use dataflow_model::Topology;
use rtsdf_core::AnySchedule;
use std::convert::Infallible;

impl IntoOutcome for SimMetrics {
    fn outcome(&self) -> ExecOutcome {
        ExecOutcome {
            items_arrived: self.items_arrived,
            items_completed: self.items_completed,
            items_dropped: self.items_dropped,
            deadline_misses: self.deadline_misses,
            active_fraction: self.active_fraction,
            mean_latency: self.latency.mean(),
            horizon_cycles: self.horizon,
        }
    }
}

/// The discrete-event simulator behind the [`PipelineExecutor`] trait.
#[derive(Debug, Clone)]
pub struct DesBackend {
    /// Simulation configuration (stream, seed, arrivals, discipline).
    pub config: SimConfig,
    /// Per-item end-to-end deadline, cycles.
    pub deadline: f64,
}

impl PipelineExecutor for DesBackend {
    type Schedule = AnySchedule;
    type Report = SimMetrics;
    type Error = Infallible;

    fn name(&self) -> &'static str {
        "des"
    }

    fn run(&self, topology: &Topology, schedule: &AnySchedule) -> Result<SimMetrics, Infallible> {
        Ok(match schedule {
            AnySchedule::Enforced(s) => {
                simulate_enforced_topology(topology, s, self.deadline, &self.config)
            }
            AnySchedule::Monolithic(s) => {
                simulate_monolithic_topology(topology, s, self.deadline, &self.config)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::{GainModel, PipelineSpecBuilder, RtParams};
    use rtsdf_core::EnforcedWaitsProblem;

    #[test]
    fn des_backend_runs_via_trait_and_reports_outcome() {
        let p = PipelineSpecBuilder::new(16)
            .stage("a", 100.0, GainModel::Deterministic { k: 1 })
            .stage("b", 200.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let topology = Topology::chain(&p);
        let params = RtParams::new(40.0, 5e4).unwrap();
        let schedule = EnforcedWaitsProblem::new(&p, params, vec![1.0, 1.0])
            .solve()
            .unwrap();
        let backend = DesBackend {
            config: SimConfig::quick(40.0, 3, 200),
            deadline: 5e4,
        };
        let metrics = backend
            .run(&topology, &AnySchedule::from(schedule))
            .unwrap();
        let outcome = metrics.outcome();
        assert_eq!(outcome.items_arrived, 200);
        assert!(outcome.conservation_holds());
        assert!(outcome.active_fraction > 0.0);
        assert_eq!(backend.name(), "des");
    }
}
