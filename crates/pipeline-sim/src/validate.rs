//! Optimizer-vs-simulator agreement (paper §6.2: "the active fractions
//! measured in the simulator closely matched those predicted by the
//! optimizer for each approach and set of parameters tested").

use crate::config::SimConfig;
use crate::hooks::Hooks;
use crate::{enforced, monolithic};
use dataflow_model::{RtParams, Topology};
use rtsdf_core::{EnforcedProblem, MonolithicProblem};
use serde::{Deserialize, Serialize};

/// One operating point's prediction-vs-measurement comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgreementCell {
    /// Inter-arrival time.
    pub tau0: f64,
    /// Deadline.
    pub deadline: f64,
    /// Optimizer-predicted active fraction.
    pub predicted: f64,
    /// Simulator-measured active fraction.
    pub measured: f64,
}

impl AgreementCell {
    /// Relative disagreement `|measured − predicted| / predicted`.
    pub fn rel_error(&self) -> f64 {
        (self.measured - self.predicted).abs() / self.predicted.max(1e-12)
    }
}

/// A batch of agreement measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AgreementReport {
    /// Strategy name for reporting.
    pub strategy: String,
    /// Per-point comparisons (points that were infeasible are absent).
    pub cells: Vec<AgreementCell>,
}

impl AgreementReport {
    /// Largest relative error across cells (0 if empty).
    pub fn worst_rel_error(&self) -> f64 {
        self.cells.iter().map(|c| c.rel_error()).fold(0.0, f64::max)
    }
}

/// Compare predicted and measured active fractions for the
/// enforced-waits strategy over `points`.
pub fn enforced_agreement(
    topology: &Topology,
    points: &[RtParams],
    b: &[f64],
    stream_length: usize,
    seed: u64,
) -> AgreementReport {
    let mut cells = Vec::new();
    for params in points {
        let prob = EnforcedProblem::new(topology, *params, b.to_vec());
        let Ok(sched) = prob.solve() else {
            continue;
        };
        let cfg = SimConfig::quick(params.tau0, seed, stream_length);
        let m = enforced::simulate(topology, &sched, params.deadline, &cfg, Hooks::default())
            .expect("a schedule solved for the topology fits it");
        cells.push(AgreementCell {
            tau0: params.tau0,
            deadline: params.deadline,
            predicted: sched.active_fraction,
            measured: m.active_fraction,
        });
    }
    AgreementReport {
        strategy: "enforced-waits".into(),
        cells,
    }
}

/// Compare predicted and measured active fractions for the monolithic
/// strategy over `points`.
pub fn monolithic_agreement(
    topology: &Topology,
    points: &[RtParams],
    b: f64,
    s: f64,
    stream_length: usize,
    seed: u64,
) -> AgreementReport {
    let mut cells = Vec::new();
    for params in points {
        let Ok(sched) = MonolithicProblem::new(topology, *params, b, s).solve_fast() else {
            continue;
        };
        let cfg = SimConfig::quick(params.tau0, seed, stream_length);
        let m = monolithic::simulate(topology, &sched, params.deadline, &cfg, Hooks::default())
            .expect("a schedule solved for the topology fits it");
        cells.push(AgreementCell {
            tau0: params.tau0,
            deadline: params.deadline,
            predicted: sched.active_fraction,
            measured: m.active_fraction,
        });
    }
    AgreementReport {
        strategy: "monolithic".into(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::{GainModel, PipelineSpecBuilder};

    fn blast() -> Topology {
        let p = PipelineSpecBuilder::new(128)
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
            .unwrap();
        Topology::chain(&p)
    }

    #[test]
    fn enforced_agreement_is_close() {
        let p = blast();
        let points = [
            RtParams::new(10.0, 1e5).unwrap(),
            RtParams::new(30.0, 2e5).unwrap(),
        ];
        let r = enforced_agreement(&p, &points, &[1.0, 3.0, 9.0, 6.0], 5_000, 1);
        assert_eq!(r.cells.len(), 2);
        assert!(
            r.worst_rel_error() < 0.05,
            "enforced agreement: {:#?}",
            r.cells
        );
    }

    #[test]
    fn monolithic_agreement_is_close() {
        let p = blast();
        let points = [
            RtParams::new(30.0, 1e5).unwrap(),
            RtParams::new(80.0, 2e5).unwrap(),
        ];
        let r = monolithic_agreement(&p, &points, 1.0, 1.0, 10_000, 1);
        assert_eq!(r.cells.len(), 2);
        assert!(
            r.worst_rel_error() < 0.08,
            "monolithic agreement: {:#?}",
            r.cells
        );
    }

    #[test]
    fn infeasible_points_are_skipped() {
        let p = blast();
        let points = [RtParams::new(1.0, 3.5e5).unwrap()]; // mono-infeasible
        let r = monolithic_agreement(&p, &points, 1.0, 1.0, 1_000, 1);
        assert!(r.cells.is_empty());
        assert_eq!(r.worst_rel_error(), 0.0);
    }

    #[test]
    fn rel_error_formula() {
        let c = AgreementCell {
            tau0: 1.0,
            deadline: 1.0,
            predicted: 0.5,
            measured: 0.55,
        };
        assert!((c.rel_error() - 0.1).abs() < 1e-12);
    }
}
