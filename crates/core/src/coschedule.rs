//! Co-scheduling several real-time pipelines on one SIMD device.
//!
//! The paper motivates minimizing a pipeline's active fraction with
//! system-level sharing: "A lower active fraction implies that the
//! application yields more of its available processor time, which
//! could be used, e.g., to support other applications running on the
//! same system" (§2.3), and its related work (TimeGraph, GPUSync) is
//! exactly about dividing a GPU among competing tasks. This module
//! operationalizes that: given several pipelines with their own arrival
//! rates and deadlines, decide whether they *all* fit on one device and
//! produce their schedules.
//!
//! The composition rule falls out of the flexible-shares analysis
//! ([`crate::flexible`]): each pipeline's schedule needs processor
//! utilization `u_j = Σ_i c_i/x_i`, shares are fungible, so the set is
//! admissible iff `Σ_j u_j ≤ 1` where each `u_j` is that pipeline's
//! *minimum* utilization at its operating point. Because each pipeline's
//! minimum is computed independently, admission is a simple sum test —
//! the schedulability analogue of utilization-based admission control in
//! classic real-time systems.

use crate::flexible::{FlexibleSchedule, FlexibleSharesProblem};
use crate::schedule::ScheduleError;
use dataflow_model::{PipelineSpec, RtParams};
use serde::{Deserialize, Serialize};

/// One pipeline's co-scheduling request.
#[derive(Debug, Clone)]
pub struct Workload<'a> {
    /// The pipeline.
    pub pipeline: &'a PipelineSpec,
    /// Its operating point.
    pub params: RtParams,
    /// Its backlog factors.
    pub b: Vec<f64>,
}

/// The outcome for one admitted workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmittedWorkload {
    /// Index into the request list.
    pub index: usize,
    /// The flexible-share schedule to run it with.
    pub schedule: FlexibleSchedule,
}

/// A co-scheduling decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoSchedule {
    /// Per-workload schedules, in request order.
    pub workloads: Vec<AdmittedWorkload>,
    /// Total device utilization `Σ_j u_j` (≤ 1 iff admitted).
    pub total_utilization: f64,
    /// Spare capacity `1 − total_utilization`.
    pub spare: f64,
}

/// Why a workload set was rejected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AdmissionError {
    /// An individual workload cannot be scheduled even alone.
    WorkloadInfeasible {
        /// Which workload.
        index: usize,
        /// Its scheduling error.
        reason: String,
    },
    /// All workloads are individually feasible but together need more
    /// than the whole device.
    Overcommitted {
        /// The total minimum utilization required.
        required: f64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::WorkloadInfeasible { index, reason } => {
                write!(f, "workload {index} infeasible: {reason}")
            }
            AdmissionError::Overcommitted { required } => {
                write!(f, "set overcommitted: needs {required:.3} of the device")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Admit a set of workloads onto one device, or explain why not.
///
/// Each workload gets its minimum-utilization flexible-share schedule;
/// the set is admitted iff the utilizations sum to at most 1.
pub fn admit(workloads: &[Workload<'_>]) -> Result<CoSchedule, AdmissionError> {
    let mut admitted = Vec::with_capacity(workloads.len());
    let mut total = 0.0;
    for (index, w) in workloads.iter().enumerate() {
        let schedule = FlexibleSharesProblem::new(w.pipeline, w.params, w.b.clone())
            .solve()
            .map_err(|e: ScheduleError| AdmissionError::WorkloadInfeasible {
                index,
                reason: e.to_string(),
            })?;
        total += schedule.utilization;
        admitted.push(AdmittedWorkload { index, schedule });
    }
    if total > 1.0 + 1e-9 {
        return Err(AdmissionError::Overcommitted { required: total });
    }
    Ok(CoSchedule {
        workloads: admitted,
        total_utilization: total,
        spare: (1.0 - total).max(0.0),
    })
}

/// Admission control: the largest number of identical replicas of
/// `workload` that fit on one device.
pub fn max_replicas(workload: &Workload<'_>) -> Result<usize, AdmissionError> {
    let single = FlexibleSharesProblem::new(workload.pipeline, workload.params, workload.b.clone())
        .solve()
        .map_err(|e| AdmissionError::WorkloadInfeasible {
            index: 0,
            reason: e.to_string(),
        })?;
    if single.utilization <= 0.0 {
        return Ok(usize::MAX);
    }
    Ok((1.0 / single.utilization).floor() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::blast;

    fn workload(p: &PipelineSpec, tau0: f64, d: f64) -> Workload<'_> {
        Workload {
            pipeline: p,
            params: RtParams::new(tau0, d).unwrap(),
            b: vec![1.0, 3.0, 9.0, 6.0],
        }
    }

    #[test]
    fn two_relaxed_pipelines_fit() {
        let p = blast();
        let ws = [workload(&p, 30.0, 2e5), workload(&p, 50.0, 3e5)];
        let cs = admit(&ws).unwrap();
        assert_eq!(cs.workloads.len(), 2);
        assert!(cs.total_utilization <= 1.0);
        assert!(cs.spare >= 0.0);
        // Utilizations add.
        let sum: f64 = cs.workloads.iter().map(|w| w.schedule.utilization).sum();
        assert!((sum - cs.total_utilization).abs() < 1e-12);
    }

    #[test]
    fn overcommitment_is_detected() {
        let p = blast();
        // Each of these needs a large chunk of the device.
        let ws = [workload(&p, 10.0, 2.5e4), workload(&p, 10.0, 2.5e4)];
        match admit(&ws) {
            Err(AdmissionError::Overcommitted { required }) => {
                assert!(required > 1.0, "{required}");
            }
            other => panic!("expected overcommit, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_workload_is_identified_by_index() {
        let p = blast();
        let ws = [workload(&p, 30.0, 2e5), workload(&p, 10.0, 1000.0)];
        match admit(&ws) {
            Err(AdmissionError::WorkloadInfeasible { index, .. }) => assert_eq!(index, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replica_count_matches_manual_admission() {
        let p = blast();
        let w = workload(&p, 30.0, 2e5);
        let n = max_replicas(&w).unwrap();
        assert!(n >= 1, "at least one replica must fit");
        // n replicas fit...
        let ws: Vec<Workload<'_>> = (0..n).map(|_| w.clone()).collect();
        assert!(admit(&ws).is_ok(), "{n} replicas should fit");
        // ...but n+1 do not.
        let ws: Vec<Workload<'_>> = (0..n + 1).map(|_| w.clone()).collect();
        assert!(matches!(
            admit(&ws),
            Err(AdmissionError::Overcommitted { .. })
        ));
    }

    #[test]
    fn lower_active_fraction_admits_more_replicas() {
        // The paper's §2.3 motivation made concrete: a longer deadline
        // lowers utilization, which admits more co-resident replicas.
        let p = blast();
        let tight = max_replicas(&workload(&p, 30.0, 3e4)).unwrap();
        let loose = max_replicas(&workload(&p, 30.0, 3e5)).unwrap();
        assert!(
            loose > tight,
            "deadline slack should buy co-residency: tight {tight}, loose {loose}"
        );
    }

    #[test]
    fn error_display() {
        let e = AdmissionError::Overcommitted { required: 1.5 };
        assert!(e.to_string().contains("overcommitted"));
        let e = AdmissionError::WorkloadInfeasible {
            index: 3,
            reason: "x".into(),
        };
        assert!(e.to_string().contains("workload 3"));
    }
}
