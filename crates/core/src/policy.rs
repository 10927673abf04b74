//! Online escalation policy: re-solving the waits when reality departs
//! from the calibrated backlog assumption.
//!
//! The Fig.-1 program designs waits against worst-case backlog factors
//! `b_i`. When a running system observes queue high-water marks above
//! the design assumption (model drift, device preemption, bursts), the
//! schedule's deadline bound `Σ b_i·x_i ≤ D` no longer covers reality.
//! [`escalate_schedule`] is the runtime's repair step: raise the
//! factors to the observed ceilings and re-solve the waits. The exact
//! water-filling solve takes microseconds, cheap enough to run online.

use crate::enforced::{EnforcedProblem, WaitSchedule};
use crate::schedule::ScheduleError;
use dataflow_model::{RtParams, Topology};

/// Raise backlog factors to observed ceilings and re-solve the waits.
///
/// `design_b` is the factor vector the current schedule was built for;
/// `observed_vectors` is the per-node empirical backlog high-water mark
/// in vectors. The new factors are `max(design_b_i, ⌈observed_i⌉)`.
///
/// Returns the re-solved schedule (its `backlog_factors` carry the
/// escalated `b`), or the scheduling error if no feasible schedule
/// exists at the raised factors — in which case the caller should keep
/// its current schedule and degrade by other means (e.g. shedding).
/// Slices whose lengths disagree with the topology are
/// [`ScheduleError::InvalidParams`].
pub fn escalate_schedule(
    topology: &Topology,
    params: RtParams,
    design_b: &[f64],
    observed_vectors: &[f64],
) -> Result<WaitSchedule, ScheduleError> {
    let b = escalated_factors(topology.len(), design_b, observed_vectors)?;
    EnforcedProblem::new(topology, params, b).solve()
}

/// The escalated factors `max(design_b_i, ⌈observed_i⌉, 1)` for `n`
/// nodes, or [`ScheduleError::InvalidParams`] when a slice has the wrong
/// length.
fn escalated_factors(
    n: usize,
    design_b: &[f64],
    observed_vectors: &[f64],
) -> Result<Vec<f64>, ScheduleError> {
    if design_b.len() != n || observed_vectors.len() != n {
        return Err(ScheduleError::InvalidParams(format!(
            "escalation needs {n} design and observed factors, got {} and {}",
            design_b.len(),
            observed_vectors.len()
        )));
    }
    Ok(design_b
        .iter()
        .zip(observed_vectors)
        .map(|(&bi, &obs)| bi.max(obs.ceil()).max(1.0))
        .collect())
}

/// True if any observed backlog exceeds its design factor by more than
/// `headroom` vectors — the trigger condition for [`escalate_schedule`].
pub fn needs_escalation(design_b: &[f64], observed_vectors: &[f64], headroom: f64) -> bool {
    design_b
        .iter()
        .zip(observed_vectors)
        .any(|(&bi, &obs)| obs > bi + headroom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::blast_chain as blast;

    #[test]
    fn trigger_condition() {
        assert!(!needs_escalation(&[1.0, 3.0], &[1.0, 3.0], 0.0));
        assert!(needs_escalation(&[1.0, 3.0], &[1.0, 3.5], 0.0));
        assert!(!needs_escalation(&[1.0, 3.0], &[1.0, 3.5], 1.0));
    }

    #[test]
    fn escalation_raises_factors_and_tightens_latency_bound() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let design_b = vec![1.0, 3.0, 9.0, 6.0];
        let base = EnforcedProblem::new(&p, params, design_b.clone())
            .solve()
            .unwrap();
        // Stage 1 observed at 4.3 vectors against a design of 3.
        let observed = vec![1.0, 4.3, 2.0, 1.0];
        let escalated = escalate_schedule(&p, params, &design_b, &observed).unwrap();
        assert_eq!(escalated.backlog_factors, vec![1.0, 5.0, 9.0, 6.0]);
        // More conservative factors can only push the schedule toward
        // shorter periods (more activity) to keep the deadline.
        assert!(escalated.active_fraction >= base.active_fraction - 1e-9);
        assert!(escalated.latency_bound <= params.deadline + 1e-6);
    }

    #[test]
    fn escalation_matches_cold_solve_at_raised_factors() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let design_b = vec![1.0, 3.0, 9.0, 6.0];
        let observed = vec![2.6, 3.0, 9.0, 7.9];
        let escalated = escalate_schedule(&p, params, &design_b, &observed).unwrap();
        let direct = EnforcedProblem::new(&p, params, vec![3.0, 3.0, 9.0, 8.0])
            .solve()
            .unwrap();
        assert_eq!(escalated.periods, direct.periods);
    }

    #[test]
    fn infeasible_escalation_reports_error() {
        let p = blast();
        // Deadline so tight that raised factors cannot fit.
        let params = RtParams::new(10.0, 8_000.0).unwrap();
        let design_b = vec![1.0, 1.0, 1.0, 1.0];
        let observed = vec![40.0, 40.0, 40.0, 40.0];
        assert!(escalate_schedule(&p, params, &design_b, &observed).is_err());
    }

    #[test]
    fn mismatched_lengths_are_invalid_params_not_a_panic() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let short = [1.0, 3.0];
        let full = [1.0, 3.0, 9.0, 6.0];
        for result in [
            escalate_schedule(&p, params, &short, &full),
            escalate_schedule(&p, params, &full, &short),
        ] {
            assert!(
                matches!(result, Err(ScheduleError::InvalidParams(_))),
                "{result:?}"
            );
        }
    }
}
