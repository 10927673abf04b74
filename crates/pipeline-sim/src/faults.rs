//! Fault application and graceful-degradation policies.
//!
//! The crate-private `FaultState` realizes a [`Perturbation`]'s
//! service-side effects (sustained inflation, tail spikes, transient
//! preemption stalls) with dedicated RNG substreams, so the unperturbed
//! arrival/gain draws are untouched and a zero-intensity perturbation is
//! bit-identical to an unperturbed run.
//!
//! [`MitigationPolicy`] selects the runtime's graceful-degradation
//! responses for the enforced-waits simulator:
//!
//! * **deadline-aware load shedding** — an arrival predicted to miss
//!   its deadline (given current queue depths against the design
//!   backlog factors) is dropped at admission and accounted in
//!   [`crate::metrics::SimMetrics::items_shed`], keeping the *admitted*
//!   stream's miss rate low;
//! * **online escalation** — when observed backlog exceeds the design
//!   `b_i`, the waits are re-solved at the observed ceilings
//!   ([`rtsdf_core::policy::escalate_schedule`]).

use dataflow_model::Perturbation;
use des::rng::RngStream;
use serde::{Deserialize, Serialize};

/// RNG substream labels reserved for fault injection. The plain
/// simulators use label 0 (arrivals) and `1 + i` per stage (gains);
/// fault streams start far above so the two families never collide.
pub(crate) const FAULT_ARRIVAL_STREAM: u64 = 999;
pub(crate) const FAULT_STAGE_STREAM_BASE: u64 = 1_000;

/// Which graceful-degradation responses the enforced-waits runtime
/// applies while simulating under faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigationPolicy {
    /// Shed arrivals predicted to miss their deadline at admission.
    pub shed: bool,
    /// Re-solve the waits when observed backlog exceeds the design
    /// factors.
    pub escalate: bool,
    /// Extra vectors of observed backlog tolerated beyond the design
    /// factor before an escalation triggers.
    pub escalate_headroom: f64,
    /// Upper bound on online re-solves per run (escalation is disabled
    /// after the budget is spent or after an infeasible re-solve).
    pub max_resolves: u32,
}

impl MitigationPolicy {
    /// No mitigation: faults land unmitigated (the baseline the
    /// robustness report compares against).
    pub fn none() -> Self {
        MitigationPolicy {
            shed: false,
            escalate: false,
            escalate_headroom: 0.0,
            max_resolves: 0,
        }
    }

    /// Both responses enabled with default tuning.
    pub fn full() -> Self {
        MitigationPolicy {
            shed: true,
            escalate: true,
            escalate_headroom: 0.0,
            max_resolves: 8,
        }
    }

    /// Load shedding only.
    pub fn shed_only() -> Self {
        MitigationPolicy {
            shed: true,
            ..MitigationPolicy::none()
        }
    }
}

/// Realized service-side faults for one run: per-stage substreams plus
/// the effective (intensity-scaled) parameters.
pub(crate) struct FaultState {
    multiplier: f64,
    spike_p: f64,
    spike_factor: f64,
    stall_p: f64,
    stall_cycles: f64,
    rngs: Vec<RngStream>,
}

impl FaultState {
    /// Build from a perturbation and the run's master stream. Substream
    /// derivation is pure, so this never advances the master.
    pub(crate) fn new(perturb: &Perturbation, master: &RngStream, stages: usize) -> Self {
        FaultState {
            multiplier: perturb.service_multiplier(),
            spike_p: perturb.spike_p(),
            spike_factor: perturb.spike_factor,
            stall_p: perturb.stall_p(),
            stall_cycles: perturb.stall_cycles,
            rngs: (0..stages)
                .map(|i| master.substream(FAULT_STAGE_STREAM_BASE + i as u64))
                .collect(),
        }
    }

    /// Effective service time of one firing of `node` whose nominal
    /// service is `base` cycles, on the integer clock. Exactly two
    /// draws are consumed per call (spike, stall) at every intensity,
    /// and at intensity 0 the result is exactly `base`.
    pub(crate) fn service_cycles(&mut self, node: usize, base: u64) -> u64 {
        let rng = &mut self.rngs[node];
        let spike = rng.next_f64() < self.spike_p;
        let stall = rng.next_f64() < self.stall_p;
        let mut s = base as f64 * self.multiplier;
        if spike {
            s *= self.spike_factor;
        }
        if stall {
            s += self.stall_cycles;
        }
        (s.round() as u64).max(1)
    }

    /// Effective busy time of one stage of a monolithic block
    /// (`firings` firings of nominal service `service`), on the
    /// continuous clock. Two draws per call; exactly
    /// `firings · service` at intensity 0.
    pub(crate) fn block_busy(&mut self, node: usize, firings: u64, service: f64) -> f64 {
        let rng = &mut self.rngs[node];
        let spike = rng.next_f64() < self.spike_p;
        let stall = rng.next_f64() < self.stall_p;
        let mut s = firings as f64 * service * self.multiplier;
        if spike {
            s *= self.spike_factor;
        }
        if stall {
            s += self.stall_cycles;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_intensity_faults_are_exact_identity() {
        let p = Perturbation::standard(0.0);
        let master = RngStream::new(7);
        let mut f = FaultState::new(&p, &master, 3);
        for node in 0..3 {
            for base in [1u64, 287, 2753] {
                assert_eq!(f.service_cycles(node, base), base);
            }
            assert_eq!(f.block_busy(node, 5, 287.0), 5.0 * 287.0);
        }
    }

    #[test]
    fn inflation_scales_service() {
        let mut p = Perturbation::standard(1.0);
        p.spike_prob = 0.0;
        p.stall_prob = 0.0;
        p.service_inflation = 0.5;
        let master = RngStream::new(7);
        let mut f = FaultState::new(&p, &master, 1);
        assert_eq!(f.service_cycles(0, 1000), 1500);
        assert!((f.block_busy(0, 2, 1000.0) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn spikes_and_stalls_occur_at_high_probability() {
        let mut p = Perturbation::standard(1.0);
        p.service_inflation = 0.0;
        p.spike_prob = 1.0;
        p.spike_factor = 3.0;
        p.stall_prob = 1.0;
        p.stall_cycles = 100.0;
        let master = RngStream::new(7);
        let mut f = FaultState::new(&p, &master, 1);
        assert_eq!(f.service_cycles(0, 10), 130); // 10*3 + 100
    }

    #[test]
    fn fault_draws_are_deterministic_per_seed() {
        let p = Perturbation::standard(0.8);
        let mk = || {
            let master = RngStream::new(42);
            let mut f = FaultState::new(&p, &master, 2);
            (0..50)
                .map(|k| f.service_cycles(k % 2, 500))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn policy_constructors() {
        assert!(!MitigationPolicy::none().shed);
        assert!(!MitigationPolicy::none().escalate);
        assert!(MitigationPolicy::full().shed);
        assert!(MitigationPolicy::full().escalate);
        assert!(MitigationPolicy::shed_only().shed);
        assert!(!MitigationPolicy::shed_only().escalate);
    }
}
