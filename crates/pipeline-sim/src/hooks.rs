//! The one bundle of optional run layers both simulators take, and the
//! typed errors of their entry points.
//!
//! Each strategy has one entry point, [`crate::enforced::simulate`] and
//! [`crate::monolithic::simulate`], and every optional layer of a run
//! rides in [`Hooks`]. The layers are independent `Option`s: a `None`
//! costs one untaken branch per hook, and any subset may be enabled at
//! once (observed and perturbed, traced and live, …) without changing a
//! simulated bit.

use crate::faults::MitigationPolicy;
use crate::live::SimLive;
use dataflow_model::{GainSampler, ModelError, Perturbation, Topology};
use des::obs::ObsSink;
use obs_trace::SpanSink;
use std::fmt;

/// Optional instrumentation and fault injection for one simulated run.
///
/// `Hooks::default()` enables nothing: the plain run. The sinks stay
/// owned by the caller, who reads them once the run returns —
/// [`ObsSink::report`] for the aggregate statistics, or
/// [`SpanSink::finish`] followed by [`obs_trace::analyze`] for spans and
/// deadline-miss blame.
#[derive(Default)]
pub struct Hooks<'a> {
    /// Aggregate observability: per-node queue-depth, occupancy and
    /// sojourn distributions, event counters and (if configured) a
    /// recent-event trace. Must be sized for the topology's node count.
    pub obs: Option<&'a mut ObsSink>,
    /// Causal span tracing: per-firing spans, per-item stage visits (the
    /// enforced-wait / queue-wait / service sojourn decomposition) and
    /// per-input fates.
    pub spans: Option<&'a mut SpanSink>,
    /// Live publishing into a metrics registry: item counters,
    /// queue-depth high-water marks and wall-clock throughput (see
    /// [`crate::live`]).
    pub live: Option<&'a SimLive<'a>>,
    /// Fault injection with graceful degradation. The perturbation's
    /// arrival faults, service faults and gain drift draw from dedicated
    /// RNG substreams, so a zero-intensity perturbation reproduces the
    /// unperturbed run bit for bit. The enforced simulator applies the
    /// policy's load shedding and online wait escalation. The monolithic
    /// simulator reads only the perturbation: that strategy has no
    /// admission or re-solve hook, so no policy applies to it.
    pub faults: Option<(&'a Perturbation, &'a MitigationPolicy)>,
}

impl Hooks<'_> {
    /// The entry checks every strategy shares: a sink sized for the
    /// topology and a valid perturbation.
    pub(crate) fn check(&self, nodes: usize) -> Result<(), SimError> {
        if let Some(sink) = self.obs.as_deref() {
            if sink.num_stages() != nodes {
                return Err(SimError::ObsSinkLength {
                    nodes,
                    got: sink.num_stages(),
                });
            }
        }
        if let Some((perturb, _)) = self.faults {
            perturb.validate().map_err(SimError::InvalidPerturbation)?;
        }
        Ok(())
    }

    /// The run's gain samplers: one per edge of `topology`, after the
    /// fault layer's gain drift.
    pub(crate) fn samplers(&self, topology: &Topology) -> Result<Vec<GainSampler>, SimError> {
        topology
            .samplers(self.faults.map(|(perturb, _)| perturb))
            .map_err(SimError::InvalidGain)
    }
}

/// Why a simulator rejected its input before running.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The schedule has `got` per-node entries; the topology has `nodes`.
    ScheduleLength {
        /// Nodes in the topology.
        nodes: usize,
        /// Entries in the schedule.
        got: usize,
    },
    /// The observability sink tracks `got` stages; the topology has
    /// `nodes`.
    ObsSinkLength {
        /// Nodes in the topology.
        nodes: usize,
        /// Stages the sink was built for.
        got: usize,
    },
    /// The perturbation failed [`Perturbation::validate`].
    InvalidPerturbation(ModelError),
    /// An edge's gain law, after any drift, has no sampler
    /// ([`ModelError::InvalidEdgeGain`], see [`Topology::samplers`]).
    InvalidGain(ModelError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ScheduleLength { nodes, got } => {
                write!(
                    f,
                    "schedule has {got} entries but the topology has {nodes} nodes"
                )
            }
            SimError::ObsSinkLength { nodes, got } => {
                write!(
                    f,
                    "obs sink tracks {got} stages but the topology has {nodes} nodes"
                )
            }
            SimError::InvalidPerturbation(e) => write!(f, "invalid perturbation: {e}"),
            SimError::InvalidGain(e) => write!(f, "invalid gain law: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::{enforced, monolithic};
    use dataflow_model::{GainModel, PipelineSpecBuilder, RtParams, Topology};
    use des::obs::ObsConfig;
    use rtsdf_core::{EnforcedProblem, MonolithicProblem};

    /// Each bad input, fed to both strategies, is an `Err` naming it,
    /// not a panic. A monolithic schedule has no per-node entries, so
    /// the schedule-length cases reach only the enforced strategy.
    #[test]
    fn bad_input_is_an_error_for_both_strategies() {
        let p = PipelineSpecBuilder::new(4)
            .stage("a", 10.0, GainModel::Deterministic { k: 1 })
            .stage("b", 20.0, GainModel::Bernoulli { p: 0.5 })
            .build()
            .unwrap();
        let t = Topology::chain(&p);
        let params = RtParams::new(10.0, 1e4).unwrap();
        let waits = EnforcedProblem::new(&Topology::chain(&p), params, vec![1.0, 1.0])
            .solve()
            .unwrap();
        let blocks = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 0, 100);
        let negative = Perturbation {
            spike_prob: -0.5,
            ..Perturbation::standard(1.0)
        };
        let policy = MitigationPolicy::full();

        enum Bad {
            Periods,
            BacklogFactors,
            ObsSink,
            Perturbation,
        }
        for bad in [
            Bad::Periods,
            Bad::BacklogFactors,
            Bad::ObsSink,
            Bad::Perturbation,
        ] {
            for on_enforced in [true, false] {
                let mut sched = waits.clone();
                let mut sink = ObsSink::new(3, ObsConfig::default());
                let mut hooks = Hooks::default();
                let want = match bad {
                    Bad::Periods => {
                        sched.periods.pop();
                        SimError::ScheduleLength { nodes: 2, got: 1 }
                    }
                    Bad::BacklogFactors => {
                        sched.backlog_factors.push(1.0);
                        SimError::ScheduleLength { nodes: 2, got: 3 }
                    }
                    Bad::ObsSink => {
                        hooks.obs = Some(&mut sink);
                        SimError::ObsSinkLength { nodes: 2, got: 3 }
                    }
                    Bad::Perturbation => {
                        hooks.faults = Some((&negative, &policy));
                        SimError::InvalidPerturbation(negative.validate().unwrap_err())
                    }
                };
                let got = if on_enforced {
                    enforced::simulate(&t, &sched, 1e4, &cfg, hooks)
                } else if matches!(bad, Bad::Periods | Bad::BacklogFactors) {
                    continue;
                } else {
                    monolithic::simulate(&t, &blocks, 1e4, &cfg, hooks)
                };
                assert_eq!(got.unwrap_err(), want);
            }
        }
    }

    /// A valid perturbation whose gain drift overflows a Poisson mean to
    /// infinity leaves that edge without a sampler: a typed error from
    /// both strategies, not a panic mid-run.
    #[test]
    fn drift_past_any_sampler_is_an_error() {
        let p = PipelineSpecBuilder::new(4)
            .stage(
                "a",
                10.0,
                GainModel::CensoredPoisson {
                    mean: 1.92,
                    cap: 16,
                },
            )
            .stage("b", 20.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let t = Topology::chain(&p);
        let params = RtParams::new(100.0, 1e6).unwrap();
        let waits = EnforcedProblem::new(&Topology::chain(&p), params, vec![1.0, 1.0])
            .solve()
            .unwrap();
        let blocks = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(100.0, 0, 100);
        let drift = Perturbation {
            gain_drift: f64::MAX,
            ..Perturbation::standard(1.0)
        };
        assert!(drift.validate().is_ok());
        let policy = MitigationPolicy::full();
        let hooks = || Hooks {
            faults: Some((&drift, &policy)),
            ..Hooks::default()
        };
        for got in [
            enforced::simulate(&t, &waits, 1e6, &cfg, hooks()),
            monolithic::simulate(&t, &blocks, 1e6, &cfg, hooks()),
        ] {
            assert!(matches!(
                got,
                Err(SimError::InvalidGain(ModelError::InvalidEdgeGain {
                    edge: 0,
                    ..
                }))
            ));
        }
    }
}
