//! Synthetic deep pipeline chains for solver scaling studies.
//!
//! The paper's measured workloads are 3–5 stages deep, but the
//! scheduling machinery is built for pipelines orders of magnitude
//! deeper — micro-service meshes, compiler pass stacks, deep packet
//! inspection cascades. This module synthesizes a deterministic
//! `N`-stage chain that drives the exact water-filling solver and the
//! KKT certificate's banded multiplier solve at depth: stage `i` costs
//! `base_service + service_step·i`
//! cycles and passes each item independently with probability
//! `pass_rate` (a Bernoulli gain), giving smooth geometric attenuation
//! down the chain.
//!
//! Synthesis takes no RNG: the spec is a pure function of the config,
//! so `--workload deepchain:N` runs (and the `solver_deep` bench built
//! on them) are reproducible across machines by construction.

use dataflow_model::{GainModel, ModelError, PipelineSpec, PipelineSpecBuilder};
use serde::{Deserialize, Serialize};

/// Deep-chain parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeepChainConfig {
    /// Number of pipeline stages (`N`).
    pub stages: usize,
    /// Service time of stage 0, in cycles under the 1/N share.
    pub base_service: f64,
    /// Per-stage service-time increment: stage `i` costs
    /// `base_service + service_step·i`. A nonzero step keeps the
    /// water-filling levels distinct so deep solves don't degenerate
    /// into one flat tier.
    pub service_step: f64,
    /// Bernoulli pass probability of every stage.
    pub pass_rate: f64,
    /// SIMD width.
    pub vector_width: u32,
}

impl Default for DeepChainConfig {
    fn default() -> Self {
        DeepChainConfig {
            stages: 128,
            base_service: 100.0,
            service_step: 1.0,
            pass_rate: 0.9,
            vector_width: 128,
        }
    }
}

/// Build the deterministic deep chain described by `config`.
pub fn synthesize(config: &DeepChainConfig) -> Result<PipelineSpec, ModelError> {
    let mut builder = PipelineSpecBuilder::new(config.vector_width);
    for i in 0..config.stages {
        builder = builder.stage(
            format!("s{i}"),
            config.base_service + config.service_step * i as f64,
            GainModel::Bernoulli {
                p: config.pass_rate,
            },
        );
    }
    builder.build()
}

/// An `n`-stage chain with the default service/gain profile — the shape
/// the `solver_deep` bench and the `deepchain:N` CLI workload use.
pub fn deep_chain(n: usize) -> Result<PipelineSpec, ModelError> {
    synthesize(&DeepChainConfig {
        stages: n,
        ..DeepChainConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesis_is_deterministic_and_sized() {
        let a = deep_chain(512).unwrap();
        let b = deep_chain(512).unwrap();
        assert_eq!(a.len(), 512);
        assert_eq!(a.service_times(), b.service_times());
        assert_eq!(a.service_times()[0], 100.0);
        assert_eq!(a.service_times()[511], 611.0);
        for g in a.mean_gains() {
            assert!((g - 0.9).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_stage_chain_is_a_model_error() {
        assert!(deep_chain(0).is_err());
    }

    #[test]
    fn deep_chain_is_schedulable_and_certified() {
        use dataflow_model::{RtParams, Topology};
        use rtsdf_core::{minimal_periods, EnforcedProblem};

        let p = Topology::chain(&deep_chain(128).unwrap());
        let b = EnforcedProblem::optimistic_backlog(&p);
        let min_d: f64 = minimal_periods(&p)
            .iter()
            .zip(&b)
            .map(|(x, bi)| x * bi)
            .sum();
        let params = RtParams::new(5.0, min_d * 2.0).unwrap();
        let prob = EnforcedProblem::new(&p, params, b);
        let s = prob.solve().unwrap();
        assert!(s.active_fraction > 0.0 && s.active_fraction <= 1.0);
        let kkt = prob.verify_kkt(&s.periods, 1e-5);
        assert!(kkt.is_optimal(1e-3), "{kkt:?}");
    }
}
