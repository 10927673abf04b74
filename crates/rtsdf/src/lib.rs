//! # rtsdf — real-time irregular streaming dataflow on SIMD devices
//!
//! A from-scratch implementation of *Enabling Real-Time Irregular
//! Data-Flow Pipelines on SIMD Devices* (Plano & Buhler, SRMPDS '21),
//! packaged as one facade over the workspace's crates:
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`model`] | `dataflow-model` | pipelines, gains, arrivals, active-fraction algebra |
//! | [`core`] | `rtsdf-core` | enforced-waits & monolithic optimizers, KKT certification, Fig. 3/4 sweeps |
//! | [`sim`] | `pipeline-sim` | discrete-event simulator, multi-seed runner, §6.2 calibration |
//! | [`exec`] | `rtsdf-exec` | threaded execution backend, sim-vs-real cross-validation |
//! | [`device`] | `simd-device` | SIMT machine, occupancy & share accounting |
//! | [`queueing`] | `queueing` | bulk-service queues, a-priori backlog estimation |
//! | [`blast`] | `blast` | the paper's BLAST test application |
//! | [`apps`] | `apps` | gamma-ray burst, IDS, ML cascade pipelines |
//! | [`engine`] | `des` | the generic discrete-event engine |
//! | [`trace`] | `obs-trace` | causal span traces, Chrome/Perfetto export, deadline-miss forensics |
//! | [`metrics`] | `metrics` | lock-free live-metrics registry, Prometheus/JSON export, `/metrics` server |
//!
//! ## Quickstart
//!
//! ```
//! use rtsdf::prelude::*;
//!
//! // The paper's BLAST pipeline (Table 1) at τ0 = 10 cycles/item,
//! // deadline 10^5 cycles.
//! let pipeline = rtsdf::blast::paper_pipeline();
//! let params = RtParams::new(10.0, 1e5).unwrap();
//!
//! // Optimize both strategies.
//! let enforced = EnforcedWaitsProblem::new(&pipeline, params, vec![1.0, 3.0, 9.0, 6.0])
//!     .solve()
//!     .unwrap();
//! let monolithic = MonolithicProblem::new(&pipeline, params, 1.0, 1.0)
//!     .solve()
//!     .unwrap();
//!
//! // Enforced waits should win at this fast arrival rate.
//! assert!(enforced.active_fraction < monolithic.active_fraction);
//!
//! // And the simulator should agree with the optimizer's prediction.
//! let cfg = SimConfig::quick(10.0, 42, 2_000);
//! let measured = simulate_enforced(&pipeline, &enforced, 1e5, &cfg);
//! let rel = (measured.active_fraction - enforced.active_fraction).abs()
//!     / enforced.active_fraction;
//! assert!(rel < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use apps;
pub use blast;
pub use dataflow_model as model;
pub use des as engine;
pub use metrics;
pub use obs_trace as trace;
pub use pipeline_sim as sim;
pub use queueing;
pub use rtsdf_core as core;
pub use rtsdf_exec as exec;
pub use simd_device as device;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use dataflow_model::{
        ArrivalProcess, GainModel, ModelError, NodeSpec, Perturbation, PipelineSpec,
        PipelineSpecBuilder, RtParams,
    };
    pub use pipeline_sim::{
        robustness_report, run_seeds_enforced, run_seeds_enforced_perturbed, run_seeds_monolithic,
        run_seeds_monolithic_perturbed, simulate_enforced, simulate_enforced_perturbed,
        simulate_enforced_traced, simulate_monolithic, simulate_monolithic_perturbed,
        simulate_monolithic_traced, MitigationPolicy, MultiSeedReport, RobustnessReport, SimConfig,
        SimMetrics,
    };
    pub use rtsdf_core::{
        EnforcedWaitsProblem, MonolithicProblem, MonolithicSchedule, ScheduleError, WaitSchedule,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reaches_every_crate() {
        // Touch one symbol from each re-exported crate so the facade's
        // wiring is compile-checked.
        let _ = crate::blast::paper_pipeline();
        let _ = crate::model::PAPER_VECTOR_WIDTH;
        let _ = crate::engine::clock::SimTime::ZERO;
        let _ = crate::device::OccupancyStats::new();
        let _ = crate::queueing::estimate::EstimateConfig::default();
        let _ = crate::apps::gamma::GammaConfig::default();
        let _ = crate::core::comparison::SweepConfig::paper_blast();
        let _ = crate::sim::SimConfig::quick(1.0, 0, 1);
        let _ = crate::exec::ExecConfig::new(1, 0, 1.0, 1.0);
        let _ = crate::trace::TraceConfig::default();
        let _ = crate::metrics::Registry::new(1);
    }
}
