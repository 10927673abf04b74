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
//! | [`sim`] | `pipeline-sim` | discrete-event simulator (one entry point per strategy, one `Hooks` bundle), multi-seed runner, §6.2 calibration |
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
//! // deadline 10^5 cycles. The optimizers and the simulators take a
//! // `Topology`; the paper's chain is its special case.
//! let topology = Topology::chain(&rtsdf::blast::paper_pipeline());
//! let params = RtParams::new(10.0, 1e5).unwrap();
//!
//! // Optimize both strategies.
//! let waits = EnforcedProblem::new(&topology, params, vec![1.0, 3.0, 9.0, 6.0])
//!     .solve()
//!     .unwrap();
//! let blocks = MonolithicProblem::new(&topology, params, 1.0, 1.0)
//!     .solve_fast()
//!     .unwrap();
//!
//! // Enforced waits should win at this fast arrival rate.
//! assert!(waits.active_fraction < blocks.active_fraction);
//!
//! // And the simulator should agree with the optimizer's prediction.
//! // Each strategy has one simulator entry point; `Hooks` adds
//! // observability, tracing, live metrics or faults.
//! let cfg = SimConfig::quick(10.0, 42, 2_000);
//! let measured = enforced::simulate(&topology, &waits, 1e5, &cfg, Hooks::default())?;
//! let rel = (measured.active_fraction - waits.active_fraction).abs()
//!     / waits.active_fraction;
//! assert!(rel < 0.05);
//! # Ok::<(), SimError>(())
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
        PipelineSpecBuilder, RtParams, Topology,
    };
    pub use pipeline_sim::{
        enforced, monolithic, robustness_report, run_seeds, Hooks, MitigationPolicy,
        MultiSeedReport, RobustnessReport, SimConfig, SimError, SimMetrics,
    };
    pub use rtsdf_core::{
        EnforcedProblem, MonolithicProblem, MonolithicSchedule, ScheduleError, WaitSchedule,
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
