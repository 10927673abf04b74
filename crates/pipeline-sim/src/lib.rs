//! # pipeline-sim — discrete-event simulation of irregular SIMD pipelines
//!
//! This crate is the simulator of the paper's §6.2: it executes a
//! pipeline on the §2.2 system model (one processor, 1/N share per node,
//! SIMD vector width `v`) under either scheduling strategy, processes a
//! long stream of inputs, and reports
//!
//! * how many inputs missed their deadline (the schedulability check),
//! * the **measured** active fraction (validated against the optimizer's
//!   prediction — §6.2 notes they match closely),
//! * per-node lane occupancy and queue high-water marks (the empirical
//!   counterpart of the backlog factors `b_i`).
//!
//! Modules:
//!
//! * [`enforced`] — the enforced-waits runtime: every node fires
//!   periodically with its optimized period `t_i + w_i`.
//! * [`monolithic`] — the block-batching runtime: accumulate `M` items,
//!   push the whole block through the pipeline at once.
//! * [`runner`] — multi-seed experiment execution (parallel across
//!   seeds), mirroring the paper's 100-runs-per-point methodology.
//! * [`calibration`] — the §6.2 empirical search for backlog factors:
//!   start from the optimistic `b_i = ⌈g_i⌉`, simulate, escalate the
//!   factors of nodes whose queues overflow the design assumption, and
//!   repeat until a target fraction of seeds is miss-free.
//! * [`faults`] — fault injection (realizing a
//!   [`dataflow_model::Perturbation`]) and the graceful-degradation
//!   [`MitigationPolicy`] (deadline-aware load shedding, online wait
//!   escalation).
//! * [`robustness`] — perturbation-intensity sweeps: degradation curves
//!   and the robustness margin of each strategy.
//! * [`validate`] — optimizer-vs-simulator agreement checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod calibration;
pub mod config;
pub mod enforced;
pub mod faults;
mod item;
pub mod live;
pub mod metrics;
pub mod monolithic;
pub mod reference;
pub mod robustness;
pub mod runner;
pub mod soa;
pub mod timeline;
pub mod validate;

pub use backend::DesBackend;
pub use config::SimConfig;
pub use enforced::{
    simulate_enforced, simulate_enforced_observed, simulate_enforced_perturbed,
    simulate_enforced_topology, simulate_enforced_topology_observed,
    simulate_enforced_topology_perturbed, simulate_enforced_topology_traced,
    simulate_enforced_traced,
};
pub use enforced::{
    simulate_enforced_live, simulate_enforced_perturbed_live, simulate_enforced_topology_live,
    simulate_enforced_topology_perturbed_live,
};
pub use faults::MitigationPolicy;
pub use live::{SimLive, SimLiveMetrics};
pub use metrics::SimMetrics;
pub use monolithic::{
    simulate_monolithic, simulate_monolithic_live, simulate_monolithic_observed,
    simulate_monolithic_perturbed, simulate_monolithic_perturbed_live,
    simulate_monolithic_topology, simulate_monolithic_topology_live,
    simulate_monolithic_topology_observed, simulate_monolithic_topology_perturbed,
    simulate_monolithic_topology_perturbed_live, simulate_monolithic_topology_traced,
    simulate_monolithic_traced,
};
pub use robustness::{
    robustness_report, robustness_report_live, robustness_report_topology_live, RobustnessPoint,
    RobustnessReport, StressSummary,
};
pub use runner::{
    run_seeds_enforced, run_seeds_enforced_perturbed, run_seeds_enforced_perturbed_live,
    run_seeds_enforced_topology, run_seeds_enforced_topology_perturbed_live, run_seeds_monolithic,
    run_seeds_monolithic_perturbed, run_seeds_monolithic_perturbed_live,
    run_seeds_monolithic_topology, run_seeds_monolithic_topology_perturbed_live, MultiSeedReport,
};
