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
//! Each strategy has one entry point over a [`dataflow_model::Topology`]
//! (a chain is [`dataflow_model::Topology::chain`]); the tools built on
//! them ([`calibration`], [`validate`], [`timeline`]) take the same
//! `Topology`. Every optional layer of a run — aggregate observability,
//! causal span tracing, live metrics, fault injection — rides in one
//! [`Hooks`] bundle. Bad input is a typed [`SimError`], not a panic:
//!
//! ```
//! use dataflow_model::{GainModel, PipelineSpecBuilder, RtParams, Topology};
//! use des::obs::ObsSink;
//! use pipeline_sim::{enforced, Hooks, SimConfig};
//! use rtsdf_core::EnforcedProblem;
//!
//! let p = PipelineSpecBuilder::new(4)
//!     .stage("a", 10.0, GainModel::Deterministic { k: 1 })
//!     .stage("b", 20.0, GainModel::Deterministic { k: 1 })
//!     .build()
//!     .unwrap();
//! let t = Topology::chain(&p);
//! let params = RtParams::new(10.0, 1e4).unwrap();
//! let sched = EnforcedProblem::new(&t, params, vec![1.0, 1.0]).solve().unwrap();
//! let cfg = SimConfig::quick(10.0, 1, 500);
//!
//! let plain = enforced::simulate(&t, &sched, 1e4, &cfg, Hooks::default())?;
//! let mut sink = ObsSink::new(t.len());
//! let hooks = Hooks { obs: Some(&mut sink), ..Hooks::default() };
//! let observed = enforced::simulate(&t, &sched, 1e4, &cfg, hooks)?;
//! assert_eq!(plain.active_fraction, observed.active_fraction);
//! assert_eq!(sink.report().counters.completions, observed.items_completed);
//! # Ok::<(), pipeline_sim::SimError>(())
//! ```
//!
//! Modules:
//!
//! * [`enforced`] — the enforced-waits runtime: every node fires
//!   periodically with its optimized period `t_i + w_i`.
//! * [`monolithic`] — the block-batching runtime: accumulate `M` items,
//!   push the whole block through the pipeline at once.
//! * [`hooks`] — the [`Hooks`] bundle and the entry points' [`SimError`].
//! * [`runner`] — multi-run experiment execution on one job queue
//!   (parallel across runs), mirroring the paper's 100-runs-per-point
//!   methodology.
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
//! * [`timeline`] — per-firing Gantt timelines of an enforced schedule.
//!
//! Outside the frozen [`reference`](mod@reference) oracles and the
//! hidden forwards kept for the `rtbench/` harness, no public item takes
//! a `PipelineSpec`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
mod compat;
pub mod config;
pub mod enforced;
pub mod faults;
pub mod hooks;
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

pub use config::SimConfig;
pub use faults::MitigationPolicy;
pub use hooks::{Hooks, SimError};
pub use live::{SimLive, SimLiveMetrics};
pub use metrics::SimMetrics;
pub use robustness::{robustness_report, RobustnessPoint, RobustnessReport, StressSummary};
pub use runner::{run_seeds, MultiSeedReport};

// Kept only for the frozen `rtbench/` benchmark (see `compat`).
#[doc(hidden)]
pub use compat::{
    robustness_report_topology_live, run_seeds_enforced, run_seeds_monolithic, simulate_enforced,
    simulate_enforced_topology_perturbed, simulate_enforced_topology_perturbed_live,
    simulate_monolithic, simulate_monolithic_topology_perturbed,
    simulate_monolithic_topology_perturbed_live,
};
