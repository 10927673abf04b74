//! # rtsdf-core — real-time scheduling strategies for irregular SIMD pipelines
//!
//! This crate implements the central contribution of *Enabling Real-Time
//! Irregular Data-Flow Pipelines on SIMD Devices* (Plano & Buhler,
//! SRMPDS '21): choosing schedules that minimize a streaming pipeline's
//! **active fraction** subject to throughput stability and a per-item
//! end-to-end deadline.
//!
//! Two strategies are provided:
//!
//! * [`enforced`] — **enforced waits** (paper §4): each node `n_i` waits
//!   a fixed `w_i` after every firing, so its firing period is
//!   `x_i = t_i + w_i`. The optimal waits solve the convex program of the
//!   paper's Figure 1 by exact water-filling (an exact deadline price
//!   over a pool-adjacent-violators inner solve, with zero-gain stages
//!   splitting the chain into segments). A dense interior point is kept
//!   as the oracle the tests compare against, and a KKT verifier
//!   ([`kkt`]) certifies both.
//! * [`monolithic`] — **monolithic batching** (paper §5): accumulate
//!   blocks of `M` inputs and run the whole pipeline per block. The
//!   optimal `M` solves the one-dimensional integer program of the
//!   paper's Figure 2, on chains and DAGs alike, by an exact search over
//!   the ceiling breakpoints of the block time, checked against an
//!   exhaustive scan.
//!
//! [`comparison`] sweeps both strategies over an `(τ0, D)` grid to
//! regenerate the paper's Figures 3 and 4, and [`feasibility`] provides
//! the shared schedulability analysis (which operating points admit any
//! schedule at all).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparison;
pub mod coschedule;
pub mod dag;
pub mod enforced;
pub mod feasibility;
pub mod flexible;
pub mod frontier;
pub mod kkt;
pub mod monolithic;
pub mod policy;
mod price;
pub mod schedule;
pub mod telemetry;
pub mod threads;

pub use dag::{
    check_topology_feasibility, escalate_schedule_topology, topology_minimal_periods,
    verify_kkt_dag, EnforcedDagProblem,
};
pub use enforced::{EnforcedWaitsProblem, WaitSchedule};
pub use feasibility::{check_enforced_feasibility, minimal_periods, FeasibilityError};
pub use flexible::{FlexibleSchedule, FlexibleSharesProblem};
pub use monolithic::{BlockTable, MonolithicDagProblem, MonolithicProblem, MonolithicSchedule};
pub use policy::{escalate_schedule, needs_escalation};
pub use schedule::{AnySchedule, ScheduleError};
pub use telemetry::{CellTelemetry, SolveTelemetry};
pub use threads::{run_jobs, worker_threads};
