//! # rtsdf-core — real-time scheduling strategies for irregular SIMD pipelines
//!
//! This crate implements the central contribution of *Enabling Real-Time
//! Irregular Data-Flow Pipelines on SIMD Devices* (Plano & Buhler,
//! SRMPDS '21): choosing schedules that minimize a streaming pipeline's
//! **active fraction** subject to throughput stability and a per-item
//! end-to-end deadline.
//!
//! The paper states its design problems on a linear chain; this crate
//! poses them on a [`dataflow_model::Topology`] DAG, with the chain as
//! the special case ([`dataflow_model::Topology::chain`] turns the
//! paper's `PipelineSpec` into one). Two strategies are provided:
//!
//! * [`enforced`] — **enforced waits** (paper §4): each node `n_i` waits
//!   a fixed `w_i` after every firing, so its firing period is
//!   `x_i = t_i + w_i`. [`EnforcedProblem`] solves the convex program of
//!   the paper's Figure 1. On a chain that is exact water-filling (an
//!   exact deadline price over a pool-adjacent-violators inner solve,
//!   with zero-gain stages splitting the chain into segments); on other
//!   DAGs, the exact price of an order-respecting projection. A dense
//!   interior point is kept as the oracle the tests compare against,
//!   and [`EnforcedProblem::verify_kkt`] ([`kkt`]) certifies both.
//! * [`monolithic`] — **monolithic batching** (paper §5): accumulate
//!   blocks of `M` inputs and run the whole pipeline per block. The
//!   optimal `M` solves the one-dimensional integer program of the
//!   paper's Figure 2, on chains and DAGs alike, by an exact search over
//!   the ceiling breakpoints of the block time, checked against an
//!   exhaustive scan.
//!
//! [`comparison`] sweeps both strategies over an `(τ0, D)` grid to
//! regenerate the paper's Figures 3 and 4 ([`comparison::sweep`],
//! [`comparison::compare_at`]), [`feasibility`] provides the shared
//! schedulability analysis (which operating points admit any schedule
//! at all), and [`policy`] re-solves a schedule online when observed
//! backlogs outgrow its design ([`escalate_schedule`]). The extensions
//! take the same `Topology`: [`frontier`] (the feasible region's
//! boundary), [`flexible`] (per-node processor shares) and
//! [`coschedule`] (admitting several dataflows onto one device). The
//! only public entry points that still take a `PipelineSpec` are
//! [`MonolithicProblem::new`] and [`BlockTable::covering`], through
//! `impl BlockModel for PipelineSpec`, and the hidden forwards kept for
//! the `rtbench/` harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comparison;
#[doc(hidden)]
pub mod compat;
pub mod coschedule;
mod dag;
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

#[doc(hidden)]
pub use compat::{EnforcedDagProblem, EnforcedWaitsProblem, MonolithicDagProblem};
pub use enforced::{EnforcedProblem, WaitSchedule};
pub use feasibility::{check_feasibility, minimal_periods, FeasibilityError};
pub use flexible::{FlexibleSchedule, FlexibleSharesProblem};
pub use monolithic::{BlockTable, MonolithicProblem, MonolithicSchedule};
pub use policy::{escalate_schedule, needs_escalation};
pub use schedule::{AnySchedule, ScheduleError};
pub use telemetry::{CellTelemetry, SolveTelemetry};
pub use threads::{run_jobs, worker_threads};

/// Pipelines the unit tests share.
#[cfg(test)]
mod fixtures {
    use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, Topology};

    /// The paper's BLAST pipeline (Table 1).
    pub(crate) fn blast() -> PipelineSpec {
        PipelineSpecBuilder::new(128)
            .stage("s0", 287.0, GainModel::Bernoulli { p: 0.379 })
            .stage(
                "s1",
                955.0,
                GainModel::CensoredPoisson {
                    mean: 1.920,
                    cap: 16,
                },
            )
            .stage("s2", 402.0, GainModel::Bernoulli { p: 0.0332 })
            .stage("s3", 2753.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap()
    }

    /// [`blast`] as a chain topology.
    pub(crate) fn blast_chain() -> Topology {
        Topology::chain(&blast())
    }
}
