//! # rtsdf-exec — real threaded execution backend
//!
//! Everything else in this workspace *predicts*: the solvers compute
//! schedules, the discrete-event simulator executes them on a logical
//! clock. This crate *runs* them: each pipeline stage is an OS thread,
//! stages are connected by bounded MPSC channels (back-pressure is the
//! finite backlog factor `b_i`), enforced waits are applied with real
//! monotonic-clock timers, and monolithic batching is real block
//! dispatch. Stage service time is emulated as calibrated spin work —
//! a burn until a wall-clock deadline — scaled from cycles to
//! nanoseconds by a configurable time scale.
//!
//! The backend consumes exactly what the simulator consumes — a
//! [`dataflow_model::Topology`], the solver's
//! [`rtsdf_core::WaitSchedule`] / [`rtsdf_core::MonolithicSchedule`]
//! (via [`rtsdf_core::AnySchedule`]), and the same seeded RNG substream
//! discipline for gains and arrivals — and measures the same
//! quantities: active fraction, per-stage sojourn and queue-depth
//! distributions, deadline-miss rate, and item conservation.
//! [`comparison::sim_vs_real`] quantifies sim/real agreement.
//!
//! Determinism note: per-edge gain draws come from the same substreams
//! the simulator uses (`master.substream(1 + e)`), consumed in item
//! FIFO order. On a chain the consume order is identical to the
//! simulator's, so realized per-item gains — and therefore total item
//! counts through every stage — match the simulation *exactly* at the
//! same seed; only timing differs. On DAGs with fan-in the interleaving
//! (and hence the realization) may differ, but the distributions are
//! identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod comparison;
pub mod executor;
pub mod report;
pub mod timer;

pub use comparison::{sim_vs_real, AgreementReport, QuantityAgreement};
pub use executor::{run_enforced, run_monolithic, ExecConfig, ExecError};
pub use report::{ExecMetrics, ExecStageReport};
pub use timer::{calibrate, TimerCalibration, Timers};
