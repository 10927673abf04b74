//! # dataflow-model — irregular streaming pipelines on SIMD devices
//!
//! This crate encodes the application and system model of §2 of
//! *Enabling Real-Time Irregular Data-Flow Pipelines on SIMD Devices*
//! (Plano & Buhler, SRMPDS '21):
//!
//! * a pipeline of `N` nodes connected by queues ([`pipeline::PipelineSpec`]),
//!   generalized to a DAG of nodes with per-edge gains and routing weights
//!   ([`topology::Topology`], with [`topology::Topology::chain`] for a
//!   pipeline);
//! * each node consumes up to a SIMD vector of `v` items per firing, at a
//!   fixed service time `t_i` regardless of how full the vector is
//!   ([`node::NodeSpec`]);
//! * each node's *gain* — outputs produced per input — is stochastic and
//!   data-dependent ([`gain::GainModel`]);
//! * items arrive on a fixed-rate stream with inter-arrival time `τ0`
//!   ([`arrival::ArrivalProcess`]), and every item must clear the whole
//!   pipeline within a deadline `D` ([`params::RtParams`]);
//! * the performance objective is the **active fraction** — the share of
//!   its allocated processor time the application spends firing nodes
//!   ([`analysis`], whose closed forms take a `Topology`; a pipeline is
//!   its chain).
//!
//! The crate is purely a *model*: closed-form algebra and distributions.
//! The optimizers live in `rtsdf-core`, and the discrete-event execution
//! of the model lives in `pipeline-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod arrival;
pub mod error;
pub mod gain;
pub mod node;
pub mod params;
pub mod perturb;
pub mod pipeline;
pub mod topology;

pub use arrival::ArrivalProcess;
pub use error::ModelError;
pub use gain::{GainModel, GainSampler};
pub use node::NodeSpec;
pub use params::RtParams;
pub use perturb::Perturbation;
pub use pipeline::{PipelineSpec, PipelineSpecBuilder};
pub use topology::{EdgeSpec, Topology, TopologyBuilder};

/// The SIMD vector width used throughout the paper's evaluation
/// (consistent with the Mercator BLAST implementation).
pub const PAPER_VECTOR_WIDTH: u32 = 128;
