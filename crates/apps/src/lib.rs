//! # apps — additional irregular streaming applications
//!
//! The paper motivates latency-constrained irregular streaming with
//! applications beyond BLAST (§1): gamma-ray burst detection on an
//! orbiting telescope, network intrusion detection, and
//! decision-cascade machine learning. This crate provides those three
//! as concrete pipelines:
//!
//! * [`gamma`] — photon-event processing for burst detection (the APT
//!   instrument the paper cites): hit filter → pair-conversion split →
//!   track quality cut → burst accumulation.
//! * [`ids`] — a Snort-like intrusion detection cascade: header filter
//!   → multi-pattern payload scan (expanding) → rule evaluation →
//!   alerting.
//! * [`cascade`] — a Viola–Jones-style attentional cascade: cheap
//!   classifiers discard most windows, expensive ones confirm.
//! * [`logalytics`] — a streaming log-analytics diamond (parse →
//!   {filter, enrich} → join → aggregate), the flagship *DAG* workload:
//!   it synthesizes a [`dataflow_model::Topology`] with per-edge gains
//!   and routing weights rather than a linear chain.
//! * [`deepchain`] — deterministic `N`-stage synthetic chains (no RNG)
//!   for solver scaling studies at depths (N up to 1000) far beyond the
//!   measured workloads.
//!
//! Each module synthesizes a workload, *measures* its gain
//! distributions from actual (simplified but real) computations over
//! that workload, and assembles a [`dataflow_model::PipelineSpec`]
//! ready for the scheduling machinery in `rtsdf-core`. The [`kernels`]
//! module additionally provides SIMT lane programs so the gamma
//! pipeline's service times can be *measured* on the simulated device
//! ([`gamma::synthesize_measured`]) the same way the BLAST Table 1 is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cascade;
pub mod deepchain;
pub mod gamma;
pub mod ids;
pub mod kernels;
pub mod logalytics;
