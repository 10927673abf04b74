//! # solver — a small convex / mixed-integer optimization toolkit
//!
//! The paper solves its two scheduling design problems (Figures 1 and 2)
//! with AMPL + BONMIN. Both problems are far smaller than general MINLP:
//!
//! * the **enforced-waits** problem (Fig. 1) is a *separable convex*
//!   objective over *linear* inequality constraints, and
//! * the **monolithic** problem (Fig. 2) is one-dimensional in an integer
//!   block size `M`.
//!
//! This crate supplies exactly the machinery those shapes need, built
//! from scratch:
//!
//! * [`linalg`] — small dense matrices, a Cholesky solve, and a banded
//!   Cholesky for the KKT certificate's multiplier solve.
//! * [`linear`] — linear inequality constraint sets `a·x ≤ b`.
//! * [`convex`] — a log-barrier interior-point Newton method for smooth
//!   convex objectives over linear constraints, with a phase-1 routine to
//!   find a strictly feasible start.
//! * [`scalar`] — bisection and golden-section search.
//! * [`integer`] — exact integer minimization by exhaustive scan.
//!
//! Independent methods are cross-checked in this workspace's tests: the
//! exact water-filling solution of Fig. 1 must agree with this crate's
//! dense interior point (the test oracle), and the breakpoint search for
//! Fig. 2 must agree with the exhaustive scan (both in `rtsdf-core`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convex;
pub mod integer;
pub mod linalg;
pub mod linear;
pub mod scalar;

pub use convex::{minimize, ConvexProblem, Solution, SolveError, SolverOptions};
pub use linear::{Constraint, ConstraintSet};
