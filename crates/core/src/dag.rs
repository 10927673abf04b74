//! Enforced-waits design on DAG topologies.
//!
//! Generalizes [`crate::feasibility`] and [`crate::enforced`] from the
//! paper's linear chain to a [`Topology`]. The working coordinates are
//! the scaled periods `z_i = G_i·x_i`, where `G_i` is node `i`'s mean
//! inflow per stream input ([`Topology::total_gains`]): per-edge
//! stability becomes the order constraint `z_dst ≤ z_src` along every
//! edge, the head bound becomes `z_source ≤ v·τ0`, and the objective
//! stays separable, `(1/N) Σ a_i/z_i` with `a_i = t_i·G_i`.
//!
//! On a chain the edge order constraints reduce exactly to the paper's
//! `g_{i-1}·x_i ≤ x_{i-1}`, and every entry point below detects chains
//! ([`Topology::as_chain`]) and delegates to the chain implementations,
//! so chain topologies reproduce [`EnforcedWaitsProblem`] bit-for-bit —
//! the KKT coupling structure stays sparse either way (couplings follow
//! edges, not positions). At a fan-in the per-edge form is *sufficient*
//! but conservative: it requires the consumer to keep up with each
//! producer's scaled rate individually, which implies (and slightly
//! over-provisions) the aggregate-rate requirement `x_i ≤ v·τ0/G_i`.
//!
//! [`EnforcedDagProblem::solve`] is water-filling: exact on chains
//! (including their zero-gain segments), and on general DAGs the exact
//! deadline price of an order-respecting projection, which needs every
//! node's mean inflow `G_i` to be positive.
//! [`EnforcedDagProblem::solve_interior_point`] optimizes the DAG
//! program directly with the dense interior-point oracle, O(N³) per
//! Newton step; only tests call it.

use crate::enforced::{dense_interior_point, EnforcedWaitsProblem, WaitSchedule};
use crate::feasibility::{check_enforced_feasibility, minimal_periods, FeasibilityError};
use crate::kkt::{active_fraction_gradient, kkt_report, KktReport};
use crate::policy;
use crate::price::{exact_price, seed_mu};
use crate::schedule::ScheduleError;
use crate::telemetry::{timed, SolveTelemetry};
use dataflow_model::analysis::topology_enforced_active_fraction;
use dataflow_model::{RtParams, Topology};
use solver::linear::ConstraintSet;

/// The componentwise-minimal feasible firing periods on a DAG: a
/// reverse-topological sweep raising each producer's period floor so
/// every out-edge order constraint `G_dst·x_dst ≤ G_src·x_src` holds at
/// the floor. Every feasible period vector dominates this one. Chains
/// delegate to [`minimal_periods`].
pub fn topology_minimal_periods(topology: &Topology) -> Vec<f64> {
    if let Some(chain) = topology.as_chain() {
        return minimal_periods(&chain);
    }
    let g = topology.total_gains();
    let mut x = topology.service_times();
    for &i in topology.topo_order().iter().rev() {
        for &e in topology.out_edges(i) {
            let dst = topology.edge(e).dst;
            if g[i] > 0.0 && g[dst] > 0.0 {
                x[i] = x[i].max(g[dst] / g[i] * x[dst]);
            }
        }
    }
    x
}

/// Check whether the enforced-waits problem on a DAG has any feasible
/// point for this operating point and node-indexed backlog factors `b`.
/// Chains delegate to [`check_enforced_feasibility`].
pub fn check_topology_feasibility(
    topology: &Topology,
    params: &RtParams,
    b: &[f64],
) -> Result<(), FeasibilityError> {
    if let Some(chain) = topology.as_chain() {
        return check_enforced_feasibility(&chain, params, b);
    }
    if b.len() != topology.len() {
        return Err(FeasibilityError::BadBacklogFactors {
            reason: format!("expected {} factors, got {}", topology.len(), b.len()),
        });
    }
    if let Some(bad) = b.iter().find(|&&bi| bi <= 0.0 || !bi.is_finite()) {
        return Err(FeasibilityError::BadBacklogFactors {
            reason: format!("factor {bad} is not strictly positive and finite"),
        });
    }
    let xmin = topology_minimal_periods(topology);
    let source = topology.source();
    let max_head = topology.vector_width() as f64 * params.tau0;
    if xmin[source] > max_head {
        return Err(FeasibilityError::ArrivalRateTooHigh {
            min_head_period: xmin[source],
            max_head_period: max_head,
        });
    }
    let min_deadline: f64 = xmin.iter().zip(b).map(|(&x, &bi)| bi * x).sum();
    if min_deadline > params.deadline {
        return Err(FeasibilityError::DeadlineTooTight {
            min_deadline,
            deadline: params.deadline,
        });
    }
    Ok(())
}

/// The Fig.-1 design problem on a DAG topology.
#[derive(Debug, Clone)]
pub struct EnforcedDagProblem<'a> {
    topology: &'a Topology,
    params: RtParams,
    b: Vec<f64>,
}

impl<'a> EnforcedDagProblem<'a> {
    /// Construct the problem. `b` must hold one strictly positive
    /// backlog factor per node.
    pub fn new(topology: &'a Topology, params: RtParams, b: Vec<f64>) -> Self {
        EnforcedDagProblem {
            topology,
            params,
            b,
        }
    }

    /// Optimistic starting backlog factors: `b_i = max(1, ⌈Σ_e g_e·w_e⌉)`
    /// over node `i`'s out-edges. On a chain this is exactly the paper's
    /// `⌈g_i⌉` clamped to 1 ([`EnforcedWaitsProblem::optimistic_backlog`]).
    pub fn optimistic_backlog(topology: &Topology) -> Vec<f64> {
        (0..topology.len())
            .map(|i| {
                let out: f64 = topology
                    .out_edges(i)
                    .iter()
                    .map(|&e| topology.edge(e).mean_flow())
                    .sum();
                out.ceil().max(1.0)
            })
            .collect()
    }

    /// The topology being scheduled.
    pub fn topology(&self) -> &Topology {
        self.topology
    }

    /// The operating point.
    pub fn params(&self) -> &RtParams {
        &self.params
    }

    /// The backlog factors.
    pub fn backlog_factors(&self) -> &[f64] {
        &self.b
    }

    /// Solve for the optimal waits. Chains delegate to
    /// [`EnforcedWaitsProblem::solve`] (bit-exact); general DAGs find the
    /// exact deadline price of the scaled-period water-filling
    /// relaxation with an order-respecting projection (see module docs).
    pub fn solve(&self) -> Result<WaitSchedule, ScheduleError> {
        if let Some(chain) = self.topology.as_chain() {
            return EnforcedWaitsProblem::new(&chain, self.params, self.b.clone()).solve();
        }
        check_topology_feasibility(self.topology, &self.params, &self.b)?;
        let (result, micros) = timed(|| self.solve_dag_waterfilling());
        let (periods, mut telemetry) = result?;
        telemetry.wall_micros = micros;
        let t = self.topology.service_times();
        let waits: Vec<f64> = periods
            .iter()
            .zip(&t)
            .map(|(&x, &ti)| (x - ti).max(0.0))
            .collect();
        let active_fraction = topology_enforced_active_fraction(self.topology, &periods);
        let latency_bound = periods.iter().zip(&self.b).map(|(&x, &bi)| bi * x).sum();
        Ok(WaitSchedule {
            waits,
            periods,
            active_fraction,
            backlog_factors: self.b.clone(),
            latency_bound,
            telemetry: Some(telemetry),
        })
    }

    /// Build the design program's linear inequality constraints over the
    /// period variables `x` (node-index order): the head bound
    /// `G_src·x_src ≤ v·τ0`, one order constraint
    /// `G_dst·x_dst − G_src·x_src ≤ 0` per edge, the deadline budget
    /// `Σ b_i·x_i ≤ D`, and the service-time lower bounds.
    pub fn constraint_set(&self) -> ConstraintSet {
        let topo = self.topology;
        let n = topo.len();
        let g = topo.total_gains();
        let t = topo.service_times();
        let v_tau0 = topo.vector_width() as f64 * self.params.tau0;
        let mut cs = ConstraintSet::new(n);
        let src = topo.source();
        let mut head = vec![0.0; n];
        head[src] = g[src];
        cs.push(head, v_tau0, "head rate: G_src*x_src <= v*tau0");
        for e in topo.edges() {
            let mut coeffs = vec![0.0; n];
            coeffs[e.dst] = g[e.dst];
            coeffs[e.src] = -g[e.src];
            cs.push(coeffs, 0.0, format!("edge {}->{} stability", e.src, e.dst));
        }
        cs.push(self.b.clone(), self.params.deadline, "deadline");
        for (i, &ti) in t.iter().enumerate() {
            cs.push_lower_bound(i, ti, format!("x{i} >= t{i}"));
        }
        cs
    }

    /// The dense interior-point oracle over
    /// [`EnforcedDagProblem::constraint_set`]. Unlike
    /// [`EnforcedDagProblem::solve`] (the projected water-filling, exact
    /// on chains but conservative at fan-ins), this optimizes the DAG
    /// program directly. Each Newton step factors a dense `N × N`
    /// system, O(N³), so this is for tests, not design sweeps. Chains
    /// delegate to [`EnforcedWaitsProblem::solve_interior_point`].
    pub fn solve_interior_point(&self) -> Result<WaitSchedule, ScheduleError> {
        if let Some(chain) = self.topology.as_chain() {
            let problem = EnforcedWaitsProblem::new(&chain, self.params, self.b.clone());
            return problem.solve_interior_point();
        }
        check_topology_feasibility(self.topology, &self.params, &self.b)?;
        let g = self.topology.total_gains();
        if let Some(i) = (0..self.topology.len()).find(|&i| g[i] <= 0.0 || !g[i].is_finite()) {
            return Err(ScheduleError::Solver(format!(
                "node {i} has non-positive mean inflow; the DAG program is degenerate"
            )));
        }
        let t = self.topology.service_times();
        let (result, micros) = timed(|| {
            let x0 = topology_minimal_periods(self.topology);
            let v = self.topology.vector_width();
            dense_interior_point(&t, &self.constraint_set(), &x0, &self.params, v)
        });
        let (mut periods, mut telemetry) = result?;
        telemetry.wall_micros = micros;
        for (x, &ti) in periods.iter_mut().zip(&t) {
            if *x < ti {
                *x = ti;
            }
        }
        let waits: Vec<f64> = periods.iter().zip(&t).map(|(&x, &ti)| x - ti).collect();
        let active_fraction = topology_enforced_active_fraction(self.topology, &periods);
        let latency_bound = periods.iter().zip(&self.b).map(|(&x, &bi)| bi * x).sum();
        Ok(WaitSchedule {
            waits,
            periods,
            active_fraction,
            backlog_factors: self.b.clone(),
            latency_bound,
            telemetry: Some(telemetry),
        })
    }

    /// Exact deadline price over the projected water-filling relaxation.
    /// For a fixed λ, each node in topo order takes `√(a_i/(λ·c_i))`
    /// clamped to `cap`, lowered to its parents' values and raised to its
    /// floor. Every node then equals the free value `μ·√(a_j/c_j)` of
    /// itself or an ancestor, or a bound, so within one tie pattern the
    /// budget is affine in `μ = λ^(-1/2)`, and the smallest fitting λ is
    /// found exactly as on chains.
    fn solve_dag_waterfilling(&self) -> Result<(Vec<f64>, SolveTelemetry), ScheduleError> {
        let topo = self.topology;
        let n = topo.len();
        let t = topo.service_times();
        let g = topo.total_gains();
        if let Some(i) = (0..n).find(|&i| g[i] <= 0.0 || !g[i].is_finite()) {
            return Err(ScheduleError::Solver(format!(
                "node {i} has non-positive mean inflow; the DAG water-filling \
                 solver requires strictly positive total gains"
            )));
        }
        let cap = topo.vector_width() as f64 * self.params.tau0;
        let deadline = self.params.deadline;
        let a: Vec<f64> = (0..n).map(|i| t[i] * g[i] / n as f64).collect();
        let c: Vec<f64> = (0..n).map(|i| self.b[i] / g[i]).collect();
        let lo: Vec<f64> = (0..n).map(|i| t[i] * g[i]).collect();
        let root: Vec<f64> = (0..n).map(|i| (a[i] / c[i]).sqrt()).collect();

        // Floors that already respect the order constraints: z may never
        // drop below its own lo nor below any descendant's floor.
        let mut floor = lo;
        for &i in topo.topo_order().iter().rev() {
            for &e in topo.out_edges(i) {
                let dst = topo.edge(e).dst;
                floor[i] = floor[i].max(floor[dst]);
            }
        }

        let mut telemetry = SolveTelemetry::new("dag-water-filling");

        // z_i, and its slope in μ: the root of the node whose free value
        // it took, or 0 at a bound.
        let mut z = vec![0.0; n];
        let mut slope_of = vec![0.0; n];
        let mut project = |lambda: f64, z: &mut [f64]| {
            let (mut slope, mut offset) = (0.0, 0.0);
            for &i in topo.topo_order() {
                let free = (a[i] / (lambda * c[i])).sqrt();
                let (mut zi, mut si) = if free < cap {
                    (free, root[i])
                } else {
                    (cap, 0.0)
                };
                for &e in topo.in_edges(i) {
                    let src = topo.edge(e).src;
                    if z[src] < zi {
                        (zi, si) = (z[src], slope_of[src]);
                    }
                }
                if zi < floor[i] {
                    (zi, si) = (floor[i], 0.0);
                }
                z[i] = zi;
                slope_of[i] = si;
                if si > 0.0 {
                    slope += c[i] * si;
                } else {
                    offset += c[i] * zi;
                }
            }
            (slope, offset)
        };
        let usage = |z: &[f64]| -> f64 { z.iter().zip(&c).map(|(&zi, &ci)| ci * zi).sum() };
        let latency = |z: &[f64]| -> f64 {
            z.iter()
                .zip(&g)
                .zip(&self.b)
                .map(|((&zi, &gi), &bi)| bi * (zi / gi))
                .sum()
        };

        let lambda = exact_price(deadline, seed_mu(deadline, &a, &c), |lambda| {
            let (slope, offset) = project(lambda, &mut z);
            let used = usage(&z);
            telemetry.iterations += 1;
            if lambda > 0.0 {
                telemetry.residual_series.push(deadline - used);
            }
            // As on chains: the z-space budget and the reported bound
            // must both meet the deadline in floating point.
            (used <= deadline && latency(&z) <= deadline, slope, offset)
        })
        .ok_or_else(|| {
            ScheduleError::Solver("DAG water-filling found no deadline price that fits".into())
        })?;
        project(lambda, &mut z);
        telemetry.residual = deadline - usage(&z);
        let periods: Vec<f64> = (0..n).map(|i| z[i] / g[i]).collect();
        Ok((periods, telemetry))
    }
}

/// Check the KKT conditions for `periods` on the DAG design program —
/// [`crate::kkt::verify_kkt`] generalized to
/// [`EnforcedDagProblem::constraint_set`]. Large active sets route
/// through the same banded-bordered multiplier solve as the chain
/// certificate. A period vector of the wrong length gets the same
/// non-optimal report as in [`crate::kkt::verify_kkt`].
pub fn verify_kkt_dag(
    problem: &EnforcedDagProblem<'_>,
    periods: &[f64],
    active_tol: f64,
) -> KktReport {
    let n = problem.topology().len();
    if periods.len() != n {
        return KktReport::length_mismatch(n, periods.len());
    }
    let cs = problem.constraint_set();
    let grad = active_fraction_gradient(&problem.topology().service_times(), periods);
    kkt_report(&cs, &grad, periods, active_tol)
}

/// Raise backlog factors to observed ceilings and re-solve the waits on
/// a DAG — the [`policy::escalate_schedule`] repair step generalized.
/// Chains delegate to the chain policy (bit-exact); general DAGs re-run
/// [`EnforcedDagProblem::solve`] at the raised factors.
///
/// Returns [`ScheduleError::InvalidParams`] if the slice lengths
/// disagree with the topology.
pub fn escalate_schedule_topology(
    topology: &Topology,
    params: RtParams,
    design_b: &[f64],
    observed_vectors: &[f64],
) -> Result<WaitSchedule, ScheduleError> {
    if let Some(chain) = topology.as_chain() {
        return policy::escalate_schedule(&chain, params, design_b, observed_vectors);
    }
    let b = policy::escalated_factors(topology.len(), design_b, observed_vectors)?;
    EnforcedDagProblem::new(topology, params, b).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monolithic::{MonolithicDagProblem, MonolithicProblem};
    use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, TopologyBuilder};

    fn blast() -> PipelineSpec {
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

    fn diamond() -> Topology {
        TopologyBuilder::new(128)
            .node("parse", 120.0)
            .node("filter", 60.0)
            .node("enrich", 200.0)
            .node("join", 90.0)
            .node("aggregate", 400.0)
            .edge(0, 1, GainModel::Deterministic { k: 1 }, 0.7)
            .edge(0, 2, GainModel::Deterministic { k: 1 }, 0.3)
            .edge(1, 3, GainModel::Bernoulli { p: 0.6 }, 1.0)
            .edge(2, 3, GainModel::CensoredPoisson { mean: 1.8, cap: 8 }, 1.0)
            .edge(3, 4, GainModel::Bernoulli { p: 0.25 }, 1.0)
            .build()
            .unwrap()
    }

    #[test]
    fn chain_solve_is_bit_identical_to_enforced_waits_problem() {
        let p = blast();
        let t = Topology::chain(&p);
        let params = RtParams::new(10.0, 1e5).unwrap();
        let b = vec![1.0, 3.0, 9.0, 6.0];
        let chain = EnforcedWaitsProblem::new(&p, params, b.clone())
            .solve()
            .unwrap();
        let dag = EnforcedDagProblem::new(&t, params, b).solve().unwrap();
        assert_eq!(dag.periods, chain.periods);
        assert_eq!(dag.waits, chain.waits);
        assert_eq!(dag.active_fraction, chain.active_fraction);
        assert_eq!(dag.latency_bound, chain.latency_bound);
    }

    #[test]
    fn chain_feasibility_and_minimal_periods_delegate() {
        let p = blast();
        let t = Topology::chain(&p);
        let params = RtParams::new(10.0, 2e5).unwrap();
        assert_eq!(topology_minimal_periods(&t), minimal_periods(&p));
        assert!(check_topology_feasibility(&t, &params, &[1.0, 3.0, 9.0, 6.0]).is_ok());
        let tight = RtParams::new(2.0, 1e9).unwrap();
        assert!(matches!(
            check_topology_feasibility(&t, &tight, &[1.0; 4]),
            Err(FeasibilityError::ArrivalRateTooHigh { .. })
        ));
    }

    #[test]
    fn optimistic_backlog_matches_chain_rule() {
        let p = blast();
        let t = Topology::chain(&p);
        assert_eq!(
            EnforcedDagProblem::optimistic_backlog(&t),
            EnforcedWaitsProblem::optimistic_backlog(&p)
        );
    }

    #[test]
    fn dag_solve_satisfies_all_constraints() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let b = EnforcedDagProblem::optimistic_backlog(&t);
        let s = EnforcedDagProblem::new(&t, params, b.clone())
            .solve()
            .unwrap();
        let g = t.total_gains();
        let cap = 128.0 * 10.0;
        // Periods at least the service times; source within the head bound.
        for (i, node) in t.nodes().iter().enumerate() {
            assert!(
                s.periods[i] >= node.service_time - 1e-9,
                "x[{i}] below service time"
            );
        }
        assert!(g[t.source()] * s.periods[t.source()] <= cap + 1e-6);
        // Per-edge order constraints in z-space.
        for e in t.edges() {
            assert!(
                g[e.dst] * s.periods[e.dst] <= g[e.src] * s.periods[e.src] + 1e-6,
                "edge {} -> {} unstable",
                e.src,
                e.dst
            );
        }
        // Deadline bound respected.
        assert!(s.latency_bound <= params.deadline + 1e-6);
        assert!(s.active_fraction > 0.0 && s.active_fraction <= 1.0 + 1e-9);
    }

    #[test]
    fn dag_slack_deadline_hits_stability_caps() {
        let t = diamond();
        // Huge deadline: λ = 0 path, every node at its z-cap (or floor).
        let params = RtParams::new(10.0, 1e9).unwrap();
        let b = EnforcedDagProblem::optimistic_backlog(&t);
        let s = EnforcedDagProblem::new(&t, params, b).solve().unwrap();
        let g = t.total_gains();
        let cap = 128.0 * 10.0;
        assert!((g[t.source()] * s.periods[t.source()] - cap).abs() < 1e-6);
        // Tighter deadline costs activity.
        let tight = RtParams::new(10.0, 1.5e4).unwrap();
        let b2 = EnforcedDagProblem::optimistic_backlog(&t);
        let s2 = EnforcedDagProblem::new(&t, tight, b2).solve().unwrap();
        assert!(s2.active_fraction >= s.active_fraction - 1e-12);
        assert!(s2.latency_bound <= tight.deadline + 1e-6);
    }

    #[test]
    fn dag_infeasible_deadline_reports_error() {
        let t = diamond();
        let params = RtParams::new(10.0, 100.0).unwrap();
        let b = EnforcedDagProblem::optimistic_backlog(&t);
        assert!(matches!(
            EnforcedDagProblem::new(&t, params, b).solve(),
            Err(ScheduleError::Infeasible(
                FeasibilityError::DeadlineTooTight { .. }
            ))
        ));
    }

    #[test]
    fn escalation_on_chain_delegates_to_policy() {
        let p = blast();
        let t = Topology::chain(&p);
        let params = RtParams::new(10.0, 1e5).unwrap();
        let design_b = vec![1.0, 3.0, 9.0, 6.0];
        let observed = vec![1.0, 4.3, 2.0, 1.0];
        let via_chain = policy::escalate_schedule(&p, params, &design_b, &observed).unwrap();
        let via_dag = escalate_schedule_topology(&t, params, &design_b, &observed).unwrap();
        assert_eq!(via_dag.periods, via_chain.periods);
        assert_eq!(via_dag.backlog_factors, via_chain.backlog_factors);
    }

    #[test]
    fn escalation_on_dag_raises_factors() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let design_b = EnforcedDagProblem::optimistic_backlog(&t);
        let base = EnforcedDagProblem::new(&t, params, design_b.clone())
            .solve()
            .unwrap();
        let mut observed = vec![0.0; t.len()];
        observed[3] = design_b[3] + 2.4;
        let escalated = escalate_schedule_topology(&t, params, &design_b, &observed).unwrap();
        assert_eq!(escalated.backlog_factors[3], (design_b[3] + 2.4).ceil());
        assert!(escalated.latency_bound <= params.deadline + 1e-6);
        assert!(escalated.active_fraction >= base.active_fraction - 1e-9);
    }

    #[test]
    fn monolithic_chain_solve_is_bit_identical() {
        let p = blast();
        let t = Topology::chain(&p);
        let params = RtParams::new(50.0, 2e5).unwrap();
        let chain = MonolithicProblem::new(&p, params, 1.0, 1.0);
        let dag = MonolithicDagProblem::new(&t, params, 1.0, 1.0);
        for (chain, dag) in [
            (chain.solve().unwrap(), dag.solve().unwrap()),
            (chain.solve_fast().unwrap(), dag.solve_fast().unwrap()),
        ] {
            assert_eq!(dag.block_size, chain.block_size);
            assert_eq!(dag.block_time, chain.block_time);
            assert_eq!(dag.active_fraction, chain.active_fraction);
            assert_eq!(dag.latency_bound, chain.latency_bound);
        }
    }

    #[test]
    fn monolithic_dag_fast_matches_exact_scan() {
        let t = diamond();
        for (tau0, d) in [(10.0, 2e4), (30.0, 1e5), (50.0, 3.5e5)] {
            let params = RtParams::new(tau0, d).unwrap();
            let prob = MonolithicDagProblem::new(&t, params, 1.0, 1.0);
            match (prob.solve(), prob.solve_fast()) {
                (Ok(exact), Ok(fast)) => assert_eq!(
                    (exact.block_size, exact.active_fraction),
                    (fast.block_size, fast.active_fraction),
                    "tau0={tau0} D={d}"
                ),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("feasibility disagreement at tau0={tau0} D={d}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn monolithic_dag_respects_constraints() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let s = MonolithicDagProblem::new(&t, params, 1.0, 1.0)
            .solve_fast()
            .unwrap();
        assert!(s.block_size >= 1);
        assert!(s.active_fraction > 0.0 && s.active_fraction <= 1.0);
        assert!(s.latency_bound <= params.deadline);
        assert!(s.block_time <= s.block_size as f64 * params.tau0);
    }

    #[test]
    fn monolithic_dag_infeasible_when_deadline_tiny() {
        let t = diamond();
        let params = RtParams::new(10.0, 200.0).unwrap();
        assert!(MonolithicDagProblem::new(&t, params, 1.0, 1.0)
            .solve()
            .is_err());
    }

    #[test]
    fn wrong_length_periods_are_a_failed_report_not_a_panic() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let prob = EnforcedDagProblem::new(&t, params, vec![1.0; t.len()]);
        for periods in [vec![], vec![100.0; t.len() + 2]] {
            let report = verify_kkt_dag(&prob, &periods, 1e-6);
            assert!(!report.is_optimal(1e3), "{report:?}");
            assert_eq!(report.max_violation, f64::INFINITY);
            let want = format!("{} entries for {} nodes", periods.len(), t.len());
            assert!(report.active[0].contains(&want), "{report:?}");
        }
    }
}
