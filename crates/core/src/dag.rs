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

use crate::enforced::{
    ActiveFractionObjective, EnforcedWaitsProblem, SolveMethod, WaitSchedule, WarmStart,
};
use crate::feasibility::{check_enforced_feasibility, minimal_periods, FeasibilityError};
use crate::kkt::{active_fraction_gradient, kkt_report, KktReport};
use crate::policy;
use crate::price::{exact_price, seed_mu};
use crate::schedule::ScheduleError;
use crate::telemetry::{timed, SolveTelemetry};
use dataflow_model::analysis::topology_enforced_active_fraction;
use dataflow_model::{RtParams, Topology};
use solver::convex::{find_interior_point_detailed, minimize, SolverOptions};
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
    /// [`EnforcedWaitsProblem::solve_with_fallback`] (bit-exact); general
    /// DAGs find the exact deadline price of the scaled-period
    /// water-filling relaxation with an order-respecting projection (see
    /// module docs).
    pub fn solve(&self) -> Result<WaitSchedule, ScheduleError> {
        self.solve_inner(None)
    }

    /// [`EnforcedDagProblem::solve`] seeded from a nearby solution's
    /// periods: the hint only seeds the first deadline-price step, so the
    /// schedule equals the cold one bit for bit.
    pub fn solve_warm(&self, warm: &WarmStart) -> Result<WaitSchedule, ScheduleError> {
        self.solve_inner(Some(warm))
    }

    fn solve_inner(&self, warm: Option<&WarmStart>) -> Result<WaitSchedule, ScheduleError> {
        if let Some(chain) = self.topology.as_chain() {
            let problem = EnforcedWaitsProblem::new(&chain, self.params, self.b.clone());
            return match warm {
                None => problem.solve_with_fallback(),
                Some(w) => problem.solve_with_fallback_warm(w),
            };
        }
        check_topology_feasibility(self.topology, &self.params, &self.b)?;
        let warm = warm.filter(|w| w.periods.len() == self.topology.len());
        let (result, micros) = timed(|| self.solve_dag_waterfilling(warm));
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
            method: SolveMethod::WaterFilling,
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

    /// Bandwidth of the KKT system in node-index order: every edge
    /// constraint couples `x_src` and `x_dst`, so the profile width is
    /// the largest index distance an edge spans. Returns `None` — dense
    /// Newton steps — when the reordered profile is wide (an edge spans
    /// more than a quarter of the nodes), where the banded factorization
    /// stops paying for itself.
    pub fn kkt_bandwidth(&self) -> Option<usize> {
        let n = self.topology.len();
        let mut bw = 1usize;
        for e in self.topology.edges() {
            bw = bw.max(e.src.abs_diff(e.dst));
        }
        // Below paper-adjacent sizes the dense path runs regardless (the
        // solver's own size gate), so report any valid profile; at depth
        // a band covering more than a quarter of the nodes is wide.
        if (n < 16 && bw + 1 < n) || bw * 4 <= n {
            Some(bw)
        } else {
            None
        }
    }

    /// Solve with the general interior-point method over
    /// [`EnforcedDagProblem::constraint_set`]. Unlike
    /// [`EnforcedDagProblem::solve`] (the projected water-filling
    /// heuristic, exact on chains but conservative at fan-ins), this
    /// optimizes the DAG program directly; Newton steps run banded when
    /// [`EnforcedDagProblem::kkt_bandwidth`] reports a narrow profile.
    /// Chains delegate to the chain interior point.
    pub fn solve_interior_point(&self) -> Result<WaitSchedule, ScheduleError> {
        self.solve_interior_point_with(&SolverOptions::default())
    }

    /// [`EnforcedDagProblem::solve_interior_point`] with explicit solver
    /// options (tests force the banded path at small n, or the dense
    /// path at depth, via `banded_min_dim`).
    pub fn solve_interior_point_with(
        &self,
        opts: &SolverOptions,
    ) -> Result<WaitSchedule, ScheduleError> {
        if let Some(chain) = self.topology.as_chain() {
            let problem = EnforcedWaitsProblem::new(&chain, self.params, self.b.clone());
            return problem.solve(SolveMethod::InteriorPoint);
        }
        check_topology_feasibility(self.topology, &self.params, &self.b)?;
        let (result, micros) = timed(|| self.solve_ip_inner(opts));
        let (periods, mut telemetry) = result?;
        telemetry.wall_micros = micros;
        let t = self.topology.service_times();
        let mut periods = periods;
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
            method: SolveMethod::InteriorPoint,
            telemetry: Some(telemetry),
        })
    }

    fn solve_ip_inner(
        &self,
        opts: &SolverOptions,
    ) -> Result<(Vec<f64>, SolveTelemetry), ScheduleError> {
        let g = self.topology.total_gains();
        if let Some(i) = (0..self.topology.len()).find(|&i| g[i] <= 0.0 || !g[i].is_finite()) {
            return Err(ScheduleError::Solver(format!(
                "node {i} has non-positive mean inflow; the DAG program is degenerate"
            )));
        }
        let cs = self.constraint_set();
        let x0 = topology_minimal_periods(self.topology);
        let radius = (self.params.deadline
            + self.topology.vector_width() as f64 * self.params.tau0)
            .max(1.0)
            * 4.0;
        let (interior, phase1_newtons) = find_interior_point_detailed(&cs, &x0, radius, opts)
            .map_err(|e| ScheduleError::Solver(format!("phase-1: {e}")))?;
        let sol = minimize(&self.ip_objective(), &cs, &interior, opts)
            .map_err(|e| ScheduleError::Solver(e.to_string()))?;
        let mut telemetry = SolveTelemetry::new("interior-point");
        telemetry.iterations = (phase1_newtons + sol.newton_iters) as u64;
        telemetry.residual = sol.gap;
        telemetry.barrier_mu = sol.barrier_ts.clone();
        telemetry.residual_series = sol
            .barrier_ts
            .iter()
            .map(|&t| cs.len().max(1) as f64 / t)
            .collect();
        telemetry.phase1_iterations = Some(phase1_newtons as u64);
        telemetry.record_factorization(sol.banded_bandwidth);
        telemetry.newton_solve_micros = sol.newton_solve_micros;
        Ok((sol.x, telemetry))
    }

    fn ip_objective(&self) -> ActiveFractionObjective {
        let n = self.topology.len();
        ActiveFractionObjective {
            t_over_n: self
                .topology
                .service_times()
                .iter()
                .map(|ti| ti / n as f64)
                .collect(),
            bandwidth: self.kkt_bandwidth(),
        }
    }

    /// Exact deadline price over the projected water-filling relaxation.
    /// For a fixed λ, each node in topo order takes `√(a_i/(λ·c_i))`
    /// clamped to `cap`, lowered to its parents' values and raised to its
    /// floor. Every node then equals the free value `μ·√(a_j/c_j)` of
    /// itself or an ancestor, or a bound, so within one tie pattern the
    /// budget is affine in `μ = λ^(-1/2)`, and the smallest fitting λ is
    /// found exactly as on chains.
    fn solve_dag_waterfilling(
        &self,
        warm: Option<&WarmStart>,
    ) -> Result<(Vec<f64>, SolveTelemetry), ScheduleError> {
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
        telemetry.warm_start = warm.is_some();

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

        let mu0 = seed_mu(
            deadline,
            &a,
            &c,
            &g,
            &floor,
            cap,
            warm.map(|w| &w.periods[..]),
        );
        let lambda = exact_price(deadline, mu0, |lambda| {
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
/// certificate.
pub fn verify_kkt_dag(
    problem: &EnforcedDagProblem<'_>,
    periods: &[f64],
    active_tol: f64,
) -> KktReport {
    let n = problem.topology().len();
    assert_eq!(periods.len(), n, "period vector length mismatch");
    let cs = problem.constraint_set();
    let grad = active_fraction_gradient(&problem.topology().service_times(), periods);
    kkt_report(&cs, &grad, periods, active_tol)
}

/// Raise backlog factors to observed ceilings and re-solve the waits on
/// a DAG — the [`policy::escalate_schedule`] repair step generalized.
/// Chains delegate to the chain policy (bit-exact); general DAGs re-run
/// [`EnforcedDagProblem::solve_warm`] at the raised factors.
///
/// # Panics
/// Panics if the slice lengths disagree with the topology.
pub fn escalate_schedule_topology(
    topology: &Topology,
    params: RtParams,
    current_periods: &[f64],
    design_b: &[f64],
    observed_vectors: &[f64],
) -> Result<WaitSchedule, ScheduleError> {
    let n = topology.len();
    assert_eq!(current_periods.len(), n, "period vector length mismatch");
    assert_eq!(design_b.len(), n, "design factor length mismatch");
    assert_eq!(observed_vectors.len(), n, "observed vector length mismatch");
    if let Some(chain) = topology.as_chain() {
        return policy::escalate_schedule(
            &chain,
            params,
            current_periods,
            design_b,
            observed_vectors,
        );
    }
    let b: Vec<f64> = design_b
        .iter()
        .zip(observed_vectors)
        .map(|(&bi, &obs)| bi.max(obs.ceil()).max(1.0))
        .collect();
    let warm = WarmStart {
        periods: current_periods.to_vec(),
    };
    EnforcedDagProblem::new(topology, params, b).solve_warm(&warm)
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
            .solve_with_fallback()
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
    fn dag_warm_solve_matches_cold() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let b = EnforcedDagProblem::optimistic_backlog(&t);
        let cold = EnforcedDagProblem::new(&t, params, b.clone())
            .solve()
            .unwrap();
        let warm = EnforcedDagProblem::new(&t, params, b)
            .solve_warm(&WarmStart {
                periods: cold.periods.clone(),
            })
            .unwrap();
        assert_eq!(warm.periods, cold.periods);
        assert!(warm.telemetry.unwrap().warm_start);
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
        let base = EnforcedWaitsProblem::new(&p, params, design_b.clone())
            .solve_with_fallback()
            .unwrap();
        let observed = vec![1.0, 4.3, 2.0, 1.0];
        let via_chain =
            policy::escalate_schedule(&p, params, &base.periods, &design_b, &observed).unwrap();
        let via_dag =
            escalate_schedule_topology(&t, params, &base.periods, &design_b, &observed).unwrap();
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
        let escalated =
            escalate_schedule_topology(&t, params, &base.periods, &design_b, &observed).unwrap();
        assert_eq!(escalated.backlog_factors[3], (design_b[3] + 2.4).ceil());
        assert!(escalated.latency_bound <= params.deadline + 1e-6);
        assert!(escalated.active_fraction >= base.active_fraction - 1e-9);
    }

    /// A chain of diamond blocks: every edge spans at most 2 node
    /// indices, so the KKT profile is banded with bandwidth 2 at any
    /// depth.
    fn diamond_ladder(blocks: usize) -> Topology {
        let mut b = TopologyBuilder::new(128);
        let n = 3 * blocks + 1;
        for i in 0..n {
            b = b.node(format!("n{i}"), 100.0 + i as f64);
        }
        for d in 0..blocks {
            let a = 3 * d;
            b = b
                .edge(a, a + 1, GainModel::Deterministic { k: 1 }, 0.5)
                .edge(a, a + 2, GainModel::Deterministic { k: 1 }, 0.5)
                .edge(a + 1, a + 3, GainModel::Deterministic { k: 1 }, 1.0)
                .edge(a + 2, a + 3, GainModel::Deterministic { k: 1 }, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn diamond_ip_banded_matches_dense_and_both_certify() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let b = EnforcedDagProblem::optimistic_backlog(&t);
        let prob = EnforcedDagProblem::new(&t, params, b);
        // n=5 is below the default gate: this runs dense.
        let dense = prob.solve_interior_point().unwrap();
        assert_eq!(
            dense.telemetry.as_ref().unwrap().factorization.as_deref(),
            Some("dense")
        );
        // Force the banded path (edges span ≤ 2 indices → bandwidth 2).
        let opts = SolverOptions {
            banded_min_dim: 0,
            ..SolverOptions::default()
        };
        let banded = prob.solve_interior_point_with(&opts).unwrap();
        let tel = banded.telemetry.as_ref().unwrap();
        assert_eq!(tel.factorization.as_deref(), Some("banded"));
        assert_eq!(tel.bandwidth, Some(2));
        for (bp, dp) in banded.periods.iter().zip(&dense.periods) {
            assert!(
                (bp - dp).abs() / dp < 1e-5,
                "banded {:?} vs dense {:?}",
                banded.periods,
                dense.periods
            );
        }
        for s in [&dense, &banded] {
            let report = verify_kkt_dag(&prob, &s.periods, 1e-5);
            assert!(report.is_optimal(1e-3), "{report:?}");
            assert!(prob.constraint_set().is_feasible(&s.periods, 1e-6 * 2e4));
        }
        // The projected water-filling heuristic is feasible but
        // conservative; the direct optimum can only be at least as good.
        let wf = prob.solve().unwrap();
        assert!(banded.active_fraction <= wf.active_fraction + 1e-6);
    }

    #[test]
    fn deep_diamond_ladder_engages_banded_by_default_and_certifies() {
        let t = diamond_ladder(16); // 49 nodes
        let b = EnforcedDagProblem::optimistic_backlog(&t);
        let xmin = topology_minimal_periods(&t);
        let min_d: f64 = xmin.iter().zip(&b).map(|(&x, &bi)| bi * x).sum();
        let params = RtParams::new(5.0, min_d * 1.5).unwrap();
        let prob = EnforcedDagProblem::new(&t, params, b);
        assert_eq!(prob.kkt_bandwidth(), Some(2));
        let banded = prob.solve_interior_point().unwrap();
        let tel = banded.telemetry.as_ref().unwrap();
        assert_eq!(tel.factorization.as_deref(), Some("banded"));
        assert_eq!(tel.bandwidth, Some(2));
        // Dense reference at the same depth (gate pushed out of reach).
        let opts = SolverOptions {
            banded_min_dim: usize::MAX,
            ..SolverOptions::default()
        };
        let dense = prob.solve_interior_point_with(&opts).unwrap();
        assert_eq!(
            dense.telemetry.as_ref().unwrap().factorization.as_deref(),
            Some("dense")
        );
        for (bp, dp) in banded.periods.iter().zip(&dense.periods) {
            assert!((bp - dp).abs() / dp < 1e-5, "banded diverged from dense");
        }
        for s in [&banded, &dense] {
            let report = verify_kkt_dag(&prob, &s.periods, 1e-5);
            assert!(report.is_optimal(1e-3), "{report:?}");
        }
    }

    #[test]
    fn wide_profile_dag_falls_back_to_dense() {
        // A deep chain with one long skip edge: the profile spans almost
        // the whole index range, so the banded path must decline even
        // though n ≥ 32.
        let n = 36;
        let mut b = TopologyBuilder::new(128);
        for i in 0..n {
            b = b.node(format!("n{i}"), 100.0);
        }
        b = b.edge(0, 1, GainModel::Deterministic { k: 1 }, 0.9);
        b = b.edge(0, n - 1, GainModel::Deterministic { k: 1 }, 0.1);
        for i in 1..n - 1 {
            b = b.edge(i, i + 1, GainModel::Deterministic { k: 1 }, 1.0);
        }
        let t = b.build().unwrap();
        let bf = EnforcedDagProblem::optimistic_backlog(&t);
        let xmin = topology_minimal_periods(&t);
        let min_d: f64 = xmin.iter().zip(&bf).map(|(&x, &bi)| bi * x).sum();
        let params = RtParams::new(5.0, min_d * 1.5).unwrap();
        let prob = EnforcedDagProblem::new(&t, params, bf);
        assert_eq!(prob.kkt_bandwidth(), None, "skip edge spans n-1 indices");
        let s = prob.solve_interior_point().unwrap();
        let tel = s.telemetry.as_ref().unwrap();
        assert_eq!(tel.factorization.as_deref(), Some("dense"));
        assert_eq!(tel.bandwidth, None);
        let report = verify_kkt_dag(&prob, &s.periods, 1e-5);
        assert!(report.is_optimal(1e-3), "{report:?}");
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
}
