//! Enforced-waits design on DAG topologies: [`EnforcedProblem`].
//!
//! Generalizes the paper's Fig.-1 program from a linear chain to a
//! [`Topology`]. The working coordinates are the scaled periods
//! `z_i = G_i·x_i`, where `G_i` is node `i`'s mean inflow per stream
//! input ([`Topology::total_gains`]): per-edge stability becomes the
//! order constraint `z_dst ≤ z_src` along every edge, the head bound
//! becomes `z_source ≤ v·τ0`, and the objective stays separable,
//! `(1/N) Σ a_i/z_i` with `a_i = t_i·G_i`.
//!
//! A chain is the special case. [`EnforcedProblem::new`] detects one
//! ([`Topology::as_chain`]) and builds the chain kernel of
//! [`crate::enforced`] for it once, and every method then hands the
//! chain to that kernel: a chain topology gets the paper's program and
//! its exact water-filling bit for bit, zero-gain segments included.
//!
//! At a fan-in the per-edge form is *sufficient* but conservative: it
//! requires the consumer to keep up with each producer's scaled rate
//! individually, which implies (and slightly over-provisions) the
//! aggregate-rate requirement `x_i ≤ v·τ0/G_i`.
//!
//! [`EnforcedProblem::solve`] is water-filling: exact on chains, and on
//! general DAGs the exact deadline price of an order-respecting
//! projection, which needs every node's mean inflow `G_i` to be
//! positive. [`EnforcedProblem::solve_interior_point`] optimizes the DAG
//! program directly with the dense interior-point oracle, O(N³) per
//! Newton step; only tests call it.

use crate::enforced::{dense_interior_point, ChainProblem, WaitSchedule};
use crate::feasibility::{check_feasibility, minimal_periods};
use crate::kkt::{certify, KktReport};
use crate::price::{exact_price, seed_mu};
use crate::schedule::ScheduleError;
use crate::telemetry::{timed, SolveTelemetry};
use dataflow_model::analysis::enforced_active_fraction;
use dataflow_model::{RtParams, Topology};
use obs_trace::{SpanSink, Track};
use solver::linear::ConstraintSet;

/// The Fig.-1 design problem: a topology, an operating point, and
/// backlog factors capturing worst-case queue growth.
#[derive(Debug, Clone)]
pub struct EnforcedProblem<'a> {
    topology: &'a Topology,
    params: RtParams,
    b: Vec<f64>,
    /// The chain kernel, built once, when the topology is a chain.
    chain: Option<ChainProblem>,
}

impl<'a> EnforcedProblem<'a> {
    /// Construct the problem. `b` must hold one strictly positive
    /// backlog factor per node (the paper's `b_i`; see
    /// [`Self::optimistic_backlog`] for a starting choice, calibrated
    /// upward empirically in §6.2).
    pub fn new(topology: &'a Topology, params: RtParams, b: Vec<f64>) -> Self {
        let chain = topology
            .as_chain()
            .map(|p| ChainProblem::new(&p, params, b.clone()));
        EnforcedProblem {
            topology,
            params,
            b,
            chain,
        }
    }

    /// Optimistic starting backlog factors, each clamped up to 1 so
    /// factors stay positive for filter stages. On a chain they are the
    /// paper's `⌈g_i⌉`, the sink's own gain included. On any other DAG
    /// they are `⌈Σ_e g_e·w_e⌉` over node `i`'s out-edges, so a sink
    /// gets 1: the two rules differ on a chain whose sink gain exceeds 1.
    pub fn optimistic_backlog(topology: &Topology) -> Vec<f64> {
        if let Some(chain) = topology.as_chain() {
            return chain
                .mean_gains()
                .iter()
                .map(|g| g.ceil().max(1.0))
                .collect();
        }
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

    /// Solve for the optimal waits. Chains go to the chain kernel's
    /// exact water-filling; general DAGs find the exact deadline price
    /// of the scaled-period water-filling relaxation with an
    /// order-respecting projection (see module docs).
    pub fn solve(&self) -> Result<WaitSchedule, ScheduleError> {
        if let Some(chain) = &self.chain {
            return chain.solve();
        }
        check_feasibility(self.topology, &self.params, &self.b)?;
        let (result, micros) = timed(|| self.solve_dag_waterfilling());
        let (periods, mut telemetry) = result?;
        telemetry.wall_micros = micros;
        Ok(self.schedule(periods, telemetry))
    }

    /// The schedule at `periods`, with waits `max(x_i − t_i, 0)`.
    fn schedule(&self, periods: Vec<f64>, telemetry: SolveTelemetry) -> WaitSchedule {
        let t = self.topology.service_times();
        let waits: Vec<f64> = periods
            .iter()
            .zip(&t)
            .map(|(&x, &ti)| (x - ti).max(0.0))
            .collect();
        let active_fraction = enforced_active_fraction(self.topology, &periods);
        let latency_bound = periods.iter().zip(&self.b).map(|(&x, &bi)| bi * x).sum();
        WaitSchedule {
            waits,
            periods,
            active_fraction,
            backlog_factors: self.b.clone(),
            latency_bound,
            telemetry: Some(telemetry),
        }
    }

    /// [`Self::solve`] with solver span tracing: an enclosing solve span
    /// on [`Track::solver`]`(attempt)` (wall microseconds as the time
    /// axis). On a chain it is `solve water-filling`, with one child
    /// `price` span per budget evaluation.
    pub fn solve_traced(
        &self,
        sink: &mut SpanSink,
        attempt: u64,
    ) -> Result<WaitSchedule, ScheduleError> {
        if let Some(chain) = &self.chain {
            return chain.solve_traced(sink, attempt);
        }
        let schedule = self.solve()?;
        let micros = schedule.telemetry.as_ref().map_or(0.0, |t| t.wall_micros);
        sink.enter(
            Track::solver(attempt),
            "solve dag-water-filling",
            "solver",
            0.0,
        );
        sink.exit(micros);
        Ok(schedule)
    }

    /// Build the design program's linear inequality constraints over the
    /// period variables `x` (node-index order). On a chain these are the
    /// paper's rows, the slack edge row after a zero-gain stage left
    /// out. Otherwise: the head bound `G_src·x_src ≤ v·τ0`, one order
    /// constraint `G_dst·x_dst − G_src·x_src ≤ 0` per edge, the deadline
    /// budget `Σ b_i·x_i ≤ D`, and the service-time lower bounds.
    pub fn constraint_set(&self) -> ConstraintSet {
        if let Some(chain) = &self.chain {
            return chain.constraint_set();
        }
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

    /// The dense interior-point oracle over [`Self::constraint_set`],
    /// from a phase-1 point near the minimal periods. Unlike
    /// [`Self::solve`] (the projected water-filling, exact on chains but
    /// conservative at fan-ins), this optimizes the DAG program
    /// directly. Each Newton step factors a dense `N × N` system, O(N³),
    /// so this is for tests that cross-check [`Self::solve`], not for
    /// design sweeps.
    pub fn solve_interior_point(&self) -> Result<WaitSchedule, ScheduleError> {
        if let Some(chain) = &self.chain {
            return chain.solve_interior_point();
        }
        check_feasibility(self.topology, &self.params, &self.b)?;
        let g = self.topology.total_gains();
        if let Some(i) = (0..self.topology.len()).find(|&i| g[i] <= 0.0 || !g[i].is_finite()) {
            return Err(ScheduleError::Solver(format!(
                "node {i} has non-positive mean inflow; the DAG program is degenerate"
            )));
        }
        let t = self.topology.service_times();
        let (result, micros) = timed(|| {
            let x0 = minimal_periods(self.topology);
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
        Ok(self.schedule(periods, telemetry))
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

    /// Check the KKT conditions for `periods` on this program
    /// ([`Self::constraint_set`]): the design's certificate of
    /// optimality, whichever solver produced `periods`.
    ///
    /// `active_tol` decides which constraints count as active, *relative*
    /// to each constraint's scale (measured as `|rhs| + ‖a‖·‖x‖`). A
    /// period vector of the wrong length certifies nothing: the report
    /// has an infinite violation and names both lengths.
    pub fn verify_kkt(&self, periods: &[f64], active_tol: f64) -> KktReport {
        let t = self.topology.service_times();
        certify(&self.constraint_set(), &t, periods, active_tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::{minimal_periods_of, FeasibilityError};
    use crate::fixtures::blast;
    use crate::monolithic::MonolithicProblem;
    use crate::policy::escalate_schedule;
    use dataflow_model::{GainModel, PipelineSpecBuilder, TopologyBuilder};

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
        // The one problem on a chain topology, and the chain forward kept
        // for the benchmark harness, solve on the same kernel.
        let p = blast();
        let t = Topology::chain(&p);
        let params = RtParams::new(10.0, 1e5).unwrap();
        let b = vec![1.0, 3.0, 9.0, 6.0];
        let chain = crate::compat::EnforcedWaitsProblem::new(&p, params, b.clone())
            .solve_with_fallback()
            .unwrap();
        let dag = EnforcedProblem::new(&t, params, b).solve().unwrap();
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
        let chain_periods = minimal_periods_of(&p.service_times(), &p.mean_gains());
        assert_eq!(minimal_periods(&t), chain_periods);
        assert!(check_feasibility(&t, &params, &[1.0, 3.0, 9.0, 6.0]).is_ok());
        let tight = RtParams::new(2.0, 1e9).unwrap();
        assert!(matches!(
            check_feasibility(&t, &tight, &[1.0; 4]),
            Err(FeasibilityError::ArrivalRateTooHigh { .. })
        ));
    }

    #[test]
    fn optimistic_backlog_matches_chain_rule() {
        // A sink gain above 1 counts on a chain, as the paper's ⌈g_i⌉
        // does; the out-edge rule would give the sink 1.
        let p = PipelineSpecBuilder::new(128)
            .stage("s0", 100.0, GainModel::Bernoulli { p: 0.5 })
            .stage("s1", 100.0, GainModel::Deterministic { k: 3 })
            .build()
            .unwrap();
        let t = Topology::chain(&p);
        assert_eq!(EnforcedProblem::optimistic_backlog(&t), vec![1.0, 3.0]);
        // On a DAG each node takes its out-edges' flow; the sink takes 1.
        assert_eq!(
            EnforcedProblem::optimistic_backlog(&diamond()),
            vec![1.0, 1.0, 2.0, 1.0, 1.0]
        );
    }

    #[test]
    fn escalation_on_chain_delegates_to_policy() {
        // On a chain, escalation is a cold chain-kernel solve at the
        // raised factors, bit for bit.
        let p = blast();
        let t = Topology::chain(&p);
        let params = RtParams::new(10.0, 1e5).unwrap();
        let design_b = vec![1.0, 3.0, 9.0, 6.0];
        let observed = vec![1.0, 4.3, 2.0, 1.0];
        let via_policy = escalate_schedule(&t, params, &design_b, &observed).unwrap();
        let raised = vec![1.0, 5.0, 9.0, 6.0];
        let direct = ChainProblem::new(&p, params, raised.clone())
            .solve()
            .unwrap();
        assert_eq!(via_policy.periods, direct.periods);
        assert_eq!(via_policy.backlog_factors, raised);
    }

    #[test]
    fn dag_solve_satisfies_all_constraints() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let b = EnforcedProblem::optimistic_backlog(&t);
        let s = EnforcedProblem::new(&t, params, b.clone()).solve().unwrap();
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
        // A traced solve returns the same schedule inside one solve span.
        let mut sink = SpanSink::with_defaults();
        let traced = EnforcedProblem::new(&t, params, b)
            .solve_traced(&mut sink, 0)
            .unwrap();
        assert_eq!(traced.periods, s.periods);
        let log = sink.finish();
        let names: Vec<&str> = log.spans.iter().map(|sp| sp.name.as_str()).collect();
        assert_eq!(names, ["solve dag-water-filling"]);
    }

    #[test]
    fn dag_slack_deadline_hits_stability_caps() {
        let t = diamond();
        // Huge deadline: λ = 0 path, every node at its z-cap (or floor).
        let params = RtParams::new(10.0, 1e9).unwrap();
        let b = EnforcedProblem::optimistic_backlog(&t);
        let s = EnforcedProblem::new(&t, params, b).solve().unwrap();
        let g = t.total_gains();
        let cap = 128.0 * 10.0;
        assert!((g[t.source()] * s.periods[t.source()] - cap).abs() < 1e-6);
        // Tighter deadline costs activity.
        let tight = RtParams::new(10.0, 1.5e4).unwrap();
        let b2 = EnforcedProblem::optimistic_backlog(&t);
        let s2 = EnforcedProblem::new(&t, tight, b2).solve().unwrap();
        assert!(s2.active_fraction >= s.active_fraction - 1e-12);
        assert!(s2.latency_bound <= tight.deadline + 1e-6);
    }

    #[test]
    fn dag_infeasible_deadline_reports_error() {
        let t = diamond();
        let params = RtParams::new(10.0, 100.0).unwrap();
        let b = EnforcedProblem::optimistic_backlog(&t);
        assert!(matches!(
            EnforcedProblem::new(&t, params, b).solve(),
            Err(ScheduleError::Infeasible(
                FeasibilityError::DeadlineTooTight { .. }
            ))
        ));
    }

    #[test]
    fn escalation_on_dag_raises_factors() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let design_b = EnforcedProblem::optimistic_backlog(&t);
        let base = EnforcedProblem::new(&t, params, design_b.clone())
            .solve()
            .unwrap();
        let mut observed = vec![0.0; t.len()];
        observed[3] = design_b[3] + 2.4;
        let escalated = escalate_schedule(&t, params, &design_b, &observed).unwrap();
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
        let dag = MonolithicProblem::new(&t, params, 1.0, 1.0);
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
            let prob = MonolithicProblem::new(&t, params, 1.0, 1.0);
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
        let s = MonolithicProblem::new(&t, params, 1.0, 1.0)
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
        assert!(MonolithicProblem::new(&t, params, 1.0, 1.0)
            .solve()
            .is_err());
    }

    #[test]
    fn wrong_length_periods_are_a_failed_report_not_a_panic() {
        let t = diamond();
        let params = RtParams::new(10.0, 2e4).unwrap();
        let prob = EnforcedProblem::new(&t, params, vec![1.0; t.len()]);
        for periods in [vec![], vec![100.0; t.len() + 2]] {
            let report = prob.verify_kkt(&periods, 1e-6);
            assert!(!report.is_optimal(1e3), "{report:?}");
            assert_eq!(report.max_violation, f64::INFINITY);
            let want = format!("{} entries for {} nodes", periods.len(), t.len());
            assert!(report.active[0].contains(&want), "{report:?}");
        }
    }
}
