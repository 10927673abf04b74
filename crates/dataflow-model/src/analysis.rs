//! Closed-form performance algebra for both scheduling strategies.
//!
//! These are the formulas of §4 (enforced waits) and §5 (monolithic
//! batching) of the paper. The optimizers in `rtsdf-core` build on them,
//! and the simulator's measurements are validated against them.
//!
//! A relationship worth noting (and tested below): in the limit of
//! unlimited deadline slack, the enforced-waits active fraction tends to
//! `(ρ0/v)·Σ t_i·G_i / N` while the monolithic active fraction tends to
//! `(ρ0/v)·Σ t_i·G_i` — i.e. enforced waits is asymptotically `N` times
//! better. This is the source of the "several-fold better" corner of the
//! paper's Figure 4 for the N = 4 BLAST pipeline.

use crate::params::RtParams;
use crate::pipeline::PipelineSpec;
use crate::topology::Topology;

/// Active fraction of the enforced-waits schedule with firing periods
/// `x_i = t_i + w_i` (paper §4.1):
///
/// ```text
/// T(w) = (1/N) Σ t_i / x_i
/// ```
///
/// # Panics
/// Panics if `periods.len()` differs from the pipeline length or any
/// period is not positive.
pub fn enforced_active_fraction(pipeline: &PipelineSpec, periods: &[f64]) -> f64 {
    assert_eq!(
        periods.len(),
        pipeline.len(),
        "period vector length mismatch"
    );
    let n = pipeline.len() as f64;
    pipeline
        .nodes()
        .iter()
        .zip(periods)
        .map(|(node, &x)| {
            assert!(x > 0.0, "firing period must be positive, got {x}");
            node.service_time / x
        })
        .sum::<f64>()
        / n
}

/// Upper bounds `U_i` on each firing period implied by the stability
/// constraints alone (paper §4.2):
///
/// * `x_0 ≤ v·τ0` — the head must keep up with arrivals;
/// * `x_i ≤ x_{i-1} / g_{i-1}` — each node must keep up with its
///   predecessor, which chains to `x_i ≤ v·τ0 / G_i`.
///
/// Nodes whose total input gain `G_i` is zero (some upstream gain is
/// exactly 0, so they see no traffic in the mean) get `f64::INFINITY`.
pub fn period_upper_bounds(pipeline: &PipelineSpec, params: &RtParams) -> Vec<f64> {
    let v = pipeline.vector_width() as f64;
    pipeline
        .total_gains()
        .iter()
        .map(|&g_total| {
            if g_total <= 0.0 {
                f64::INFINITY
            } else {
                v * params.tau0 / g_total
            }
        })
        .collect()
}

/// The smallest deadline any enforced-waits schedule can satisfy given
/// backlog factors `b`: `Σ b_i · t_i` (attained by `w_i = 0`).
///
/// # Panics
/// Panics on a length mismatch.
pub fn min_feasible_deadline(pipeline: &PipelineSpec, b: &[f64]) -> f64 {
    assert_eq!(b.len(), pipeline.len(), "backlog factor length mismatch");
    pipeline
        .nodes()
        .iter()
        .zip(b)
        .map(|(node, &bi)| bi * node.service_time)
        .sum()
}

/// Worst-case queueing latency bound for an enforced-waits schedule
/// (left side of the paper's deadline constraint): `Σ b_i·(t_i+w_i)`.
pub fn enforced_latency_bound(pipeline: &PipelineSpec, periods: &[f64], b: &[f64]) -> f64 {
    assert_eq!(periods.len(), pipeline.len());
    assert_eq!(b.len(), pipeline.len());
    periods.iter().zip(b).map(|(&x, &bi)| bi * x).sum()
}

/// Monolithic block time from per-node service times `t_i` and total
/// gains `G_i` at vector width `v` — the one definition of
///
/// ```text
/// T̄(M) = Σ_i ⌈M·G_i / v⌉ · t_i
/// ```
///
/// behind [`monolithic_block_time`] and
/// [`topology_monolithic_block_time`]. Solvers that evaluate many `M`
/// hoist the two slices and call this directly.
pub fn block_time(vector_width: u32, service_times: &[f64], totals: &[f64], m: u64) -> f64 {
    let v = vector_width as f64;
    service_times
        .iter()
        .zip(totals)
        .map(|(&t, &g_total)| {
            let vectors = (m as f64 * g_total / v).ceil();
            vectors * t
        })
        .sum()
}

/// Average time for the monolithic pipeline to consume a block of `M`
/// inputs (paper §5.1): `T̄(M) = Σ_i ⌈M·G_i / v⌉ · t_i`.
pub fn monolithic_block_time(pipeline: &PipelineSpec, m: u64) -> f64 {
    block_time(
        pipeline.vector_width(),
        &pipeline.service_times(),
        &pipeline.total_gains(),
        m,
    )
}

/// Average-case active fraction of the monolithic strategy at block size
/// `M`: `ρ0·T̄(M)/M`.
pub fn monolithic_active_fraction(pipeline: &PipelineSpec, params: &RtParams, m: u64) -> f64 {
    assert!(m > 0, "block size must be positive");
    params.rho0() * monolithic_block_time(pipeline, m) / m as f64
}

/// Stability check for the monolithic strategy: the pipeline must finish
/// a block before the next one finishes accumulating, `T̄(M) ≤ M·τ0`.
pub fn monolithic_stable(pipeline: &PipelineSpec, params: &RtParams, m: u64) -> bool {
    monolithic_block_time(pipeline, m) <= m as f64 * params.tau0
}

/// Worst-case response bound for the monolithic strategy with queue
/// multiplier `b` and worst-case scale `S` (paper Fig. 2 constraint):
/// `b·M·τ0 + S·T̄(M)`.
pub fn monolithic_latency_bound(
    pipeline: &PipelineSpec,
    params: &RtParams,
    m: u64,
    b: f64,
    s: f64,
) -> f64 {
    b * m as f64 * params.tau0 + s * monolithic_block_time(pipeline, m)
}

/// Limit of the monolithic active fraction as `M → ∞`:
/// `(ρ0/v)·Σ t_i·G_i`. The monolithic strategy cannot do better than
/// this no matter how much deadline slack is available — the
/// "diminishing returns" behaviour visible in the paper's Figure 3.
pub fn monolithic_limit_active_fraction(pipeline: &PipelineSpec, params: &RtParams) -> f64 {
    let v = pipeline.vector_width() as f64;
    let totals = pipeline.total_gains();
    params.rho0() / v
        * pipeline
            .nodes()
            .iter()
            .zip(&totals)
            .map(|(node, &g)| node.service_time * g)
            .sum::<f64>()
}

/// Limit of the enforced-waits active fraction as `D → ∞` (all periods
/// at their stability bounds `U_i`): `(ρ0/v)·Σ t_i·G_i / N` — a factor
/// `N` below the monolithic limit.
pub fn enforced_limit_active_fraction(pipeline: &PipelineSpec, params: &RtParams) -> f64 {
    monolithic_limit_active_fraction(pipeline, params) / pipeline.len() as f64
}

// ---------------------------------------------------------------------------
// DAG generalizations. Arrival rates propagate per edge: fan-out splits
// a node's output flow across its out-edges, fan-in sums the flows of a
// node's in-edges ([`Topology::total_gains`]). On a chain topology each
// function below reproduces its `PipelineSpec` counterpart bit-for-bit.
// ---------------------------------------------------------------------------

/// Active fraction of an enforced-waits schedule on a DAG with firing
/// periods `x_i`: `(1/N) Σ t_i / x_i`, node-indexed.
///
/// # Panics
/// Panics if `periods.len()` differs from the node count or any period
/// is not positive.
pub fn topology_enforced_active_fraction(topology: &Topology, periods: &[f64]) -> f64 {
    assert_eq!(
        periods.len(),
        topology.len(),
        "period vector length mismatch"
    );
    let n = topology.len() as f64;
    topology
        .nodes()
        .iter()
        .zip(periods)
        .map(|(node, &x)| {
            assert!(x > 0.0, "firing period must be positive, got {x}");
            node.service_time / x
        })
        .sum::<f64>()
        / n
}

/// Upper bounds `U_i` on each firing period implied by per-edge
/// stability alone: node `i` sees `G_i` items per stream input (fan-in
/// summed, fan-out split), so `x_i ≤ v·τ0 / G_i`. Nodes with zero mean
/// traffic get `f64::INFINITY`.
pub fn topology_period_upper_bounds(topology: &Topology, params: &RtParams) -> Vec<f64> {
    let v = topology.vector_width() as f64;
    topology
        .total_gains()
        .iter()
        .map(|&g_total| {
            if g_total <= 0.0 {
                f64::INFINITY
            } else {
                v * params.tau0 / g_total
            }
        })
        .collect()
}

/// The smallest deadline any enforced-waits schedule on the DAG can
/// satisfy given node-indexed backlog factors `b`: `Σ b_i · t_i`.
/// Conservative for DAGs: it charges every node once, i.e. the longest
/// path through the DAG is bounded by the sum over all nodes.
///
/// # Panics
/// Panics on a length mismatch.
pub fn topology_min_feasible_deadline(topology: &Topology, b: &[f64]) -> f64 {
    assert_eq!(b.len(), topology.len(), "backlog factor length mismatch");
    topology
        .nodes()
        .iter()
        .zip(b)
        .map(|(node, &bi)| bi * node.service_time)
        .sum()
}

/// Worst-case queueing latency bound for an enforced-waits schedule on
/// the DAG: `Σ b_i·x_i` over all nodes (every root-to-sink path is a
/// subset of the node set, so the sum bounds the longest path).
pub fn topology_enforced_latency_bound(topology: &Topology, periods: &[f64], b: &[f64]) -> f64 {
    assert_eq!(periods.len(), topology.len());
    assert_eq!(b.len(), topology.len());
    periods.iter().zip(b).map(|(&x, &bi)| bi * x).sum()
}

/// Average time for the monolithic runtime to push a block of `M`
/// inputs through the DAG: `T̄(M) = Σ_i ⌈M·G_i / v⌉ · t_i`, where `G_i`
/// is node `i`'s mean items per stream input (fan-in summed, fan-out
/// split by routing weight). The block visits nodes in topological
/// order on the single shared device, so the same per-node vector-count
/// formula as the chain applies.
pub fn topology_monolithic_block_time(topology: &Topology, m: u64) -> f64 {
    block_time(
        topology.vector_width(),
        &topology.service_times(),
        &topology.total_gains(),
        m,
    )
}

/// Average-case active fraction of the monolithic strategy on the DAG at
/// block size `M`: `ρ0·T̄(M)/M`.
pub fn topology_monolithic_active_fraction(topology: &Topology, params: &RtParams, m: u64) -> f64 {
    assert!(m > 0, "block size must be positive");
    params.rho0() * topology_monolithic_block_time(topology, m) / m as f64
}

/// Stability check for the monolithic strategy on the DAG:
/// `T̄(M) ≤ M·τ0`.
pub fn topology_monolithic_stable(topology: &Topology, params: &RtParams, m: u64) -> bool {
    topology_monolithic_block_time(topology, m) <= m as f64 * params.tau0
}

/// Worst-case response bound for the monolithic strategy on the DAG:
/// `b·M·τ0 + S·T̄(M)`.
pub fn topology_monolithic_latency_bound(
    topology: &Topology,
    params: &RtParams,
    m: u64,
    b: f64,
    s: f64,
) -> f64 {
    b * m as f64 * params.tau0 + s * topology_monolithic_block_time(topology, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::GainModel;
    use crate::pipeline::PipelineSpecBuilder;

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

    fn rt(tau0: f64, d: f64) -> RtParams {
        RtParams::new(tau0, d).unwrap()
    }

    #[test]
    fn zero_waits_give_full_activity() {
        let p = blast();
        let t = p.service_times();
        assert!((enforced_active_fraction(&p, &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn doubling_every_period_halves_activity() {
        let p = blast();
        let x: Vec<f64> = p.service_times().iter().map(|t| 2.0 * t).collect();
        assert!((enforced_active_fraction(&p, &x) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn active_fraction_rejects_zero_period() {
        let p = blast();
        enforced_active_fraction(&p, &[1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn period_bounds_follow_total_gain() {
        let p = blast();
        let params = rt(10.0, 1e5);
        let u = period_upper_bounds(&p, &params);
        let g = p.total_gains();
        assert!((u[0] - 1280.0).abs() < 1e-9);
        for i in 0..4 {
            assert!((u[i] - 128.0 * 10.0 / g[i]).abs() < 1e-6);
        }
        // Stage 1 sees less traffic than stage 0 (g0 < 1): larger bound.
        assert!(u[1] > u[0]);
        // Stage 2 sees ~1.92x stage 1's traffic: smaller bound than u[1].
        assert!(u[2] < u[1]);
        // Stage 3 sees very little traffic (g2 = 0.0332): much larger.
        assert!(u[3] > u[2]);
    }

    #[test]
    fn zero_gain_disables_downstream_bound() {
        let p = PipelineSpecBuilder::new(4)
            .stage("a", 1.0, GainModel::Deterministic { k: 0 })
            .stage("b", 1.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let u = period_upper_bounds(&p, &rt(1.0, 100.0));
        assert!(u[0].is_finite());
        assert!(u[1].is_infinite());
    }

    #[test]
    fn min_deadline_is_weighted_service_sum() {
        let p = blast();
        let b = [1.0, 3.0, 9.0, 6.0];
        let expect = 287.0 + 3.0 * 955.0 + 9.0 * 402.0 + 6.0 * 2753.0;
        assert!((min_feasible_deadline(&p, &b) - expect).abs() < 1e-9);
    }

    #[test]
    fn latency_bound_with_unit_b_is_period_sum() {
        let p = blast();
        let x = [300.0, 1000.0, 450.0, 2800.0];
        let b = [1.0; 4];
        assert!((enforced_latency_bound(&p, &x, &b) - 4550.0).abs() < 1e-9);
    }

    #[test]
    fn block_time_small_m_is_one_vector_per_stage() {
        let p = blast();
        // M = 1: every stage needs ⌈G_i/128⌉ = 1 vector (G_i ≤ 1.92... well
        // below 128), so T̄(1) = total service time.
        assert!((monolithic_block_time(&p, 1) - p.total_service_time()).abs() < 1e-9);
    }

    #[test]
    fn block_time_scales_with_ceilings() {
        let p = blast();
        // M = 128: stage 0 needs exactly 1 vector; stage 1 sees
        // 128·0.379 ≈ 48.5 items → 1 vector; stage 2 sees ≈ 93 → 1; stage 3
        // sees ≈ 3 → 1. Still the sum of service times.
        assert!((monolithic_block_time(&p, 128) - p.total_service_time()).abs() < 1e-9);
        // M = 256: stage 0 needs 2 vectors now.
        let t256 = monolithic_block_time(&p, 256);
        assert!((t256 - (2.0 * 287.0 + 955.0 + 2.0 * 402.0 + 2753.0)).abs() < 1e-9);
    }

    #[test]
    fn monolithic_active_fraction_decreases_then_flattens() {
        let p = blast();
        let params = rt(50.0, 3.5e5);
        let a1 = monolithic_active_fraction(&p, &params, 1);
        let a128 = monolithic_active_fraction(&p, &params, 128);
        let a4096 = monolithic_active_fraction(&p, &params, 4096);
        let limit = monolithic_limit_active_fraction(&p, &params);
        assert!(a1 > a128 && a128 > a4096, "{a1} {a128} {a4096}");
        assert!(a4096 >= limit - 1e-12, "never below the limit");
        assert!(
            (a4096 - limit) / limit < 0.25,
            "within 25% of limit by M=4096"
        );
    }

    #[test]
    fn stability_threshold() {
        let p = blast();
        // τ0 = 1: a single item per cycle. T̄(1) = 4397 > 1·1 → unstable.
        assert!(!monolithic_stable(&p, &rt(1.0, 1e5), 1));
        // Large M at τ0 = 50: T̄ grows ~linearly with slope well under 50/item.
        assert!(monolithic_stable(&p, &rt(50.0, 1e5), 4096));
    }

    #[test]
    fn monolithic_latency_bound_composition() {
        let p = blast();
        let params = rt(10.0, 1e5);
        let m = 64;
        let bound = monolithic_latency_bound(&p, &params, m, 1.0, 1.0);
        assert!((bound - (640.0 + monolithic_block_time(&p, m))).abs() < 1e-9);
        let bound2 = monolithic_latency_bound(&p, &params, m, 2.0, 1.5);
        assert!(bound2 > bound);
    }

    #[test]
    fn enforced_limit_is_n_times_better_than_monolithic_limit() {
        let p = blast();
        let params = rt(10.0, 1e5);
        let e = enforced_limit_active_fraction(&p, &params);
        let m = monolithic_limit_active_fraction(&p, &params);
        assert!((m / e - 4.0).abs() < 1e-12);
    }

    #[test]
    fn limits_scale_inversely_with_tau0() {
        let p = blast();
        let m1 = monolithic_limit_active_fraction(&p, &rt(10.0, 1e5));
        let m2 = monolithic_limit_active_fraction(&p, &rt(20.0, 1e5));
        assert!((m1 / m2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn topology_chain_analysis_bit_matches_pipeline_analysis() {
        let p = blast();
        let t = Topology::chain(&p);
        let params = rt(10.0, 1e5);
        let x = [300.0, 1000.0, 450.0, 2800.0];
        let b = [1.0, 3.0, 9.0, 6.0];
        assert_eq!(
            topology_enforced_active_fraction(&t, &x),
            enforced_active_fraction(&p, &x)
        );
        assert_eq!(
            topology_period_upper_bounds(&t, &params),
            period_upper_bounds(&p, &params)
        );
        assert_eq!(
            topology_min_feasible_deadline(&t, &b),
            min_feasible_deadline(&p, &b)
        );
        assert_eq!(
            topology_enforced_latency_bound(&t, &x, &b),
            enforced_latency_bound(&p, &x, &b)
        );
        for m in [1, 64, 128, 256, 4096] {
            assert_eq!(
                topology_monolithic_block_time(&t, m),
                monolithic_block_time(&p, m)
            );
            assert_eq!(
                topology_monolithic_active_fraction(&t, &params, m),
                monolithic_active_fraction(&p, &params, m)
            );
            assert_eq!(
                topology_monolithic_stable(&t, &params, m),
                monolithic_stable(&p, &params, m)
            );
            assert_eq!(
                topology_monolithic_latency_bound(&t, &params, m, 1.0, 1.5),
                monolithic_latency_bound(&p, &params, m, 1.0, 1.5)
            );
        }
    }

    #[test]
    fn topology_period_bounds_account_for_fan_in_sums() {
        use crate::topology::TopologyBuilder;
        // parse → {filter, enrich} → join: join's traffic is the SUM of
        // both branch flows, so its period bound is tighter than either
        // branch alone would imply.
        let t = TopologyBuilder::new(128)
            .node("parse", 100.0)
            .node("filter", 40.0)
            .node("enrich", 60.0)
            .node("join", 80.0)
            .edge(0, 1, GainModel::Deterministic { k: 1 }, 0.5)
            .edge(0, 2, GainModel::Deterministic { k: 1 }, 0.5)
            .edge(1, 3, GainModel::Deterministic { k: 1 }, 1.0)
            .edge(2, 3, GainModel::Deterministic { k: 2 }, 1.0)
            .build()
            .unwrap();
        let params = rt(10.0, 1e5);
        let u = topology_period_upper_bounds(&t, &params);
        let g = t.total_gains();
        // join sees 0.5·1 + 0.5·2 = 1.5 items per input.
        assert!((g[3] - 1.5).abs() < 1e-15);
        assert!((u[3] - 128.0 * 10.0 / 1.5).abs() < 1e-9);
        // Tighter than the head bound (more traffic than the source).
        assert!(u[3] < u[0]);
    }

    #[test]
    fn per_edge_flow_balance_holds() {
        use crate::topology::TopologyBuilder;
        let t = TopologyBuilder::new(64)
            .node("a", 10.0)
            .node("b", 10.0)
            .node("c", 10.0)
            .node("d", 10.0)
            .node("e", 10.0)
            .edge(0, 1, GainModel::Bernoulli { p: 0.7 }, 1.0)
            .edge(0, 2, GainModel::CensoredPoisson { mean: 1.3, cap: 8 }, 0.4)
            .edge(1, 3, GainModel::Deterministic { k: 2 }, 0.9)
            .edge(2, 3, GainModel::Bernoulli { p: 0.2 }, 1.0)
            .edge(2, 4, GainModel::Deterministic { k: 1 }, 0.1)
            .edge(3, 4, GainModel::Deterministic { k: 1 }, 1.0)
            .build()
            .unwrap();
        let g = t.total_gains();
        let flows = t.edge_flows();
        // Each edge's flow is its source's in-rate times gain times weight...
        for (e, edge) in t.edges().iter().enumerate() {
            assert!(
                (flows[e] - g[edge.src] * edge.gain.mean() * edge.weight).abs() < 1e-12,
                "edge {e} flow mismatch"
            );
        }
        // ...and every non-source node's in-rate is the sum of its
        // in-edge flows (fan-in conservation).
        for (i, &gi) in g.iter().enumerate() {
            if i == t.source() {
                continue;
            }
            let inflow: f64 = t.in_edges(i).iter().map(|&e| flows[e]).sum();
            assert!((gi - inflow).abs() < 1e-12, "node {i} flow imbalance");
        }
    }
}
