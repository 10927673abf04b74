//! Closed-form performance algebra for both scheduling strategies.
//!
//! These are the formulas of §4 (enforced waits) and §5 (monolithic
//! batching) of the paper, stated on a [`Topology`]; a chain is
//! [`Topology::chain`]. Arrival rates propagate per edge: fan-out splits
//! a node's output flow across its out-edges, fan-in sums the flows of a
//! node's in-edges ([`Topology::total_gains`]), and on a chain `G_i` is
//! the paper's prefix product `Π_{j<i} g_j`, bit for bit. The optimizers
//! in `rtsdf-core` build on these formulas, and the simulator's
//! measurements are validated against them.
//!
//! A relationship worth noting (and tested below): in the limit of
//! unlimited deadline slack, the enforced-waits active fraction tends to
//! `(ρ0/v)·Σ t_i·G_i / N` while the monolithic active fraction tends to
//! `(ρ0/v)·Σ t_i·G_i` — i.e. enforced waits is asymptotically `N` times
//! better. This is the source of the "several-fold better" corner of the
//! paper's Figure 4 for the N = 4 BLAST pipeline.

use crate::params::RtParams;
use crate::topology::Topology;

/// Active fraction of the enforced-waits schedule with firing periods
/// `x_i = t_i + w_i` (paper §4.1), node-indexed:
///
/// ```text
/// T(w) = (1/N) Σ t_i / x_i
/// ```
///
/// # Panics
/// Panics if `periods.len()` differs from the node count or any period
/// is not positive.
pub fn enforced_active_fraction(topology: &Topology, periods: &[f64]) -> f64 {
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

/// Upper bounds `U_i` on each firing period implied by the stability
/// constraints alone (paper §4.2): node `i` sees `G_i` items per stream
/// input, so `x_i ≤ v·τ0 / G_i`. On a chain this is the head bound
/// `x_0 ≤ v·τ0` and the per-edge bound `x_i ≤ x_{i-1} / g_{i-1}`
/// chained; at a DAG fan-in `G_i` sums the branch flows.
///
/// Nodes whose total input gain `G_i` is zero (some upstream gain is
/// exactly 0, so they see no traffic in the mean) get `f64::INFINITY`.
pub fn period_upper_bounds(topology: &Topology, params: &RtParams) -> Vec<f64> {
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

/// The smallest deadline any enforced-waits schedule can satisfy given
/// node-indexed backlog factors `b`: `Σ b_i · t_i` (attained by
/// `w_i = 0`). Conservative on a DAG: it charges every node once, so it
/// bounds the longest path by the sum over all nodes.
///
/// # Panics
/// Panics on a length mismatch.
pub fn min_feasible_deadline(topology: &Topology, b: &[f64]) -> f64 {
    assert_eq!(b.len(), topology.len(), "backlog factor length mismatch");
    topology
        .nodes()
        .iter()
        .zip(b)
        .map(|(node, &bi)| bi * node.service_time)
        .sum()
}

/// Worst-case queueing latency bound for an enforced-waits schedule
/// (left side of the paper's deadline constraint): `Σ b_i·x_i` over all
/// nodes (every root-to-sink path of a DAG is a subset of the node set,
/// so the sum bounds the longest path).
pub fn enforced_latency_bound(topology: &Topology, periods: &[f64], b: &[f64]) -> f64 {
    assert_eq!(periods.len(), topology.len());
    assert_eq!(b.len(), topology.len());
    periods.iter().zip(b).map(|(&x, &bi)| bi * x).sum()
}

/// Monolithic block time from per-node service times `t_i` and total
/// gains `G_i` at vector width `v` — the one definition of
///
/// ```text
/// T̄(M) = Σ_i ⌈M·G_i / v⌉ · t_i
/// ```
///
/// behind [`monolithic_block_time`]. Solvers that evaluate many `M`
/// hoist the two slices and call this directly.
pub fn block_time(vector_width: u32, service_times: &[f64], totals: &[f64], m: u64) -> f64 {
    let v = vector_width as f64;
    service_times
        .iter()
        .zip(totals)
        .map(|(&t, &g_total)| vectors(m, g_total, v) * t)
        .sum()
}

/// The monolithic stability floor `Σ t_i·G_i / v`, on the same slices
/// as [`block_time`]: the per-input cost at perfect vector packing.
/// `T̄(M) ≥ M·F` for every `M`, so no block size is stable at `τ0 < F`.
pub fn stability_floor(vector_width: u32, service_times: &[f64], totals: &[f64]) -> f64 {
    service_times
        .iter()
        .zip(totals)
        .map(|(t, g)| t * g)
        .sum::<f64>()
        / vector_width as f64
}

/// Node `i`'s vector count in a block of `m` inputs, `⌈m·G_i/v⌉`, by the
/// float expression [`block_time`] sums: the one place the block-size
/// search's breakpoints and `T̄(M)` take their ceilings from.
#[inline]
pub fn vectors(m: u64, total_gain: f64, v: f64) -> f64 {
    ceil(m as f64 * total_gain / v)
}

/// `x.ceil()` without the library call (the baseline x86-64 target has
/// no rounding instruction, and the block-size search takes four
/// ceilings per `T̄(M)`). On `(0, 2^52)` truncation is exact, so the
/// truncated value, plus one when it fell below `x`, is the ceiling,
/// with no branch on the fraction. Anything else (zeros of either sign
/// included) takes the library path.
#[inline]
pub fn ceil(x: f64) -> f64 {
    if x > 0.0 && x < 4_503_599_627_370_496.0 {
        let whole = x as i64 as f64;
        whole + f64::from(u8::from(whole < x))
    } else {
        x.ceil()
    }
}

/// Average time for the monolithic runtime to consume a block of `M`
/// inputs (paper §5.1): `T̄(M) = Σ_i ⌈M·G_i / v⌉ · t_i`. The block
/// visits nodes in topological order on the single shared device, so a
/// DAG takes the chain's per-node vector-count formula.
pub fn monolithic_block_time(topology: &Topology, m: u64) -> f64 {
    block_time(
        topology.vector_width(),
        &topology.service_times(),
        &topology.total_gains(),
        m,
    )
}

/// Average-case active fraction of the monolithic strategy at block size
/// `M`: `ρ0·T̄(M)/M`.
pub fn monolithic_active_fraction(topology: &Topology, params: &RtParams, m: u64) -> f64 {
    assert!(m > 0, "block size must be positive");
    params.rho0() * monolithic_block_time(topology, m) / m as f64
}

/// Stability check for the monolithic strategy: the dataflow must finish
/// a block before the next one finishes accumulating, `T̄(M) ≤ M·τ0`.
pub fn monolithic_stable(topology: &Topology, params: &RtParams, m: u64) -> bool {
    monolithic_block_time(topology, m) <= m as f64 * params.tau0
}

/// Worst-case response bound for the monolithic strategy with queue
/// multiplier `b` and worst-case scale `S` (paper Fig. 2 constraint):
/// `b·M·τ0 + S·T̄(M)`.
pub fn monolithic_latency_bound(
    topology: &Topology,
    params: &RtParams,
    m: u64,
    b: f64,
    s: f64,
) -> f64 {
    b * m as f64 * params.tau0 + s * monolithic_block_time(topology, m)
}

/// Limit of the monolithic active fraction as `M → ∞`:
/// `(ρ0/v)·Σ t_i·G_i`. The monolithic strategy cannot do better than
/// this no matter how much deadline slack is available — the
/// "diminishing returns" behaviour visible in the paper's Figure 3.
pub fn monolithic_limit_active_fraction(topology: &Topology, params: &RtParams) -> f64 {
    let v = topology.vector_width() as f64;
    let totals = topology.total_gains();
    params.rho0() / v
        * topology
            .nodes()
            .iter()
            .zip(&totals)
            .map(|(node, &g)| node.service_time * g)
            .sum::<f64>()
}

/// Limit of the enforced-waits active fraction as `D → ∞` (all periods
/// at their stability bounds `U_i`): `(ρ0/v)·Σ t_i·G_i / N` — a factor
/// `N` below the monolithic limit.
pub fn enforced_limit_active_fraction(topology: &Topology, params: &RtParams) -> f64 {
    monolithic_limit_active_fraction(topology, params) / topology.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gain::GainModel;
    use crate::pipeline::PipelineSpecBuilder;
    use crate::topology::TopologyBuilder;

    fn blast() -> Topology {
        Topology::chain(
            &PipelineSpecBuilder::new(128)
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
                .unwrap(),
        )
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
        let u = period_upper_bounds(&Topology::chain(&p), &rt(1.0, 100.0));
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
    fn ceil_equals_the_library_ceil() {
        let same = |x: f64| {
            let (ours, libm) = (ceil(x), x.ceil());
            assert!(
                ours.to_bits() == libm.to_bits() || (ours.is_nan() && libm.is_nan()),
                "ceil({x:e}) = {ours:e}, library {libm:e}"
            );
        };
        let two52 = 4_503_599_627_370_496.0_f64;
        for x in [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0 + f64::EPSILON,
            -0.5,
            -1.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two52 + 2.0,
            9.3e18,
            1e300,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            same(x);
        }
        for k in 0..100_000u64 {
            same(k as f64);
        }
        // Every breakpoint ⌊k·v/G_i⌋ of BLAST up to M = 10^6, and its two
        // neighbours, at the argument `vectors` passes.
        let p = blast();
        let v = p.vector_width() as f64;
        for g in p.total_gains() {
            for k in 1u64.. {
                let m = (k as f64 * v / g).floor() as u64;
                if m > 1_000_000 {
                    break;
                }
                for x in m.saturating_sub(1)..=m + 1 {
                    same(x as f64 * g / v);
                    assert_eq!(
                        vectors(x, g, v).to_bits(),
                        (x as f64 * g / v).ceil().to_bits()
                    );
                }
            }
        }
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
    fn stability_floor_is_the_per_input_block_cost_limit() {
        let p = blast();
        let (t, g) = (p.service_times(), p.total_gains());
        let floor = stability_floor(p.vector_width(), &t, &g);
        // ≈ 7.9 cycles per input for BLAST; T̄(M) ≥ M·F at every M, and
        // T̄(M)/M tends to F.
        assert!((floor - 7.9).abs() < 0.1, "{floor}");
        for m in [1, 64, 128, 4096, 1 << 20] {
            assert!(block_time(p.vector_width(), &t, &g, m) >= m as f64 * floor);
        }
        let per_input = block_time(p.vector_width(), &t, &g, 1 << 20) / (1 << 20) as f64;
        assert!((per_input - floor) / floor < 1e-3);
        // The monolithic limit is ρ0 times the floor.
        let params = rt(10.0, 1e5);
        let limit = monolithic_limit_active_fraction(&p, &params);
        assert!((limit - params.rho0() * floor).abs() < 1e-12);
    }

    #[test]
    fn topology_period_bounds_account_for_fan_in_sums() {
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
        let u = period_upper_bounds(&t, &params);
        let g = t.total_gains();
        // join sees 0.5·1 + 0.5·2 = 1.5 items per input.
        assert!((g[3] - 1.5).abs() < 1e-15);
        assert!((u[3] - 128.0 * 10.0 / 1.5).abs() < 1e-9);
        // Tighter than the head bound (more traffic than the source).
        assert!(u[3] < u[0]);
    }

    #[test]
    fn per_edge_flow_balance_holds() {
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
