//! A-priori backlog-factor estimation (the paper's §7 future work).
//!
//! Given a pipeline and a candidate schedule's firing periods, model
//! each node's input as a bulk-service queue:
//!
//! * the head node sees the stream's *deterministic* arrivals — per
//!   period `x_0` that is a two-point distribution around `x_0/τ0`;
//! * a downstream node `i` sees bursts: each item consumed upstream
//!   emits a gain-distributed burst. Following the paper's suggested
//!   Jacksonian approximation we Poissonize the burst *events* (rate
//!   `G_{i-1}/τ0`) while keeping the exact per-burst size distribution,
//!   i.e. arrivals per period are compound Poisson.
//!
//! The factor `b_i` is then read off a tail quantile of the stationary
//! queue: an item arriving to find `Q` items queued departs within
//! `⌈(Q+1)/v⌉` firings.

use crate::bulk::BulkQueue;
use crate::pmf;
use dataflow_model::{GainModel, PipelineSpec};
use serde::{Deserialize, Serialize};

/// Estimation result for one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeEstimate {
    /// Estimated backlog factor.
    pub b: f64,
    /// Modeled utilization `ρ` of the node's bulk queue.
    pub utilization: f64,
    /// True if the node sits at/over its stability boundary under the
    /// Poissonized model, in which case `b` is the configured ceiling
    /// rather than a quantile.
    pub saturated: bool,
}

/// Tuning for the estimator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EstimateConfig {
    /// Queue-length quantile to design for (e.g. 0.999).
    pub quantile: f64,
    /// Utilization above which the node is declared saturated.
    pub saturation: f64,
    /// Backlog factor reported for saturated nodes.
    pub saturated_b: f64,
    /// State-space truncation for the stationary solve.
    pub max_queue: usize,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig {
            quantile: 0.999,
            saturation: 0.98,
            saturated_b: 16.0,
            max_queue: 2048,
        }
    }
}

/// Dense PMF of a gain model, for burst-size modeling.
///
/// # Panics
/// Panics if `max_k < 1`: a zero-bin "PMF" cannot represent any gain
/// distribution's support (a Bernoulli's success mass, for instance,
/// would silently fold into the zero bin, misreporting the mean as 0).
pub fn gain_pmf(gain: &GainModel, max_k: usize) -> Vec<f64> {
    assert!(
        max_k >= 1,
        "gain_pmf needs max_k >= 1 to represent nonzero gains, got {max_k}"
    );
    match gain {
        GainModel::Deterministic { k } => {
            let mut p = vec![0.0; max_k + 1];
            p[(*k as usize).min(max_k)] = 1.0;
            p
        }
        GainModel::Bernoulli { p } => {
            let mut out = vec![0.0; max_k + 1];
            out[0] = 1.0 - p;
            out[1] += *p;
            out
        }
        GainModel::CensoredPoisson { mean, cap } => {
            let mut p = pmf::poisson(*mean, (*cap as usize).min(max_k));
            // `poisson` already folds the tail into the last bin, which
            // is exactly the censoring semantics.
            let total: f64 = p.iter().sum();
            if total > 0.0 {
                p.iter_mut().for_each(|x| *x /= total);
            }
            p
        }
        GainModel::Empirical { pmf: e } => {
            let mut out = vec![0.0; max_k + 1];
            for (k, p) in e {
                out[(*k as usize).min(max_k)] += p;
            }
            out
        }
    }
}

/// Estimate backlog factors for a schedule with firing periods
/// `periods` at inter-arrival time `tau0`.
///
/// # Panics
/// Panics if `periods.len()` differs from the pipeline length.
pub fn estimate_backlog_factors(
    pipeline: &PipelineSpec,
    periods: &[f64],
    tau0: f64,
    config: &EstimateConfig,
) -> Vec<NodeEstimate> {
    assert_eq!(
        periods.len(),
        pipeline.len(),
        "period vector length mismatch"
    );
    let v = pipeline.vector_width();
    let totals = pipeline.total_gains();
    let mut out = Vec::with_capacity(pipeline.len());

    for i in 0..pipeline.len() {
        let mean_per_period = totals[i] * periods[i] / tau0;
        let utilization = mean_per_period / v as f64;
        if i == 0 && utilization >= config.saturation && utilization <= 1.0 + 1e-9 {
            // The head's arrivals are *deterministic*: even at
            // utilization 1 at most one period's worth (≤ v items)
            // accumulates between firings, so an arriving item always
            // departs with the next firing. This is why the paper's
            // calibration finds b_0 = 1.
            out.push(NodeEstimate {
                b: 1.0,
                utilization,
                saturated: false,
            });
            continue;
        }
        if utilization >= config.saturation {
            out.push(NodeEstimate {
                b: config.saturated_b,
                utilization,
                saturated: true,
            });
            continue;
        }
        let max_a = ((mean_per_period * 4.0).ceil() as usize + 4 * v as usize).min(8192);
        let arrivals = if i == 0 {
            pmf::deterministic_fractional(mean_per_period, max_a)
        } else {
            // Burst events: upstream consumptions per period of node i.
            let event_rate = totals[i - 1] * periods[i] / tau0;
            let burst = gain_pmf(&pipeline.node(i - 1).gain, 64);
            pmf::compound_poisson(event_rate, &burst, max_a)
        };
        let queue = BulkQueue::new(v, arrivals);
        let b = match queue.sojourn_quantile(config.quantile, config.max_queue) {
            Some(epochs) => (epochs as f64).max(1.0),
            None => config.saturated_b,
        };
        out.push(NodeEstimate {
            b,
            utilization,
            saturated: false,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::{PipelineSpecBuilder, RtParams};

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

    #[test]
    fn gain_pmf_shapes() {
        let b = gain_pmf(&GainModel::Bernoulli { p: 0.3 }, 4);
        assert!((b[0] - 0.7).abs() < 1e-12 && (b[1] - 0.3).abs() < 1e-12);
        let d = gain_pmf(&GainModel::Deterministic { k: 3 }, 4);
        assert_eq!(d[3], 1.0);
        let c = gain_pmf(
            &GainModel::CensoredPoisson {
                mean: 1.92,
                cap: 16,
            },
            64,
        );
        assert!((c.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((pmf::mean(&c) - 1.92).abs() < 1e-3);
        let e = gain_pmf(
            &GainModel::Empirical {
                pmf: vec![(0, 0.5), (2, 0.5)],
            },
            4,
        );
        assert_eq!(e[0], 0.5);
        assert_eq!(e[2], 0.5);
    }

    #[test]
    #[should_panic(expected = "max_k >= 1")]
    fn gain_pmf_rejects_zero_bins() {
        // Regression: `max_k = 0` used to fold a Bernoulli's success
        // mass into the zero bin (`out[1.min(0)] += p`), silently
        // producing a point mass at 0 with the wrong mean.
        gain_pmf(&GainModel::Bernoulli { p: 0.3 }, 0);
    }

    #[test]
    fn gain_pmf_preserves_mean_at_small_max_k() {
        // Bernoulli support is {0, 1}: any max_k >= 1 must reproduce
        // the exact mean `p`.
        for max_k in 1..=4 {
            let b = gain_pmf(&GainModel::Bernoulli { p: 0.379 }, max_k);
            assert_eq!(b.len(), max_k + 1);
            assert!((b.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(
                (pmf::mean(&b) - 0.379).abs() < 1e-12,
                "max_k={max_k}: mean {}",
                pmf::mean(&b)
            );
        }
        // Deterministic gain within range: exact mean. (Truncation
        // below k censors by design, like the Poisson cap.)
        for max_k in 2..=4 {
            let d = gain_pmf(&GainModel::Deterministic { k: 2 }, max_k);
            assert!((pmf::mean(&d) - 2.0).abs() < 1e-12);
        }
        // Empirical gain with support {0, 2}: exact from max_k = 2.
        for max_k in 2..=4 {
            let e = gain_pmf(
                &GainModel::Empirical {
                    pmf: vec![(0, 0.5), (2, 0.5)],
                },
                max_k,
            );
            assert!((pmf::mean(&e) - 1.0).abs() < 1e-12);
        }
        // Censored Poisson: censoring at max_k < cap shifts tail mass
        // into the last bin, so the mean can only shrink — and the
        // total mass stays 1.
        let full = gain_pmf(
            &GainModel::CensoredPoisson {
                mean: 1.92,
                cap: 16,
            },
            16,
        );
        for max_k in 1..16 {
            let c = gain_pmf(
                &GainModel::CensoredPoisson {
                    mean: 1.92,
                    cap: 16,
                },
                max_k,
            );
            assert!((c.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(pmf::mean(&c) <= pmf::mean(&full) + 1e-9);
        }
    }

    #[test]
    fn estimates_for_a_relaxed_schedule_are_modest() {
        // Deadline-dominated schedule far from stability: queues stay
        // small, so estimated b's should be small. (At slack deadlines
        // the optimizer pushes periods to the stability caps, where the
        // Poissonized model rightly saturates — so this test uses a
        // deadline tight enough that the deadline constraint binds.)
        let p = blast();
        let params = RtParams::new(10.0, 3.0e4).unwrap();
        let sched = rtsdf_core::EnforcedProblem::new(
            &dataflow_model::Topology::chain(&p),
            params,
            vec![1.0, 3.0, 9.0, 6.0],
        )
        .solve()
        .unwrap();
        let est = estimate_backlog_factors(&p, &sched.periods, 10.0, &EstimateConfig::default());
        assert_eq!(est.len(), 4);
        for e in &est {
            assert!(e.b >= 1.0);
            assert!(!e.saturated, "{est:?}");
            assert!(
                e.b <= 8.0,
                "relaxed schedule should not need huge b: {est:?}"
            );
        }
    }

    #[test]
    fn saturated_schedule_reports_saturation() {
        // Periods at the stability caps: utilization 1 under the model.
        let p = blast();
        let tau0 = 10.0;
        let g = p.total_gains();
        let periods: Vec<f64> = g.iter().map(|gt| 128.0 * tau0 / gt).collect();
        let est = estimate_backlog_factors(&p, &periods, tau0, &EstimateConfig::default());
        assert!(est.iter().any(|e| e.saturated), "{est:?}");
        for e in est.iter().filter(|e| e.saturated) {
            assert_eq!(e.b, EstimateConfig::default().saturated_b);
        }
    }

    #[test]
    fn head_node_deterministic_arrivals_give_b_one_when_underloaded() {
        let p = blast();
        // Head fires every 500 cycles at τ0 = 10: 50 arrivals per period,
        // capacity 128 → queue at most one period's worth.
        let periods = [500.0, 1000.0, 500.0, 2800.0];
        let est = estimate_backlog_factors(&p, &periods, 10.0, &EstimateConfig::default());
        assert_eq!(est[0].b, 1.0, "{est:?}");
    }

    #[test]
    fn estimates_track_the_paper_calibration_order() {
        // The paper calibrated b = [1, 3, 9, 6] for a schedule near the
        // stability caps. Our analytic estimate at a mildly relaxed
        // schedule should reproduce the *ordering* (stage 2's queue is
        // the most volatile relative to its traffic, the head the
        // least).
        let p = blast();
        let params = RtParams::new(10.0, 3e5).unwrap();
        let sched = rtsdf_core::EnforcedProblem::new(
            &dataflow_model::Topology::chain(&p),
            params,
            vec![1.0, 3.0, 9.0, 6.0],
        )
        .solve()
        .unwrap();
        let est = estimate_backlog_factors(&p, &sched.periods, 10.0, &EstimateConfig::default());
        assert!(
            est[0].b <= est[2].b,
            "head should need the smallest factor: {est:?}"
        );
    }
}
