//! Robustness sweeps: how gracefully each strategy degrades as a
//! perturbation's intensity grows, and the **robustness margin** — the
//! largest sustained intensity at which the miss-free fraction still
//! meets a target.
//!
//! Each sweep point simulates three configurations over the same seeds:
//!
//! * **enforced, mitigated** — the enforced-waits runtime with the full
//!   [`MitigationPolicy`] (load shedding + online escalation);
//! * **enforced, unmitigated** — same runtime, faults land unmanaged;
//! * **monolithic** — the block-batching baseline (no mitigation hooks
//!   exist for it).
//!
//! Comparing the first two isolates what the mitigations buy; comparing
//! against the third reproduces the paper's enforced-vs-monolithic
//! framing under model drift.

use crate::config::SimConfig;
use crate::faults::MitigationPolicy;
use crate::hooks::{Hooks, SimError};
use crate::live::SimLiveMetrics;
use crate::runner::{run_seeds, MultiSeedReport};
use crate::{enforced, monolithic};
use dataflow_model::{Perturbation, Topology};
use rtsdf_core::{MonolithicSchedule, WaitSchedule};
use serde::{Deserialize, Serialize};

/// Aggregate statistics of one (strategy, intensity) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StressSummary {
    /// Fraction of seeds with zero deadline misses.
    pub miss_free_fraction: f64,
    /// Worst per-seed miss rate (misses / arrived).
    pub worst_miss_rate: f64,
    /// Worst per-seed miss rate over admitted items (misses /
    /// (arrived − shed)).
    pub worst_admitted_miss_rate: f64,
    /// Items shed at admission, summed over seeds.
    pub total_shed: u64,
    /// Deadline misses, summed over seeds.
    pub total_misses: u64,
    /// Items dropped at the safety horizon, summed over seeds.
    pub total_dropped: u64,
    /// Online wait re-solves, summed over seeds.
    pub total_resolves: u64,
    /// True if any seed hit its safety horizon.
    pub any_truncated: bool,
}

impl StressSummary {
    /// Summarize a multi-seed report.
    pub fn from_report(report: &MultiSeedReport) -> Self {
        StressSummary {
            miss_free_fraction: report.miss_free_fraction(),
            worst_miss_rate: report.worst_miss_rate(),
            worst_admitted_miss_rate: report.worst_admitted_miss_rate(),
            total_shed: report.total_shed(),
            total_misses: report.total_misses(),
            total_dropped: report.runs.iter().map(|r| r.items_dropped).sum(),
            total_resolves: report.total_resolves(),
            any_truncated: report.any_truncated(),
        }
    }
}

/// One intensity of the sweep: the three strategy cells side by side.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Perturbation intensity this point was simulated at.
    pub intensity: f64,
    /// Enforced waits with the full mitigation policy.
    pub enforced_mitigated: StressSummary,
    /// Enforced waits with faults unmanaged.
    pub enforced_unmitigated: StressSummary,
    /// Monolithic batching (no mitigation exists).
    pub monolithic: StressSummary,
}

/// The full sweep: degradation curves plus the per-strategy margins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Miss-free-fraction target the margins are measured against.
    pub target: f64,
    /// Seeds simulated per cell.
    pub num_seeds: u64,
    /// Sweep points in ascending intensity.
    pub points: Vec<RobustnessPoint>,
    /// Robustness margin of the mitigated enforced-waits runtime:
    /// the largest swept intensity such that it and every lower swept
    /// intensity meet the target (`None` if even the lowest fails).
    pub enforced_margin: Option<f64>,
    /// Margin of the unmitigated enforced-waits runtime.
    pub unmitigated_margin: Option<f64>,
    /// Margin of the monolithic baseline.
    pub monolithic_margin: Option<f64>,
}

/// Largest intensity of the passing *prefix*: a dip below target at a
/// lower intensity caps the margin even if a higher point passes again.
fn sustained_margin<'a, I>(points: I, target: f64) -> Option<f64>
where
    I: Iterator<Item = (f64, &'a StressSummary)>,
{
    let mut margin = None;
    for (intensity, cell) in points {
        if cell.miss_free_fraction + 1e-12 < target {
            break;
        }
        margin = Some(intensity);
    }
    margin
}

/// Sweep perturbation intensity over both strategies on `topology`
/// (chain callers pass [`Topology::chain`]).
///
/// `perturb` supplies the component mix; each point re-scales it with
/// [`Perturbation::at_intensity`]. Intensities are swept in ascending
/// order regardless of input order (the margin is a prefix property),
/// and non-finite ones are dropped. Every cell runs the same `num_seeds`
/// seeds, so the three curves are paired sample-by-sample.
///
/// With `live`, progress is published into a metrics registry:
/// `rtsdf_sim_runs_total` is set to the whole sweep's run count
/// (levels × 3 strategies × seeds) up front, every finished seed bumps
/// `rtsdf_sim_runs_completed`, and the per-run item counters accumulate
/// across all cells. Publishing does not change a simulated bit.
///
/// # Errors
/// The first [`SimError`] of any cell (see the strategies' `simulate`).
#[allow(clippy::too_many_arguments)] // one experiment = one call; a config struct would just rename the arguments
pub fn robustness_report(
    topology: &Topology,
    enforced: &WaitSchedule,
    monolithic: &MonolithicSchedule,
    deadline: f64,
    config: &SimConfig,
    num_seeds: u64,
    perturb: &Perturbation,
    intensities: &[f64],
    target: f64,
    live: Option<&SimLiveMetrics>,
) -> Result<RobustnessReport, SimError> {
    // Non-finite intensities cannot parameterize a perturbation; drop
    // them instead of panicking, and sort NaN-safely via `total_cmp`.
    let mut levels: Vec<f64> = intensities
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .collect();
    levels.sort_by(f64::total_cmp);
    levels.dedup();
    if let Some(m) = live {
        m.set_runs_total(levels.len() as u64 * 3 * num_seeds);
    }
    let mitigated = MitigationPolicy::full();
    let unmitigated = MitigationPolicy::none();
    let points = levels
        .iter()
        .map(|&intensity| {
            let p = perturb.at_intensity(intensity);
            let summary = |report: MultiSeedReport| StressSummary::from_report(&report);
            let enforced_cell = |policy: &MitigationPolicy| {
                run_seeds(config, num_seeds, live, |c, h| {
                    let faults = Some((&p, policy));
                    enforced::simulate(topology, enforced, deadline, c, Hooks { faults, ..h })
                })
                .map(summary)
            };
            Ok(RobustnessPoint {
                intensity,
                enforced_mitigated: enforced_cell(&mitigated)?,
                enforced_unmitigated: enforced_cell(&unmitigated)?,
                monolithic: run_seeds(config, num_seeds, live, |c, h| {
                    let faults = Some((&p, &unmitigated));
                    monolithic::simulate(topology, monolithic, deadline, c, Hooks { faults, ..h })
                })
                .map(summary)?,
            })
        })
        .collect::<Result<Vec<_>, SimError>>()?;
    Ok(RobustnessReport {
        target,
        num_seeds,
        enforced_margin: sustained_margin(
            points.iter().map(|p| (p.intensity, &p.enforced_mitigated)),
            target,
        ),
        unmitigated_margin: sustained_margin(
            points
                .iter()
                .map(|p| (p.intensity, &p.enforced_unmitigated)),
            target,
        ),
        monolithic_margin: sustained_margin(
            points.iter().map(|p| (p.intensity, &p.monolithic)),
            target,
        ),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, RtParams};
    use rtsdf_core::{EnforcedWaitsProblem, MonolithicProblem};

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

    fn cell(f: f64) -> StressSummary {
        StressSummary {
            miss_free_fraction: f,
            worst_miss_rate: 0.0,
            worst_admitted_miss_rate: 0.0,
            total_shed: 0,
            total_misses: 0,
            total_dropped: 0,
            total_resolves: 0,
            any_truncated: false,
        }
    }

    #[test]
    fn sustained_margin_is_a_prefix_property() {
        let cells = [cell(1.0), cell(1.0), cell(0.5), cell(1.0)];
        let pts: Vec<(f64, &StressSummary)> = [0.0, 0.5, 1.0, 1.5]
            .iter()
            .copied()
            .zip(cells.iter())
            .collect();
        // The dip at 1.0 caps the margin at 0.5 even though 1.5 passes.
        assert_eq!(sustained_margin(pts.iter().copied(), 0.95), Some(0.5));
        assert_eq!(sustained_margin(pts.iter().copied(), 0.4), Some(1.5));
        // Even the first point failing means no margin at all.
        assert_eq!(
            sustained_margin([(0.0, &cell(0.2))].iter().copied(), 0.95),
            None
        );
        // Exact equality with the target passes (no float-noise flake).
        assert_eq!(
            sustained_margin([(0.0, &cell(0.95))].iter().copied(), 0.95),
            Some(0.0)
        );
    }

    /// Regression: a NaN intensity used to abort the whole sweep at the
    /// level sort (`expect("finite intensities")`). Non-finite levels
    /// are now dropped up front and the finite ones still run.
    #[test]
    fn non_finite_intensities_are_dropped_not_fatal() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let enforced = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .unwrap();
        let mono = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 0, 200);
        let report = robustness_report(
            &Topology::chain(&p),
            &enforced,
            &mono,
            1e5,
            &cfg,
            1,
            &Perturbation::standard(1.0),
            &[f64::NAN, 0.0, f64::INFINITY],
            0.95,
            None,
        )
        .unwrap();
        assert_eq!(report.points.len(), 1);
        assert_eq!(report.points[0].intensity, 0.0);
    }

    #[test]
    fn sweep_on_blast_degrades_gracefully() {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        let enforced = EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .unwrap();
        let mono = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 0, 800);
        let report = robustness_report(
            &Topology::chain(&p),
            &enforced,
            &mono,
            1e5,
            &cfg,
            2,
            &Perturbation::standard(1.0),
            &[1.5, 0.0, 1.5], // unsorted + duplicate on purpose
            0.95,
            None,
        )
        .unwrap();
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.points[0].intensity, 0.0);
        assert_eq!(report.points[1].intensity, 1.5);
        // Unperturbed at the calibrated factors: miss-free, nothing
        // shed, nothing escalated.
        let base = &report.points[0];
        assert_eq!(base.enforced_mitigated.miss_free_fraction, 1.0);
        assert_eq!(base.enforced_unmitigated.miss_free_fraction, 1.0);
        assert_eq!(base.enforced_mitigated.total_shed, 0);
        assert_eq!(base.enforced_mitigated.total_resolves, 0);
        // Margins cover at least the unperturbed point.
        assert!(report.enforced_margin.is_some());
        assert!(report.unmitigated_margin.is_some());
        // Under heavy faults, mitigation keeps the admitted miss rate
        // at or below the unmitigated miss rate.
        let hot = &report.points[1];
        assert!(
            hot.enforced_mitigated.worst_admitted_miss_rate
                <= hot.enforced_unmitigated.worst_miss_rate + 1e-12,
            "mitigated admitted {} vs unmitigated {}",
            hot.enforced_mitigated.worst_admitted_miss_rate,
            hot.enforced_unmitigated.worst_miss_rate
        );
    }

    #[test]
    fn report_serde_roundtrip() {
        let report = RobustnessReport {
            target: 0.95,
            num_seeds: 4,
            points: vec![RobustnessPoint {
                intensity: 0.5,
                enforced_mitigated: cell(1.0),
                enforced_unmitigated: cell(0.75),
                monolithic: cell(0.5),
            }],
            enforced_margin: Some(0.5),
            unmitigated_margin: None,
            monolithic_margin: None,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: RobustnessReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.points.len(), 1);
        assert_eq!(back.enforced_margin, Some(0.5));
        assert_eq!(back.unmitigated_margin, None);
        assert_eq!(back.points[0].enforced_unmitigated.miss_free_fraction, 0.75);
    }
}
