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
//!
//! The whole sweep is one job list: every (intensity, cell, seed) run in
//! that order, handed once to the runner's shared job queue (see
//! [`crate::runner`]). Workers claim runs across cell and intensity
//! boundaries, so the sweep waits on one barrier at its end instead of
//! one per cell, and each cell's summary is rebuilt from its runs in
//! seed order afterwards.

use crate::config::SimConfig;
use crate::faults::MitigationPolicy;
use crate::hooks::{Hooks, SimError};
use crate::live::SimLiveMetrics;
use crate::runner::{run_jobs, seed_configs, split_reports, MultiSeedReport};
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

/// The three strategy cells of a sweep point, in report order.
#[derive(Clone, Copy)]
enum Cell {
    EnforcedMitigated,
    EnforcedUnmitigated,
    Monolithic,
}

const CELLS: [Cell; 3] = [
    Cell::EnforcedMitigated,
    Cell::EnforcedUnmitigated,
    Cell::Monolithic,
];

/// One run of the sweep: a seed of one cell at one intensity.
struct Job {
    level: usize,
    cell: Cell,
    config: SimConfig,
}

/// Sweep perturbation intensity over both strategies on `topology`
/// (chain callers pass [`Topology::chain`]).
///
/// `perturb` supplies the component mix; each point re-scales it with
/// [`Perturbation::at_intensity`]. Intensities are swept in ascending
/// order regardless of input order (the margin is a prefix property),
/// and non-finite ones are dropped. Every cell runs the same `num_seeds`
/// seeds, so the three curves are paired sample-by-sample. All runs of
/// all cells share one job queue across [`rtsdf_core::worker_threads`]
/// threads.
///
/// With `live`, progress is published into a metrics registry:
/// `rtsdf_sim_runs_total` is set to the whole sweep's run count
/// (levels × 3 strategies × seeds) up front, every finished seed bumps
/// `rtsdf_sim_runs_completed`, and the per-run item counters accumulate
/// across all cells. Publishing does not change a simulated bit.
///
/// # Errors
/// The first [`SimError`] in (intensity, cell, seed) order (see the
/// strategies' `simulate`).
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
    robustness_report_on(
        rtsdf_core::worker_threads(),
        topology,
        enforced,
        monolithic,
        deadline,
        config,
        num_seeds,
        perturb,
        intensities,
        target,
        live,
    )
}

/// [`robustness_report`] on `workers` threads.
#[allow(clippy::too_many_arguments)]
pub(crate) fn robustness_report_on(
    workers: usize,
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
    let perturbs: Vec<Perturbation> = levels.iter().map(|&x| perturb.at_intensity(x)).collect();
    let mitigated = MitigationPolicy::full();
    let unmitigated = MitigationPolicy::none();
    let mut jobs = Vec::new();
    for level in 0..levels.len() {
        for cell in CELLS {
            jobs.extend(seed_configs(config, num_seeds).map(|config| Job {
                level,
                cell,
                config,
            }));
        }
    }
    let runs = run_jobs(&jobs, workers, live, |job, h| {
        let p = &perturbs[job.level];
        let c = &job.config;
        match job.cell {
            Cell::EnforcedMitigated => {
                let faults = Some((p, &mitigated));
                enforced::simulate(topology, enforced, deadline, c, Hooks { faults, ..h })
            }
            Cell::EnforcedUnmitigated => {
                let faults = Some((p, &unmitigated));
                enforced::simulate(topology, enforced, deadline, c, Hooks { faults, ..h })
            }
            Cell::Monolithic => {
                let faults = Some((p, &unmitigated));
                monolithic::simulate(topology, monolithic, deadline, c, Hooks { faults, ..h })
            }
        }
    })
    .into_iter()
    .collect::<Result<Vec<_>, SimError>>()?;
    let mut cells = split_reports(runs, num_seeds, levels.len() * CELLS.len())
        .into_iter()
        .map(|report| StressSummary::from_report(&report));
    let mut next = || cells.next().expect("three cells per level");
    let points: Vec<RobustnessPoint> = levels
        .iter()
        .map(|&intensity| RobustnessPoint {
            intensity,
            // Fields evaluate in the order written: the cells' job order.
            enforced_mitigated: next(),
            enforced_unmitigated: next(),
            monolithic: next(),
        })
        .collect();
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
    use crate::metrics::SimMetrics;
    use crate::runner::run_seeds;
    use apps::logalytics::{synthesize, LogalyticsConfig};
    use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, RtParams};
    use rtsdf_core::{
        EnforcedDagProblem, EnforcedWaitsProblem, MonolithicDagProblem, MonolithicProblem,
    };

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

    /// A topology with both strategies' schedules and a run config.
    struct Case {
        topology: Topology,
        enforced: WaitSchedule,
        monolithic: MonolithicSchedule,
        deadline: f64,
        config: SimConfig,
        intensities: Vec<f64>,
    }

    fn blast_case() -> Case {
        let p = blast();
        let params = RtParams::new(10.0, 1e5).unwrap();
        Case {
            topology: Topology::chain(&p),
            enforced: EnforcedWaitsProblem::new(&p, params, vec![1.0, 3.0, 9.0, 6.0])
                .solve()
                .unwrap(),
            monolithic: MonolithicProblem::new(&p, params, 1.0, 1.0)
                .solve()
                .unwrap(),
            deadline: 1e5,
            config: SimConfig::quick(10.0, 3, 600),
            intensities: vec![0.0, 1.5],
        }
    }

    /// The logalytics DAG at the stress workload's operating point:
    /// routing weights, empirical gains, shedding and re-solves.
    fn logalytics_case() -> Case {
        let t = synthesize(&LogalyticsConfig::default(), 7).unwrap();
        let params = RtParams::new(40.0, 4e5).unwrap();
        let b = EnforcedDagProblem::optimistic_backlog(&t);
        Case {
            enforced: EnforcedDagProblem::new(&t, params, b).solve().unwrap(),
            monolithic: MonolithicDagProblem::new(&t, params, 1.0, 1.0)
                .solve_fast()
                .unwrap(),
            topology: t,
            deadline: 4e5,
            config: SimConfig::quick(40.0, 0, 1_500),
            intensities: vec![0.0, 0.5, 1.0],
        }
    }

    const SEEDS: u64 = 3;

    fn report_on(c: &Case, workers: usize, live: Option<&SimLiveMetrics>) -> RobustnessReport {
        robustness_report_on(
            workers,
            &c.topology,
            &c.enforced,
            &c.monolithic,
            c.deadline,
            &c.config,
            SEEDS,
            &Perturbation::standard(1.0),
            &c.intensities,
            0.95,
            live,
        )
        .unwrap()
    }

    /// The report as nine per-cell `run_seeds` calls composed it before
    /// the sweep shared one job queue, with every cell's runs.
    fn per_cell_report(
        c: &Case,
        live: Option<&SimLiveMetrics>,
    ) -> (RobustnessReport, Vec<SimMetrics>) {
        if let Some(m) = live {
            m.set_runs_total(c.intensities.len() as u64 * 3 * SEEDS);
        }
        let (mitigated, unmitigated) = (MitigationPolicy::full(), MitigationPolicy::none());
        let mut runs = Vec::new();
        let mut points = Vec::new();
        for &intensity in &c.intensities {
            let p = Perturbation::standard(1.0).at_intensity(intensity);
            let mut cell = |policy: Option<&MitigationPolicy>| {
                let report = run_seeds(&c.config, SEEDS, live, |cfg, h| match policy {
                    Some(policy) => {
                        let faults = Some((&p, policy));
                        let h = Hooks { faults, ..h };
                        enforced::simulate(&c.topology, &c.enforced, c.deadline, cfg, h)
                    }
                    None => {
                        let faults = Some((&p, &unmitigated));
                        let h = Hooks { faults, ..h };
                        monolithic::simulate(&c.topology, &c.monolithic, c.deadline, cfg, h)
                    }
                })
                .unwrap();
                let summary = StressSummary::from_report(&report);
                runs.extend(report.runs);
                summary
            };
            points.push(RobustnessPoint {
                intensity,
                enforced_mitigated: cell(Some(&mitigated)),
                enforced_unmitigated: cell(Some(&unmitigated)),
                monolithic: cell(None),
            });
        }
        let margin = |f: fn(&RobustnessPoint) -> &StressSummary| {
            sustained_margin(points.iter().map(|p| (p.intensity, f(p))), 0.95)
        };
        let report = RobustnessReport {
            target: 0.95,
            num_seeds: SEEDS,
            enforced_margin: margin(|p| &p.enforced_mitigated),
            unmitigated_margin: margin(|p| &p.enforced_unmitigated),
            monolithic_margin: margin(|p| &p.monolithic),
            points,
        };
        (report, runs)
    }

    fn json(r: &RobustnessReport) -> String {
        serde_json::to_string(r).expect("reports serialize")
    }

    /// Items arrived, completed, dropped and shed, as a registry counted
    /// them.
    fn live_items(m: &SimLiveMetrics) -> [u64; 4] {
        let (arrived, completed, shed) = m.item_counts();
        let dropped = m.registry().snapshot().total("rtsdf_sim_items_dropped") as u64;
        [arrived, completed, dropped, shed]
    }

    fn summed_items(runs: &[SimMetrics]) -> [u64; 4] {
        let sum = |f: fn(&SimMetrics) -> u64| runs.iter().map(f).sum();
        [
            sum(|r| r.items_arrived),
            sum(|r| r.items_completed),
            sum(|r| r.items_dropped),
            sum(|r| r.items_shed),
        ]
    }

    #[test]
    fn one_job_queue_reproduces_the_per_cell_report() {
        for c in [blast_case(), logalytics_case()] {
            let (oracle, runs) = per_cell_report(&c, None);
            let want = json(&oracle);
            for workers in [1, 2, 3, 7] {
                assert_eq!(
                    json(&report_on(&c, workers, None)),
                    want,
                    "{workers} workers"
                );
                let live = SimLiveMetrics::new(c.topology.len(), 2);
                let got = report_on(&c, workers, Some(&live));
                assert_eq!(json(&got), want, "{workers} workers, live");
                assert_eq!(live.runs_total(), runs.len() as u64);
                assert_eq!(live.runs_completed(), live.runs_total());
                assert_eq!(live_items(&live), summed_items(&runs), "{workers} workers");
            }
            // The per-cell composition with live publishes the same
            // totals, so both sides of the comparison saw live.
            let live = SimLiveMetrics::new(c.topology.len(), 2);
            let (with_live, _) = per_cell_report(&c, Some(&live));
            assert_eq!(json(&with_live), want);
            assert_eq!(live_items(&live), summed_items(&runs));
        }
    }

    #[test]
    fn the_first_error_comes_back_in_level_cell_seed_order() {
        // A periods vector of the wrong length fails both enforced cells
        // at every level; a gain drift of -1 makes the perturbation
        // invalid above intensity 1, so every cell of level 1.5 fails
        // too (the monolithic one with `InvalidPerturbation`). Whichever
        // job fails first on the clock, the answer is the first failing
        // job in (level, cell, seed) order.
        let c = blast_case();
        let short = WaitSchedule {
            periods: vec![10.0; 2],
            ..c.enforced.clone()
        };
        let mut perturb = Perturbation::standard(1.0);
        perturb.gain_drift = -1.0;
        let invalid =
            SimError::InvalidPerturbation(perturb.at_intensity(1.5).validate().unwrap_err());
        let run = |workers, enforced: &WaitSchedule| {
            robustness_report_on(
                workers,
                &c.topology,
                enforced,
                &c.monolithic,
                c.deadline,
                &c.config,
                SEEDS,
                &perturb,
                &[1.5, 0.0],
                0.95,
                None,
            )
            .unwrap_err()
        };
        for workers in [1, 2, 3, 7] {
            assert_eq!(
                run(workers, &short),
                SimError::ScheduleLength { nodes: 4, got: 2 }
            );
            assert_eq!(run(workers, &c.enforced), invalid);
        }
    }
}
