//! `stress-dag`: the robustness flow on the logalytics DAG. It drives
//! the simulators through topology routing, fault injection, shedding,
//! escalation re-solves and per-item live publishing, so a change that
//! helps the chain loop but costs these paths shows here.

use crate::simulate::{bits, conserved};
use crate::stats::{mean, median, share, Checks};
use crate::trace::{durations_us, Call, Tracer};
use crate::{core_split, measure, Ctx, Outcome};
use apps::logalytics::{synthesize, LogalyticsConfig};
use dataflow_model::{Perturbation, RtParams, Topology};
use des::stats::OnlineStats;
use pipeline_sim::{
    robustness_report_topology_live, simulate_enforced_topology_perturbed,
    simulate_enforced_topology_perturbed_live, simulate_monolithic_topology_perturbed,
    simulate_monolithic_topology_perturbed_live, MitigationPolicy, MultiSeedReport,
    RobustnessReport, SimConfig, SimLiveMetrics, SimMetrics, StressSummary,
};
use rtsdf_core::{EnforcedDagProblem, MonolithicDagProblem, MonolithicSchedule, WaitSchedule};

/// The seed `rtsdf-cli --workload logalytics` synthesizes the DAG from.
const TOPOLOGY_SEED: u64 = 7;
const TAU0: f64 = 40.0;
const DEADLINE: f64 = 4e5;
const ITEMS: usize = 20_000;
/// The robustness report numbers its seeds `0..SEEDS` itself.
const SEEDS: u64 = 4;
const INTENSITIES: [f64; 3] = [0.0, 0.5, 1.0];
const TARGET: f64 = 0.95;
/// Paired live/plain calls behind `metrics.live_overhead`.
const LIVE_PAIRS: usize = 9;

struct Stress {
    topology: Topology,
    enforced: WaitSchedule,
    monolithic: MonolithicSchedule,
    config: SimConfig,
}

fn prepare(tracer: &Tracer) -> Stress {
    let topology = synthesize(&LogalyticsConfig::default(), TOPOLOGY_SEED)
        .expect("the logalytics synthesis is valid");
    let params = RtParams::new(TAU0, DEADLINE).expect("positive operating point");
    let b = EnforcedDagProblem::optimistic_backlog(&topology);
    let enforced = tracer
        .span(Call::EnforcedDagSolve, || {
            EnforcedDagProblem::new(&topology, params, b).solve()
        })
        .expect("the enforced operating point is feasible");
    let monolithic = tracer
        .span(Call::MonolithicDagSolve, || {
            MonolithicDagProblem::new(&topology, params, 1.0, 1.0).solve_fast()
        })
        .expect("the monolithic operating point is feasible");
    Stress {
        topology,
        enforced,
        monolithic,
        config: SimConfig::quick(TAU0, 0, ITEMS),
    }
}

/// Items arrived, completed, dropped and shed, as the live registry
/// counted them.
type LiveCounts = [f64; 4];

fn pass(s: &Stress, workers: usize, tracer: &Tracer) -> (RobustnessReport, LiveCounts) {
    let live = tracer.span(Call::LiveRegistry, || {
        SimLiveMetrics::new(s.topology.len(), workers)
    });
    let report = tracer.span(Call::Robustness, || {
        robustness_report_topology_live(
            &s.topology,
            &s.enforced,
            &s.monolithic,
            DEADLINE,
            &s.config,
            SEEDS,
            &Perturbation::standard(1.0),
            &INTENSITIES,
            TARGET,
            Some(&live),
        )
    });
    let snap = tracer.span(Call::Snapshot, || live.registry().snapshot());
    let counts = ["arrived", "completed", "dropped", "shed"]
        .map(|what| snap.total(&format!("rtsdf_sim_items_{what}")));
    (report, counts)
}

/// One cell of the report: a strategy (and policy) at one intensity.
struct Cell {
    enforced_policy: Option<MitigationPolicy>,
    runs: Vec<SimMetrics>,
}

/// Re-run every seed of every cell of the report as one single call, the
/// call the report's seed fan-out makes, each in its own span.
fn replay(s: &Stress, tracer: &Tracer) -> Vec<Vec<Cell>> {
    let live = SimLiveMetrics::new(s.topology.len(), 1);
    let config = |seed| SimConfig {
        seed,
        ..s.config.clone()
    };
    INTENSITIES
        .iter()
        .map(|&intensity| {
            let perturb = Perturbation::standard(1.0).at_intensity(intensity);
            [
                Some(MitigationPolicy::full()),
                Some(MitigationPolicy::none()),
                None,
            ]
            .into_iter()
            .map(|enforced_policy| {
                let runs = (0..SEEDS)
                    .map(|seed| {
                        let handle = live.handle(0);
                        match &enforced_policy {
                            Some(policy) => tracer.span(Call::TopologyEnforcedLive, || {
                                simulate_enforced_topology_perturbed_live(
                                    &s.topology,
                                    &s.enforced,
                                    DEADLINE,
                                    &config(seed),
                                    &perturb,
                                    policy,
                                    &handle,
                                )
                            }),
                            None => tracer.span(Call::TopologyMonolithicLive, || {
                                simulate_monolithic_topology_perturbed_live(
                                    &s.topology,
                                    &s.monolithic,
                                    DEADLINE,
                                    &config(seed),
                                    &perturb,
                                    &handle,
                                )
                            }),
                        }
                    })
                    .collect();
                Cell {
                    enforced_policy,
                    runs,
                }
            })
            .collect()
        })
        .collect()
}

/// Wall µs of the live and plain simulator calls, paired on one seed at
/// full intensity with mitigation; each pair alternates which runs first.
fn live_pairs(s: &Stress, seed: u64, tracer: &Tracer) -> (Vec<f64>, Vec<f64>) {
    let live = SimLiveMetrics::new(s.topology.len(), 1);
    let perturb = Perturbation::standard(1.0);
    let policy = MitigationPolicy::full();
    let config = SimConfig {
        seed,
        ..s.config.clone()
    };
    let timed = |f: &dyn Fn()| {
        let before = tracer.spans().len();
        f();
        tracer.spans()[before..]
            .iter()
            .map(|sp| sp.dur_us())
            .sum::<f64>()
    };
    let with_live = || {
        let h = live.handle(0);
        tracer.span(Call::TopologyEnforcedLive, || {
            simulate_enforced_topology_perturbed_live(
                &s.topology,
                &s.enforced,
                DEADLINE,
                &config,
                &perturb,
                &policy,
                &h,
            )
        });
        tracer.span(Call::TopologyMonolithicLive, || {
            simulate_monolithic_topology_perturbed_live(
                &s.topology,
                &s.monolithic,
                DEADLINE,
                &config,
                &perturb,
                &h,
            )
        });
    };
    let plain = || {
        tracer.span(Call::TopologyEnforced, || {
            simulate_enforced_topology_perturbed(
                &s.topology,
                &s.enforced,
                DEADLINE,
                &config,
                &perturb,
                &policy,
            )
        });
        tracer.span(Call::TopologyMonolithic, || {
            simulate_monolithic_topology_perturbed(
                &s.topology,
                &s.monolithic,
                DEADLINE,
                &config,
                &perturb,
            )
        });
    };
    let (mut live_us, mut plain_us) = (Vec::new(), Vec::new());
    for i in 0..LIVE_PAIRS {
        if i % 2 == 0 {
            live_us.push(timed(&with_live));
            plain_us.push(timed(&plain));
        } else {
            plain_us.push(timed(&plain));
            live_us.push(timed(&with_live));
        }
    }
    (live_us, plain_us)
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let timed = measure(ctx, tracer, prepare, |s, _, t| pass(s, ctx.workers, t));
    let s = &timed.state;
    let (report, counts) = &timed.outputs[0].1;

    let mut checks = Checks::default();
    let mut conservation_violations = 0u64;
    let first_bits = bits(report);
    for (_, (later, c)) in &timed.outputs {
        let ok = c[1] + c[2] + c[3] == c[0];
        conservation_violations += u64::from(!ok);
        checks.hard(ok && bits(later) == first_bits);
    }
    let replay_tracer = tracer.fork(0);
    let cells = replay(s, &replay_tracer);
    let runs: Vec<&SimMetrics> = cells.iter().flatten().flat_map(|c| &c.runs).collect();
    for m in &runs {
        checks.hard(conserved(m));
        conservation_violations += u64::from(!conserved(m));
    }
    // The replayed cells must summarize to exactly the report's points.
    for (point, level) in report.points.iter().zip(&cells) {
        let summaries: Vec<StressSummary> = level
            .iter()
            .map(|c| {
                StressSummary::from_report(&MultiSeedReport {
                    runs: c.runs.clone(),
                })
            })
            .collect();
        let reported = [
            &point.enforced_mitigated,
            &point.enforced_unmitigated,
            &point.monolithic,
        ];
        checks.hard(bits(&summaries) == bits(&reported));
    }

    let arrived: u64 = runs.iter().map(|m| m.items_arrived).sum();
    let misses: u64 = runs.iter().map(|m| m.deadline_misses).sum();
    let shed: u64 = runs.iter().map(|m| m.items_shed).sum();
    let mut latency = OnlineStats::new();
    for m in &runs {
        latency.merge(&m.latency);
    }
    let items_per_s = share(counts[0], timed.fastest_untraced());
    let mut outcome = Outcome::new(&timed, checks);
    outcome.throughput = items_per_s;
    outcome.af_mean = mean(&runs.iter().map(|m| m.active_fraction).collect::<Vec<_>>());
    outcome.met_share = 1.0 - share((misses + shed) as f64, arrived as f64);
    outcome.latency_mean = latency.mean();
    outcome.latency_max = latency.max().unwrap_or(0.0);
    outcome.report = vec![
        ("items_per_s", items_per_s, "items/s"),
        ("af_mean", outcome.af_mean, "fraction"),
        (
            "miss_rate",
            share(misses as f64, arrived as f64),
            "fraction",
        ),
        ("shed_rate", share(shed as f64, arrived as f64), "fraction"),
        ("latency_mean_cycles", outcome.latency_mean, "cycles"),
        ("latency_max_cycles", outcome.latency_max, "cycles"),
        ("wrong_share", checks.wrong_share(), "fraction"),
    ];
    let resolves: u64 = report
        .points
        .iter()
        .map(|p| {
            p.enforced_mitigated.total_resolves
                + p.enforced_unmitigated.total_resolves
                + p.monolithic.total_resolves
        })
        .sum();
    outcome.set_layer("core.resolves", resolves as f64);
    outcome.set_layer(
        "sim.conservation_violations",
        conservation_violations as f64,
    );
    for (name, telemetry) in [
        ("core.enforced_iters_per_cell", &s.enforced.telemetry),
        ("core.monolithic_evals_per_cell", &s.monolithic.telemetry),
    ] {
        outcome.set_layer(
            name,
            telemetry.as_ref().map_or(0.0, |t| t.iterations as f64),
        );
    }

    if tracer.is_on() {
        core_split(&mut outcome, &tracer.spans());
        let spans = replay_tracer.spans();
        for (name, call, enforced) in [
            (
                "sim.topology_enforced_items_per_s",
                Call::TopologyEnforcedLive,
                true,
            ),
            (
                "sim.topology_monolithic_items_per_s",
                Call::TopologyMonolithicLive,
                false,
            ),
        ] {
            let items: u64 = cells
                .iter()
                .flatten()
                .filter(|c| c.enforced_policy.is_some() == enforced)
                .flat_map(|c| &c.runs)
                .map(|m| m.items_arrived)
                .sum();
            let secs = durations_us(&spans, |c| c == call).iter().sum::<f64>() / 1e6;
            outcome.set_layer(name, share(items as f64, secs));
        }
        let pairs_tracer = tracer.fork(0);
        let (live_us, plain_us) = live_pairs(s, ctx.seed % SEEDS, &pairs_tracer);
        outcome.set_layer(
            "metrics.live_overhead",
            share(median(&live_us), median(&plain_us)) - 1.0,
        );
        tracer.absorb(pairs_tracer);
    }
    tracer.absorb(replay_tracer);
    outcome
}
