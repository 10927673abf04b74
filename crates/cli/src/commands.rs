//! Command execution: load the pipeline, call into `rtsdf`, format the
//! results.

use crate::args::{Command, Strategy, TraceFormat};
use crate::live::{render_stress, render_sweep, LiveSession};
use bench::{MetricsFormat, RunManifest};
use obs_trace::{
    analyze, chrome_trace_string, render_blame, ForensicsConfig, SpanSink, TraceConfig,
};
use rtsdf::core::comparison::{sweep, SweepConfig, SweepProgress};
use rtsdf::core::{
    worker_threads, AnySchedule, EnforcedProblem, FlexibleSharesProblem, MonolithicProblem,
};
use rtsdf::exec::{sim_vs_real, ExecConfig};
use rtsdf::model::Topology;
use rtsdf::prelude::*;
use rtsdf::sim::calibration::{calibrate_enforced, CalibrationConfig, CalibrationError};
use rtsdf::sim::SimLiveMetrics;
use std::fmt;
use std::io::Write;

/// Execution failure (I/O, parsing, or scheduling).
#[derive(Debug)]
pub enum CommandError {
    /// Could not read or parse the pipeline file.
    Pipeline(String),
    /// Invalid operating parameters.
    Params(String),
    /// Output write failed.
    Io(std::io::Error),
    /// A `--gate` check failed (conservation or sim-vs-real agreement).
    Gate(String),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Pipeline(m) => write!(f, "pipeline: {m}"),
            CommandError::Params(m) => write!(f, "parameters: {m}"),
            CommandError::Io(e) => write!(f, "io: {e}"),
            CommandError::Gate(m) => write!(f, "gate: {m}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

impl From<SimError> for CommandError {
    fn from(e: SimError) -> Self {
        CommandError::Params(e.to_string())
    }
}

impl From<CalibrationError> for CommandError {
    fn from(e: CalibrationError) -> Self {
        CommandError::Params(e.to_string())
    }
}

fn load_pipeline(path: &str) -> Result<PipelineSpec, CommandError> {
    let raw = std::fs::read_to_string(path)
        .map_err(|e| CommandError::Pipeline(format!("cannot read '{path}': {e}")))?;
    serde_json::from_str(&raw)
        .map_err(|e| CommandError::Pipeline(format!("cannot parse '{path}': {e}")))
}

/// The dataflow a command operates on, as a [`Topology`]: a chain
/// [`PipelineSpec`] loaded from `--pipeline`, or one synthesized by a
/// built-in `--workload`.
struct Dataflow {
    topology: Topology,
    /// Whether it is a chain (`--pipeline` or `deepchain:N`); chain and
    /// DAG runs write manifests under different names.
    chain: bool,
}

impl Dataflow {
    fn chain(pipeline: &PipelineSpec) -> Self {
        Dataflow {
            topology: Topology::chain(pipeline),
            chain: true,
        }
    }
}

/// Seed for built-in workload synthesis. Fixed so `--workload` runs are
/// reproducible: the measured gains (and therefore schedules, metrics,
/// and bench manifests) are identical across invocations and machines.
const WORKLOAD_SEED: u64 = 7;

/// Resolve the mutually exclusive pipeline/workload pair into a loaded
/// dataflow plus a display name for reports and manifests.
fn load_dataflow(
    pipeline: &Option<String>,
    workload: &Option<String>,
) -> Result<(Dataflow, String), CommandError> {
    match (pipeline, workload) {
        (Some(path), None) => Ok((Dataflow::chain(&load_pipeline(path)?), path.clone())),
        (None, Some(name)) => match name.as_str() {
            "logalytics" => {
                let config = rtsdf::apps::logalytics::LogalyticsConfig::default();
                let topology = rtsdf::apps::logalytics::synthesize(&config, WORKLOAD_SEED)
                    .map_err(|e| CommandError::Pipeline(format!("workload '{name}': {e}")))?;
                let flow = Dataflow {
                    topology,
                    chain: false,
                };
                Ok((flow, name.clone()))
            }
            // Strict digits-only suffix parsing shared with the arg
            // scanner, so `deepchain:+8` / `deepchain: 8` cannot sneak
            // past via `usize::from_str`'s leniency.
            other => match crate::args::parse_deepchain_stages(other) {
                Some(stages) => {
                    let spec = rtsdf::apps::deepchain::deep_chain(stages)
                        .map_err(|e| CommandError::Pipeline(format!("workload '{name}': {e}")))?;
                    Ok((Dataflow::chain(&spec), name.clone()))
                }
                None => Err(CommandError::Pipeline(format!(
                    "unknown workload '{other}'"
                ))),
            },
        },
        _ => Err(CommandError::Pipeline(
            "exactly one of --pipeline or --workload is required".into(),
        )),
    }
}

fn params(tau0: f64, deadline: f64) -> Result<RtParams, CommandError> {
    RtParams::new(tau0, deadline).map_err(|e| CommandError::Params(e.to_string()))
}

fn backlog(topology: &Topology, b: Option<Vec<f64>>) -> Result<Vec<f64>, CommandError> {
    match b {
        None => Ok(EnforcedProblem::optimistic_backlog(topology)),
        Some(b) if b.len() == topology.len() => Ok(b),
        Some(b) => Err(CommandError::Params(format!(
            "--b has {} entries but the dataflow has {} stages",
            b.len(),
            topology.len()
        ))),
    }
}

/// Run a parsed command, writing human- or machine-readable output.
pub fn execute(cmd: Command, out: &mut dyn Write) -> Result<(), CommandError> {
    match cmd {
        Command::ExamplePipeline => {
            let p = rtsdf::blast::paper_pipeline();
            writeln!(
                out,
                "{}",
                serde_json::to_string_pretty(&p).expect("spec serializes")
            )?;
            Ok(())
        }
        Command::Optimize {
            pipeline,
            tau0,
            deadline,
            b,
            strategy,
            json,
        } => {
            let p = load_pipeline(&pipeline)?;
            let t = Topology::chain(&p);
            let params = params(tau0, deadline)?;
            let b = backlog(&t, b)?;
            let mut report = serde_json::Map::new();

            if matches!(strategy, Strategy::Enforced | Strategy::All) {
                match EnforcedProblem::new(&t, params, b.clone()).solve() {
                    Ok(s) => {
                        if !json {
                            writeln!(
                                out,
                                "enforced waits: active fraction {:.4}",
                                s.active_fraction
                            )?;
                            writeln!(out, "  waits: {:?}", round_vec(&s.waits))?;
                        }
                        report.insert("enforced".into(), serde_json::to_value(&s).unwrap());
                    }
                    Err(e) => {
                        if !json {
                            writeln!(out, "enforced waits: {e}")?;
                        }
                        report.insert("enforced_error".into(), e.to_string().into());
                    }
                }
            }
            if matches!(strategy, Strategy::Monolithic | Strategy::All) {
                match MonolithicProblem::new(&p, params, 1.0, 1.0).solve_fast() {
                    Ok(s) => {
                        if !json {
                            writeln!(
                                out,
                                "monolithic: M = {}, active fraction {:.4}",
                                s.block_size, s.active_fraction
                            )?;
                        }
                        report.insert("monolithic".into(), serde_json::to_value(&s).unwrap());
                    }
                    Err(e) => {
                        if !json {
                            writeln!(out, "monolithic: {e}")?;
                        }
                        report.insert("monolithic_error".into(), e.to_string().into());
                    }
                }
            }
            if matches!(strategy, Strategy::Flexible | Strategy::All) {
                match FlexibleSharesProblem::new(&p, params, b).solve() {
                    Ok(s) => {
                        if !json {
                            writeln!(
                                out,
                                "flexible shares: utilization {:.4}, shares {:?}",
                                s.utilization,
                                round_vec(&s.shares)
                            )?;
                        }
                        report.insert("flexible".into(), serde_json::to_value(&s).unwrap());
                    }
                    Err(e) => {
                        if !json {
                            writeln!(out, "flexible shares: {e}")?;
                        }
                        report.insert("flexible_error".into(), e.to_string().into());
                    }
                }
            }
            if json {
                writeln!(out, "{}", serde_json::Value::Object(report))?;
            }
            Ok(())
        }
        Command::Simulate {
            pipeline,
            workload,
            tau0,
            deadline,
            b,
            items,
            seeds,
            json,
            metrics,
        } => {
            let (flow, source) = load_dataflow(&pipeline, &workload)?;
            let params = params(tau0, deadline)?;
            let cfg = SimConfig::quick(tau0, 0, items);
            // The manifest name keys the CI baseline: chain runs gate
            // against BENCH_simulate.json, workload (DAG) runs against
            // BENCH_dag.json.
            let (experiment, source_key) = match flow.chain {
                true => ("simulate", "pipeline"),
                false => ("dag", "workload"),
            };
            let topology = flow.topology;
            let b = backlog(&topology, b)?;
            let sched = EnforcedProblem::new(&topology, params, b.clone())
                .solve()
                .map_err(|e| CommandError::Params(e.to_string()))?;
            let report = run_seeds(&cfg, seeds, None, |c, h| {
                enforced::simulate(&topology, &sched, deadline, c, h)
            })?;
            if let Some(format) = metrics {
                let path = match format {
                    MetricsFormat::Json => {
                        let mut config = serde_json::json!({
                            "tau0": tau0,
                            "deadline": deadline,
                            "b": b,
                            "items": items,
                            "seeds": seeds,
                        });
                        if let serde_json::Value::Object(m) = &mut config {
                            m.insert(
                                source_key.to_string(),
                                serde_json::Value::String(source.clone()),
                            );
                        }
                        RunManifest::new(
                            experiment,
                            config,
                            serde_json::json!({
                                "schedule": sched,
                                "runs": report,
                            }),
                        )
                        .write()?
                    }
                    MetricsFormat::Csv => {
                        let rows: Vec<Vec<String>> = report
                            .runs
                            .iter()
                            .enumerate()
                            .map(|(i, r)| {
                                vec![
                                    i.to_string(),
                                    format!("{:.6}", r.active_fraction),
                                    r.deadline_misses.to_string(),
                                    r.items_arrived.to_string(),
                                    r.items_completed.to_string(),
                                    r.items_dropped.to_string(),
                                ]
                            })
                            .collect();
                        bench::manifest::write_metrics_csv(
                            experiment,
                            &[
                                "seed",
                                "active_fraction",
                                "deadline_misses",
                                "items_arrived",
                                "items_completed",
                                "items_dropped",
                            ],
                            &rows,
                        )?
                    }
                };
                eprintln!("wrote {}", path.display());
            }
            if json {
                writeln!(
                    out,
                    "{}",
                    serde_json::json!({
                        "predicted_active_fraction": sched.active_fraction,
                        "mean_measured_active_fraction": report.mean_active_fraction(),
                        "miss_free_fraction": report.miss_free_fraction(),
                        "worst_miss_rate": report.worst_miss_rate(),
                        "max_backlog_vectors": report.max_backlog_vectors(),
                    })
                )?;
            } else {
                writeln!(out, "simulated {} seeds x {} items", seeds, items)?;
                writeln!(
                    out,
                    "  active fraction: predicted {:.4}, measured {:.4}",
                    sched.active_fraction,
                    report.mean_active_fraction()
                )?;
                writeln!(
                    out,
                    "  miss-free seeds: {:.0}%  worst miss rate: {:.4}%",
                    100.0 * report.miss_free_fraction(),
                    100.0 * report.worst_miss_rate()
                )?;
                writeln!(
                    out,
                    "  max backlog (vectors): {:?}",
                    round_vec(&report.max_backlog_vectors())
                )?;
            }
            Ok(())
        }
        Command::Sweep {
            pipeline,
            workload,
            grid,
            csv,
            metrics,
            live,
        } => {
            let (flow, _source) = load_dataflow(&pipeline, &workload)?;
            let (tau0s, ds) = RtParams::paper_grid(grid.0, grid.1);
            let experiment = if flow.chain { "sweep" } else { "sweep_dag" };
            let config = SweepConfig {
                enforced_b: EnforcedProblem::optimistic_backlog(&flow.topology),
                monolithic_b: 1.0,
                monolithic_s: 1.0,
            };
            let progress = live.enabled().then(|| SweepProgress::new(worker_threads()));
            let session = progress
                .as_ref()
                .map(|pr| LiveSession::start(&live, pr.registry(), render_sweep))
                .transpose()
                .map_err(CommandError::Params)?;
            // Bit-identical to the sequential sweep (property-tested), so
            // the CSV/manifest output is unchanged — just faster. Live
            // telemetry publishes on the side of each cell's solve.
            let r = sweep(&flow.topology, &tau0s, &ds, &config, progress.as_ref())
                .map_err(|e| CommandError::Params(e.to_string()))?;
            let snap = progress.as_ref().map(|pr| pr.registry().snapshot());
            if let Some(s) = session {
                s.finish();
            }
            if let Some(format) = metrics {
                let path = bench::manifest::emit_sweep_metrics_live(
                    experiment,
                    &r,
                    &config,
                    format,
                    snap.as_ref(),
                )?;
                eprintln!("wrote {}", path.display());
            }
            if csv {
                writeln!(out, "tau0,deadline,enforced_af,monolithic_af,difference")?;
                for c in &r.cells {
                    writeln!(
                        out,
                        "{},{},{},{},{}",
                        c.tau0,
                        c.deadline,
                        c.enforced.map_or(String::from("-"), |v| v.to_string()),
                        c.monolithic.map_or(String::from("-"), |v| v.to_string()),
                        c.difference().map_or(String::from("-"), |v| v.to_string()),
                    )?;
                }
            } else {
                writeln!(
                    out,
                    "swept {}x{} grid: enforced wins {:.0}% of comparable cells; max advantage {:+.3}",
                    grid.0,
                    grid.1,
                    100.0 * r.enforced_win_fraction(),
                    r.max_enforced_advantage().unwrap_or(0.0),
                )?;
            }
            Ok(())
        }
        Command::Gantt {
            pipeline,
            tau0,
            deadline,
            b,
            window,
            width,
        } => {
            let p = load_pipeline(&pipeline)?;
            let t = Topology::chain(&p);
            let params = params(tau0, deadline)?;
            let b = backlog(&t, b)?;
            let sched = EnforcedProblem::new(&t, params, b)
                .solve()
                .map_err(|e| CommandError::Params(e.to_string()))?;
            let cfg = SimConfig::quick(tau0, 0, 2_000);
            let tl = rtsdf::sim::timeline::record_timeline(&p, &sched, deadline, &cfg, window)?;
            writeln!(
                out,
                "firing timeline ('#' = busy, '.' = waiting; active fraction {:.3})",
                sched.active_fraction
            )?;
            write!(
                out,
                "{}",
                rtsdf::sim::timeline::render_ascii(&tl, width.max(10))
            )?;
            Ok(())
        }
        Command::Trace {
            pipeline,
            tau0,
            deadline,
            b,
            items,
            seed,
            strategy,
            format,
            alpha,
            out: out_path,
        } => {
            let p = load_pipeline(&pipeline)?;
            let params = params(tau0, deadline)?;
            let cfg = SimConfig::quick(tau0, seed, items);
            let forensics = ForensicsConfig {
                alpha,
                ..ForensicsConfig::default()
            };
            let topology = Topology::chain(&p);
            let mut sink = SpanSink::new(TraceConfig::default());
            let hooks = Hooks {
                spans: Some(&mut sink),
                ..Hooks::default()
            };
            let (mut metrics, solver_log) = match strategy {
                Strategy::Monolithic => {
                    let sched = MonolithicProblem::new(&p, params, 1.0, 1.0)
                        .solve_fast()
                        .map_err(|e| CommandError::Params(e.to_string()))?;
                    let m = monolithic::simulate(&topology, &sched, deadline, &cfg, hooks)?;
                    (m, None)
                }
                _ => {
                    let b = backlog(&topology, b)?;
                    let mut solver_sink = SpanSink::with_defaults();
                    let sched = EnforcedProblem::new(&topology, params, b)
                        .solve_traced(&mut solver_sink, 0)
                        .map_err(|e| CommandError::Params(e.to_string()))?;
                    let m = enforced::simulate(&topology, &sched, deadline, &cfg, hooks)?;
                    (m, Some(solver_sink.finish()))
                }
            };
            // Blame covers the simulated run; the solver's spans join the
            // exported trace afterwards.
            let mut log = sink.finish();
            metrics.blame = Some(analyze(&log, deadline, &forensics));
            if let Some(solver_log) = solver_log {
                log.merge(solver_log);
            }
            let payload = match format {
                TraceFormat::Chrome => chrome_trace_string(&log),
                TraceFormat::Json => {
                    let stats = serde_json::json!({
                        "spans": log.spans.len() as u64,
                        "instants": log.instants.len() as u64,
                        "visits": log.visits.len() as u64,
                        "fates": log.fates.len() as u64,
                        "dropped_spans": log.dropped_spans,
                        "dropped_visits": log.dropped_visits,
                    });
                    serde_json::to_string_pretty(&serde_json::json!({
                        "metrics": metrics,
                        "trace": stats,
                    }))
                    .expect("trace report serializes")
                }
            };
            std::fs::write(&out_path, payload)?;
            writeln!(
                out,
                "traced {items} items (seed {seed}): {} spans, {} visits -> {out_path}",
                log.spans.len(),
                log.visits.len(),
            )?;
            if let Some(blame) = &metrics.blame {
                write!(out, "{}", render_blame(blame))?;
            }
            Ok(())
        }
        Command::Stress {
            pipeline,
            workload,
            tau0,
            deadline,
            b,
            items,
            seeds,
            intensities,
            target,
            json,
            metrics,
            live,
        } => {
            let (flow, source) = load_dataflow(&pipeline, &workload)?;
            let params = params(tau0, deadline)?;
            let (experiment, source_key) = match flow.chain {
                true => ("stress", "pipeline"),
                false => ("stress_dag", "workload"),
            };
            let topology = flow.topology;
            let b = backlog(&topology, b)?;
            let enforced = EnforcedProblem::new(&topology, params, b.clone())
                .solve()
                .map_err(|e| CommandError::Params(e.to_string()))?;
            let mono = MonolithicProblem::new(&topology, params, 1.0, 1.0)
                .solve_fast()
                .map_err(|e| CommandError::Params(e.to_string()))?;
            let cfg = SimConfig::quick(tau0, 0, items);
            let live_metrics = live
                .enabled()
                .then(|| SimLiveMetrics::new(topology.len(), worker_threads()));
            let session = live_metrics
                .as_ref()
                .map(|m| LiveSession::start(&live, m.registry(), render_stress))
                .transpose()
                .map_err(CommandError::Params)?;
            let report = robustness_report(
                &topology,
                &enforced,
                &mono,
                deadline,
                &cfg,
                seeds,
                &Perturbation::standard(1.0),
                &intensities,
                target,
                live_metrics.as_ref(),
            )?;
            let snap = live_metrics.as_ref().map(|m| m.registry().snapshot());
            if let Some(s) = session {
                s.finish();
            }
            if let Some(format) = metrics {
                let path = match format {
                    MetricsFormat::Json => {
                        let mut results = serde_json::to_value(&report).expect("report serializes");
                        if let (Some(snap), serde_json::Value::Object(m)) = (&snap, &mut results) {
                            m.insert(
                                "live_metrics".into(),
                                serde_json::to_value(snap).expect("snapshot serializes"),
                            );
                        }
                        let mut config = serde_json::json!({
                            "tau0": tau0,
                            "deadline": deadline,
                            "b": b,
                            "items": items,
                            "seeds": seeds,
                            "intensities": intensities,
                            "target": target,
                        });
                        if let serde_json::Value::Object(m) = &mut config {
                            m.insert(
                                source_key.to_string(),
                                serde_json::Value::String(source.clone()),
                            );
                        }
                        RunManifest::new(experiment, config, results).write()?
                    }
                    MetricsFormat::Csv => {
                        let cell = |name: &str,
                                    pt: &rtsdf::sim::robustness::RobustnessPoint,
                                    s: &rtsdf::sim::robustness::StressSummary| {
                            vec![
                                format!("{:.4}", pt.intensity),
                                name.to_string(),
                                format!("{:.6}", s.miss_free_fraction),
                                format!("{:.6}", s.worst_miss_rate),
                                format!("{:.6}", s.worst_admitted_miss_rate),
                                s.total_shed.to_string(),
                                s.total_misses.to_string(),
                                s.total_dropped.to_string(),
                                s.total_resolves.to_string(),
                                s.any_truncated.to_string(),
                            ]
                        };
                        let rows: Vec<Vec<String>> = report
                            .points
                            .iter()
                            .flat_map(|pt| {
                                vec![
                                    cell("enforced_mitigated", pt, &pt.enforced_mitigated),
                                    cell("enforced_unmitigated", pt, &pt.enforced_unmitigated),
                                    cell("monolithic", pt, &pt.monolithic),
                                ]
                            })
                            .collect();
                        bench::manifest::write_metrics_csv(
                            experiment,
                            &[
                                "intensity",
                                "strategy",
                                "miss_free_fraction",
                                "worst_miss_rate",
                                "worst_admitted_miss_rate",
                                "total_shed",
                                "total_misses",
                                "total_dropped",
                                "total_resolves",
                                "any_truncated",
                            ],
                            &rows,
                        )?
                    }
                };
                eprintln!("wrote {}", path.display());
            }
            if json {
                writeln!(
                    out,
                    "{}",
                    serde_json::to_string(&report).expect("report serializes")
                )?;
            } else {
                let margin = |m: Option<f64>| m.map_or(String::from("none"), |v| format!("{v}"));
                writeln!(
                    out,
                    "stressed {} intensities x {} seeds x {} items (target miss-free {:.0}%)",
                    report.points.len(),
                    seeds,
                    items,
                    100.0 * target
                )?;
                for pt in &report.points {
                    writeln!(
                        out,
                        "  intensity {:.2}: mitigated miss-free {:.0}% (shed {}, resolves {}), \
                         unmitigated {:.0}%, monolithic {:.0}%",
                        pt.intensity,
                        100.0 * pt.enforced_mitigated.miss_free_fraction,
                        pt.enforced_mitigated.total_shed,
                        pt.enforced_mitigated.total_resolves,
                        100.0 * pt.enforced_unmitigated.miss_free_fraction,
                        100.0 * pt.monolithic.miss_free_fraction,
                    )?;
                }
                writeln!(
                    out,
                    "  margins: enforced+mitigation {}, enforced alone {}, monolithic {}",
                    margin(report.enforced_margin),
                    margin(report.unmitigated_margin),
                    margin(report.monolithic_margin),
                )?;
            }
            Ok(())
        }
        Command::Execute {
            pipeline,
            workload,
            tau0,
            deadline,
            b,
            items,
            seed,
            duration,
            strategy,
            sim_seeds,
            tolerance,
            gate,
            json,
            metrics,
        } => {
            let (flow, source) = load_dataflow(&pipeline, &workload)?;
            let params = params(tau0, deadline)?;
            let topology = flow.topology;
            let b = backlog(&topology, b)?;
            let schedule: AnySchedule = match strategy {
                Strategy::Monolithic => MonolithicProblem::new(&topology, params, 1.0, 1.0)
                    .solve_fast()
                    .map_err(|e| CommandError::Params(e.to_string()))?
                    .into(),
                _ => EnforcedProblem::new(&topology, params, b.clone())
                    .solve()
                    .map_err(|e| CommandError::Params(e.to_string()))?
                    .into(),
            };
            let mut config = ExecConfig::new(items, seed, tau0, deadline);
            config.target_duration_secs = duration;
            // Simulator seeds disjoint from the real run's seed so the
            // agreement check is a genuine cross-validation, not a
            // same-stream replay.
            let seeds: Vec<u64> = (1..=sim_seeds).collect();
            let report = sim_vs_real(&topology, &schedule, &config, &seeds, tolerance)
                .map_err(|e| CommandError::Params(e.to_string()))?;
            if let Some(format) = metrics {
                let path = match format {
                    MetricsFormat::Json => {
                        let mut config_json = serde_json::json!({
                            "tau0": tau0,
                            "deadline": deadline,
                            "b": b,
                            "items": items,
                            "seed": seed,
                            "duration": duration,
                            "strategy": report.strategy,
                            "sim_seeds": sim_seeds,
                            "tolerance": tolerance,
                        });
                        if let serde_json::Value::Object(m) = &mut config_json {
                            let key = if pipeline.is_some() {
                                "pipeline"
                            } else {
                                "workload"
                            };
                            m.insert(key.into(), serde_json::Value::String(source.clone()));
                        }
                        RunManifest::new(
                            "exec",
                            config_json,
                            serde_json::to_value(&report).expect("report serializes"),
                        )
                        .write()?
                    }
                    MetricsFormat::Csv => {
                        let rows: Vec<Vec<String>> = report
                            .quantities
                            .iter()
                            .map(|q| {
                                vec![
                                    q.quantity.clone(),
                                    format!("{:.6}", q.sim),
                                    format!("{:.6}", q.real),
                                    format!("{:.6}", q.error),
                                    q.within.to_string(),
                                ]
                            })
                            .collect();
                        bench::manifest::write_metrics_csv(
                            "exec",
                            &["quantity", "sim", "real", "error", "within"],
                            &rows,
                        )?
                    }
                };
                eprintln!("wrote {}", path.display());
            }
            if json {
                writeln!(
                    out,
                    "{}",
                    serde_json::to_string(&report).expect("report serializes")
                )?;
            } else {
                writeln!(
                    out,
                    "executed {} items on '{}' ({} strategy) across {} threads",
                    items,
                    source,
                    report.strategy,
                    topology.len(),
                )?;
                writeln!(
                    out,
                    "  real: active fraction {:.4}, miss rate {:.4}, horizon {:.0} cycles",
                    report.exec.active_fraction,
                    report.exec.miss_rate(),
                    report.exec.horizon_cycles,
                )?;
                for q in &report.quantities {
                    writeln!(
                        out,
                        "  {:>16}: sim {:.4}  real {:.4}  error {:.2}% {}",
                        q.quantity,
                        q.sim,
                        q.real,
                        100.0 * q.error,
                        if q.within { "(ok)" } else { "(DISAGREE)" },
                    )?;
                }
                let q = |o: Option<f64>| o.map_or_else(|| String::from("-"), |v| format!("{v:.0}"));
                for s in &report.sojourn {
                    writeln!(
                        out,
                        "  sojourn {:>10}: sim p50/p90 {}/{}  real {}/{} cycles",
                        s.stage,
                        q(s.sim_p50),
                        q(s.sim_p90),
                        q(s.real_p50),
                        q(s.real_p90),
                    )?;
                }
                writeln!(
                    out,
                    "  agreement: {} of {} quantities within {:.0}% ({})",
                    report.quantities.len() as u64 - report.agreement_failures,
                    report.quantities.len(),
                    100.0 * tolerance,
                    if report.passes() { "PASS" } else { "FAIL" },
                )?;
            }
            if gate && !report.passes() {
                return Err(CommandError::Gate(format!(
                    "sim-vs-real agreement failed: {} conservation violation(s), \
                     {} quantity disagreement(s) at tolerance {:.0}%",
                    report.conservation_violations,
                    report.agreement_failures,
                    100.0 * tolerance,
                )));
            }
            Ok(())
        }
        Command::Calibrate {
            pipeline,
            points,
            seeds,
            items,
        } => {
            let p = load_pipeline(&pipeline)?;
            let grid: Result<Vec<RtParams>, _> = points
                .iter()
                .map(|&(t, d)| RtParams::new(t, d).map_err(|e| CommandError::Params(e.to_string())))
                .collect();
            let config = CalibrationConfig {
                seeds_per_point: seeds,
                stream_length: items,
                ..CalibrationConfig::quick(grid?)
            };
            let result = calibrate_enforced(&p, &config)?;
            for (i, round) in result.rounds.iter().enumerate() {
                writeln!(
                    out,
                    "round {i}: b = {:?}, worst miss-free {:.2}",
                    round.b, round.worst_miss_free
                )?;
            }
            writeln!(
                out,
                "calibrated b = {:?} (converged: {})",
                result.b, result.converged
            )?;
            Ok(())
        }
    }
}

fn round_vec(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
