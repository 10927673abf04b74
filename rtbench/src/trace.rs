//! Spans around the benchmark's calls into the workspace's layers.
//!
//! A [`Tracer`] records one [`Span`] (call, start, end, parent) per call
//! the benchmark makes into a layer's public functions, keeps them in
//! memory, and hands them to the pure functions below that derive self
//! times and shares. Spans live in the benchmark, not in the program:
//! what a layer does inside one call is not split further.

use obs_trace::{chrome_trace_string, SpanRecord, TraceLog, Track};
use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

/// A layer of the workspace, named after its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own work: set-up, passes, replay workers.
    Bench,
    /// `rtsdf_core`: the schedule solvers and the sweep scheduler.
    Core,
    /// `pipeline_sim`: the discrete-event simulators and seed fan-out.
    Sim,
    /// `metrics`: the live registry.
    Metrics,
    /// `rtsdf_exec`: the threaded executor.
    Exec,
}

/// One public call the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Building a workload's inputs and initial schedules.
    Setup,
    /// One measured pass of a workload.
    Pass,
    /// One replay worker thread.
    Worker,
    /// `EnforcedWaitsProblem::solve_with_fallback`.
    EnforcedSolve,
    /// `EnforcedDagProblem::solve`.
    EnforcedDagSolve,
    /// `MonolithicProblem::solve_fast`.
    MonolithicSolve,
    /// `MonolithicDagProblem::solve_fast`.
    MonolithicDagSolve,
    /// `comparison::sweep_parallel`.
    SweepParallel,
    /// `run_seeds_enforced`.
    RunSeedsEnforced,
    /// `run_seeds_monolithic`.
    RunSeedsMonolithic,
    /// `simulate_enforced`.
    SimulateEnforced,
    /// `simulate_monolithic`.
    SimulateMonolithic,
    /// `robustness_report_topology_live`.
    Robustness,
    /// `simulate_enforced_topology_perturbed_live`.
    TopologyEnforcedLive,
    /// `simulate_monolithic_topology_perturbed_live`.
    TopologyMonolithicLive,
    /// `simulate_enforced_topology_perturbed`.
    TopologyEnforced,
    /// `simulate_monolithic_topology_perturbed`.
    TopologyMonolithic,
    /// `SimLiveMetrics::new`.
    LiveRegistry,
    /// `Registry::snapshot`.
    Snapshot,
    /// `rtsdf_exec::calibrate`.
    Calibrate,
    /// `rtsdf_exec::run_enforced`.
    RunEnforced,
    /// `rtsdf_exec::sim_vs_real`.
    SimVsReal,
}

impl Call {
    /// The function the span wraps, prefixed with its crate.
    pub fn name(self) -> &'static str {
        match self {
            Call::Setup => "rtbench::setup",
            Call::Pass => "rtbench::pass",
            Call::Worker => "rtbench::replay_worker",
            Call::EnforcedSolve => "rtsdf_core::EnforcedWaitsProblem::solve_with_fallback",
            Call::EnforcedDagSolve => "rtsdf_core::EnforcedDagProblem::solve",
            Call::MonolithicSolve => "rtsdf_core::MonolithicProblem::solve_fast",
            Call::MonolithicDagSolve => "rtsdf_core::MonolithicDagProblem::solve_fast",
            Call::SweepParallel => "rtsdf_core::comparison::sweep_parallel",
            Call::RunSeedsEnforced => "pipeline_sim::run_seeds_enforced",
            Call::RunSeedsMonolithic => "pipeline_sim::run_seeds_monolithic",
            Call::SimulateEnforced => "pipeline_sim::simulate_enforced",
            Call::SimulateMonolithic => "pipeline_sim::simulate_monolithic",
            Call::Robustness => "pipeline_sim::robustness_report_topology_live",
            Call::TopologyEnforcedLive => "pipeline_sim::simulate_enforced_topology_perturbed_live",
            Call::TopologyMonolithicLive => {
                "pipeline_sim::simulate_monolithic_topology_perturbed_live"
            }
            Call::TopologyEnforced => "pipeline_sim::simulate_enforced_topology_perturbed",
            Call::TopologyMonolithic => "pipeline_sim::simulate_monolithic_topology_perturbed",
            Call::LiveRegistry => "pipeline_sim::SimLiveMetrics::new",
            Call::Snapshot => "metrics::Registry::snapshot",
            Call::Calibrate => "rtsdf_exec::calibrate",
            Call::RunEnforced => "rtsdf_exec::run_enforced",
            Call::SimVsReal => "rtsdf_exec::sim_vs_real",
        }
    }

    /// The layer whose public function the call enters.
    pub fn layer(self) -> Layer {
        match self {
            Call::Setup | Call::Pass | Call::Worker => Layer::Bench,
            Call::EnforcedSolve
            | Call::EnforcedDagSolve
            | Call::MonolithicSolve
            | Call::MonolithicDagSolve
            | Call::SweepParallel => Layer::Core,
            Call::RunSeedsEnforced
            | Call::RunSeedsMonolithic
            | Call::SimulateEnforced
            | Call::SimulateMonolithic
            | Call::Robustness
            | Call::TopologyEnforcedLive
            | Call::TopologyMonolithicLive
            | Call::TopologyEnforced
            | Call::TopologyMonolithic => Layer::Sim,
            Call::LiveRegistry | Call::Snapshot => Layer::Metrics,
            Call::Calibrate | Call::RunEnforced | Call::SimVsReal => Layer::Exec,
        }
    }

    /// An enforced-waits solve, chain or DAG.
    pub fn is_enforced_solve(self) -> bool {
        matches!(self, Call::EnforcedSolve | Call::EnforcedDagSolve)
    }

    /// A monolithic block-size solve, chain or DAG.
    pub fn is_monolithic_solve(self) -> bool {
        matches!(self, Call::MonolithicSolve | Call::MonolithicDagSolve)
    }
}

/// One closed call: microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in its trace.
    pub id: usize,
    /// The span that was open when this one started, on the same thread.
    pub parent: Option<usize>,
    /// What was called.
    pub call: Call,
    /// Thread the call ran on (0 = the benchmark's main thread).
    pub tid: u64,
    /// Start, µs since the epoch.
    pub start_us: f64,
    /// End, µs since the epoch.
    pub end_us: f64,
}

impl Span {
    /// Wall duration, µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans on one thread; a disabled tracer only runs the calls.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u64,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            tid: 0,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A tracer for thread `tid` sharing this one's epoch and switch;
    /// hand it back with [`Tracer::absorb`].
    pub fn fork(&self, tid: u64) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            tid,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span for `call`.
    pub fn span<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.open.borrow().last().copied(),
                call,
                tid: self.tid,
                start_us,
                end_us: start_us,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Append another thread's spans, renumbering them after this
    /// tracer's own.
    pub fn absorb(&self, other: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        spans.extend(other.spans.into_inner().into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Each span's self time: its duration minus the part its children
/// cover. Children nest strictly inside their parent on one thread, so
/// their durations simply add up.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

/// Summed duration of the top-level spans: the traced wall time. (Sums
/// fold from +0.0: an empty `f64` sum is -0.0, which would print as such.)
pub fn roots_total_us(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_us)
        .fold(0.0, |a, b| a + b)
}

/// Summed self time of the spans whose call matches `pick`.
pub fn self_total_us(spans: &[Span], pick: impl Fn(Call) -> bool) -> f64 {
    spans
        .iter()
        .zip(self_times_us(spans))
        .filter(|(s, _)| pick(s.call))
        .map(|(_, own)| own)
        .fold(0.0, |a, b| a + b)
}

/// Durations, µs, of the spans whose call matches `pick`, in order.
pub fn durations_us(spans: &[Span], pick: impl Fn(Call) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| pick(s.call))
        .map(Span::dur_us)
        .collect()
}

/// Write the spans as a Chrome/Perfetto trace (one row per thread,
/// wall µs), with each span's id and parent in its detail.
pub fn write_chrome(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let log = TraceLog {
        spans: spans
            .iter()
            .map(|s| SpanRecord {
                track: Track::solver(s.tid),
                name: s.call.name().to_string(),
                cat: format!("{:?}", s.call.layer()).to_lowercase(),
                detail: match s.parent {
                    Some(p) => format!("id={} parent={p}", s.id),
                    None => format!("id={}", s.id),
                },
                start: s.start_us,
                dur: s.dur_us(),
                depth: depth(spans, s),
            })
            .collect(),
        ..TraceLog::default()
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace_string(&log))
}

fn depth(spans: &[Span], s: &Span) -> u32 {
    let mut d = 0;
    let mut p = s.parent;
    while let Some(i) = p {
        d += 1;
        p = spans[i].parent;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, call: Call, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            call,
            tid: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, Call::Pass, 0.0, 100.0),
            span(1, Some(0), Call::Robustness, 10.0, 70.0),
            span(2, Some(1), Call::EnforcedSolve, 20.0, 30.0),
            span(3, Some(0), Call::Snapshot, 80.0, 90.0),
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 50.0, 10.0, 10.0]);
        // Self times partition the traced wall exactly.
        let total: f64 = self_times_us(&spans).iter().sum();
        assert_eq!(total, roots_total_us(&spans));
        assert_eq!(self_total_us(&spans, |c| c.layer() == Layer::Sim), 50.0);
        assert_eq!(self_total_us(&spans, |c| c.layer() == Layer::Metrics), 10.0);
    }

    #[test]
    fn roots_sum_every_top_level_span() {
        let spans = vec![
            span(0, None, Call::Setup, 0.0, 5.0),
            span(1, Some(0), Call::MonolithicSolve, 1.0, 4.0),
            span(2, None, Call::Pass, 5.0, 25.0),
        ];
        assert_eq!(roots_total_us(&spans), 25.0);
        assert_eq!(durations_us(&spans, Call::is_monolithic_solve), vec![3.0]);
    }

    #[test]
    fn tracer_nests_and_absorbs_forks() {
        let t = Tracer::new(true);
        let v = t.span(Call::Pass, || t.span(Call::EnforcedSolve, || 7));
        assert_eq!(v, 7);
        let fork = t.fork(3);
        fork.span(Call::Worker, || fork.span(Call::MonolithicSolve, || ()));
        t.absorb(fork);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].call, Call::Pass);
        assert_eq!(spans[1].parent, Some(0));
        // The fork's ids were renumbered after the main thread's.
        assert_eq!((spans[2].id, spans[2].parent, spans[2].tid), (2, None, 3));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        assert!(spans[0].end_us >= spans[1].end_us);
    }

    #[test]
    fn disabled_tracer_runs_calls_and_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span(Call::Pass, || 3), 3);
        assert!(t.spans().is_empty());
        assert!(t.fork(1).spans().is_empty());
    }
}
