//! rtbench — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path rtbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds a workload's inputs from the seed, sets it up, runs one
//! untimed warm-up pass, then repeats timed passes for `--seconds`,
//! checks the outputs outside the timed region, and prints a readable
//! report followed by one JSON line: the end-to-end metrics with
//! `--trace 0`, or the per-layer metrics of a traced run with
//! `--trace 1`. `rtbench/README.md` defines every metric and workload.

mod execute;
mod simulate;
mod stats;
mod stress;
mod sweep;
mod trace;

use serde_json::{Map, Value};
use stats::{median, percentile, share, Checks};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{durations_us, roots_total_us, self_total_us, Call, Span, Tracer};

const USAGE: &str =
    "usage: rtbench --workload <sweep-blast|simulate-blast|stress-dag|execute-blast> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "sweep-blast",
    "simulate-blast",
    "stress-dag",
    "execute-blast",
];

/// End-to-end metrics (untraced runs): name and unit.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("af_mean", "fraction"),
    ("deadline_met_share", "fraction"),
    ("latency_mean_cycles", "cycles"),
    ("latency_max_cycles", "cycles"),
    ("correct_share", "fraction"),
];

/// Per-layer metrics (traced runs): name and unit. A layer that does not
/// run on a workload reports 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("core.monolithic_share", "fraction"),
    ("core.monolithic_us_p50", "us"),
    ("core.monolithic_us_p99", "us"),
    ("core.monolithic_evals_per_cell", "count"),
    ("core.enforced_share", "fraction"),
    ("core.enforced_us_p50", "us"),
    ("core.enforced_us_p99", "us"),
    ("core.enforced_iters_per_cell", "count"),
    ("core.sweep_overhead_share", "fraction"),
    ("core.monolithic_mismatches", "count"),
    ("core.enforced_kkt_failures", "count"),
    ("core.resolves", "count"),
    ("sim.enforced_items_per_s", "1/s"),
    ("sim.monolithic_items_per_s", "1/s"),
    ("sim.enforced_share", "fraction"),
    ("sim.seed_parallel_efficiency", "fraction"),
    ("sim.topology_enforced_items_per_s", "1/s"),
    ("sim.topology_monolithic_items_per_s", "1/s"),
    ("sim.reference_mismatches", "count"),
    ("sim.conservation_violations", "count"),
    ("metrics.live_overhead", "fraction"),
    ("exec.pacer_late_max_ms", "ms"),
    ("exec.sleep_overshoot_us", "us"),
    ("exec.send_blocked_ms", "ms"),
    ("exec.p90_distance_max", "fraction"),
    ("exec.calibrate_ms", "ms"),
    ("exec.conservation_violations", "count"),
    ("exec.agreement_failures", "count"),
    ("bench.trace_overhead", "fraction"),
];

/// Set-up (everything before the first timed pass) is repeated this
/// many times and its median reported.
const SETUP_REPEATS: usize = 3;

/// What every workload gets from the command line and the machine.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// How long the timed passes run, seconds.
    pub seconds: f64,
    /// Worker threads for sweeps and seed fan-out.
    pub workers: usize,
}

/// A workload's state after set-up plus its timed passes.
pub struct Timed<S, O> {
    /// What set-up built.
    pub state: S,
    /// Median time of set-up plus the warm-up pass, seconds.
    pub setup_s: f64,
    /// Wall seconds of each untraced pass.
    pub untraced: Vec<f64>,
    /// Wall seconds of each traced pass.
    pub traced: Vec<f64>,
    /// Each pass's output, flagged when the pass was traced.
    pub outputs: Vec<(bool, O)>,
}

impl<S, O> Timed<S, O> {
    /// Wall seconds of the fastest untraced pass. Other work on the
    /// machine only ever slows a pass down, so on a shared machine the
    /// fastest pass is the steadiest estimate of what the code costs.
    pub fn fastest_untraced(&self) -> f64 {
        self.untraced.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Set a workload up and run one untimed warm-up pass, `SETUP_REPEATS`
/// times (the last set-up traced), then run passes until `ctx.seconds`
/// have passed. `pass` gets the pass number: 0 for the warm-up, then 1, 2, …. A traced run alternates untraced and traced passes, so the
/// two walls can be compared.
pub fn measure<S, O>(
    ctx: &Ctx,
    tracer: &Tracer,
    prepare: impl Fn(&Tracer) -> S,
    pass: impl Fn(&S, u64, &Tracer) -> O,
) -> Timed<S, O> {
    let off = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        let t = if i + 1 == SETUP_REPEATS { tracer } else { &off };
        let start = Instant::now();
        let s = t.span(Call::Setup, || prepare(t));
        pass(&s, 0, &off);
        setups.push(start.elapsed().as_secs_f64());
        state = Some(s);
    }
    let state = state.expect("set-up ran");
    let setup_s = median(&setups);

    let min_passes = if tracer.is_on() { 2 } else { 1 };
    let mut timed = Timed {
        state,
        setup_s,
        untraced: Vec::new(),
        traced: Vec::new(),
        outputs: Vec::new(),
    };
    let start = Instant::now();
    while timed.outputs.len() < min_passes || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = tracer.is_on() && timed.outputs.len() % 2 == 1;
        let t = if traced { tracer } else { &off };
        let pass_start = Instant::now();
        let number = timed.outputs.len() as u64 + 1;
        let out = t.span(Call::Pass, || pass(&timed.state, number, t));
        let wall = pass_start.elapsed().as_secs_f64();
        if traced {
            timed.traced.push(wall);
        } else {
            timed.untraced.push(wall);
        }
        timed.outputs.push((traced, out));
    }
    timed
}

/// What a workload reports.
pub struct Outcome {
    /// Timed passes run.
    pub passes: usize,
    /// Wall seconds of the untraced passes.
    pub untraced_walls: Vec<f64>,
    /// See the `setup_s` metric.
    pub setup_s: f64,
    /// Work per wall second of a pass (cells or stream items).
    pub throughput: f64,
    /// Mean active fraction of the workload's schedules or runs.
    pub af_mean: f64,
    /// Share of cells or items that met their deadline.
    pub met_share: f64,
    /// Mean item latency, cycles.
    pub latency_mean: f64,
    /// Largest item latency, cycles.
    pub latency_max: f64,
    /// Output checks.
    pub checks: Checks,
    /// The workload's own metrics under the names its doc uses, with
    /// units, for the readable report.
    pub report: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metric values, in `PER_LAYER` order.
    layers: Vec<f64>,
}

impl Outcome {
    /// An outcome carrying `timed`'s set-up time, pass count and trace
    /// overhead; the workload fills in the rest.
    pub fn new<S, O>(timed: &Timed<S, O>, checks: Checks) -> Self {
        let mut outcome = Outcome {
            passes: timed.outputs.len(),
            untraced_walls: timed.untraced.clone(),
            setup_s: timed.setup_s,
            throughput: 0.0,
            af_mean: 0.0,
            met_share: 0.0,
            latency_mean: 0.0,
            latency_max: 0.0,
            checks,
            report: Vec::new(),
            layers: vec![0.0; PER_LAYER.len()],
        };
        outcome.set_layer(
            "bench.trace_overhead",
            stats::trace_overhead(&timed.traced, &timed.untraced),
        );
        outcome
    }

    /// Set a per-layer metric.
    ///
    /// # Panics
    /// Panics on a name `PER_LAYER` does not list (a bug here).
    pub fn set_layer(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        self.layers[i] = value;
    }

    fn end_to_end(&self) -> [f64; 7] {
        [
            self.setup_s,
            self.throughput,
            self.af_mean,
            self.met_share,
            self.latency_mean,
            self.latency_max,
            1.0 - self.checks.wrong_share(),
        ]
    }
}

/// The solver split of a workload that solves a few schedules in set-up:
/// each solve kind's self time as a share of the traced wall, and its
/// per-call percentiles.
pub fn core_split(outcome: &mut Outcome, spans: &[Span]) {
    let total = roots_total_us(spans);
    for (kind, pick) in [
        ("enforced", Call::is_enforced_solve as fn(Call) -> bool),
        ("monolithic", Call::is_monolithic_solve),
    ] {
        let durs = durations_us(spans, pick);
        let own = self_total_us(spans, pick);
        outcome.set_layer(&format!("core.{kind}_share"), share(own, total));
        outcome.set_layer(&format!("core.{kind}_us_p50"), percentile(&durs, 0.50));
        outcome.set_layer(&format!("core.{kind}_us_p99"), percentile(&durs, 0.99));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--workload" => return Err(bad("a workload")),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The checkout's commit, read from `.git` without leaving the checkout;
/// `None` outside a git checkout.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

fn metrics_json(names: &[(&str, &str)], values: &[f64]) -> Value {
    let mut m = Map::new();
    for ((name, unit), &value) in names.iter().zip(values) {
        let mut entry = Map::new();
        entry.insert("value".into(), serde_json::json!(value));
        entry.insert("unit".into(), serde_json::json!(unit));
        m.insert(name.to_string(), Value::Object(entry));
    }
    Value::Object(m)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Cap sweep and seed workers at the machine's parallelism through the
    // workspace's own knob, before any worker thread exists.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var(rtsdf_core::threads::THREADS_ENV, nproc.to_string());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        workers: rtsdf_core::worker_threads(),
    };
    let tracer = Tracer::new(args.trace);
    let outcome = match args.workload.as_str() {
        "sweep-blast" => sweep::run(&ctx, &tracer),
        "simulate-blast" => simulate::run(&ctx, &tracer),
        "stress-dag" => stress::run(&ctx, &tracer),
        _ => execute::run(&ctx, &tracer),
    };

    println!(
        "rtbench {}: seed {}, {} s, trace {}, nproc {}, workers {}, git {}, {} passes \
         (untraced pass wall min {:.4} / median {:.4} / max {:.4} s)",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        nproc,
        ctx.workers,
        git_rev(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        outcome.passes,
        outcome
            .untraced_walls
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        median(&outcome.untraced_walls),
        outcome.untraced_walls.iter().copied().fold(0.0, f64::max),
    );
    for (name, value, unit) in &outcome.report {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    println!(
        "  checks: {} checked, {} wrong, {} failed",
        outcome.checks.checked, outcome.checks.wrong, outcome.checks.failed
    );
    let (names, values): (&[(&str, &str)], Vec<f64>) = if args.trace {
        let path = trace_path(&args.workload, ctx.seed);
        match trace::write_chrome(&path, &tracer.spans()) {
            Ok(()) => println!("  trace: {}", path.display()),
            Err(e) => eprintln!("rtbench: could not write {}: {e}", path.display()),
        }
        (&PER_LAYER, outcome.layers.clone())
    } else {
        (&END_TO_END, outcome.end_to_end().to_vec())
    };
    for ((name, unit), value) in names.iter().zip(&values) {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(outcome.checks.failed == 0));
    line.insert(
        "attempted".into(),
        serde_json::json!(outcome.checks.checked),
    );
    line.insert("failed".into(), serde_json::json!(outcome.checks.failed));
    line.insert("metrics".into(), metrics_json(names, &values));
    println!(
        "{}",
        serde_json::to_string(&Value::Object(line)).expect("metrics serialize")
    );
}

/// Traces go next to the benchmark's executable, inside the build
/// directory.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    dir.join("traces")
        .join(format!("{workload}-seed{seed}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "stress-dag",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("stress-dag", 7, 10.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "sweep-blast", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sweep-blast", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "sweep-blast", "--seed"]).is_err());
    }

    /// The metric lists the binary prints are the ones `BENCHMARK.json`
    /// declares, in the same order and units.
    #[test]
    fn metric_lists_match_the_manifest() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest: Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            match &manifest[key] {
                Value::Array(items) => items
                    .iter()
                    .map(|m| match (&m["name"], &m["unit"]) {
                        (Value::String(n), Value::String(u)) => (n.clone(), u.clone()),
                        other => panic!("bad metric entry {other:?}"),
                    })
                    .collect(),
                other => panic!("{key} is not a list: {other:?}"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = match &manifest["workloads"] {
            Value::Array(items) => items
                .iter()
                .map(|w| match &w["name"] {
                    Value::String(n) => n.clone(),
                    other => panic!("bad workload {other:?}"),
                })
                .collect(),
            other => panic!("workloads is not a list: {other:?}"),
        };
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn reads_the_revision_from_a_ref_or_packed_refs() {
        let dir = std::env::temp_dir().join(format!("rtbench-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_rev(&dir).as_deref(), Some("abc123"));
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_rev(&dir).as_deref(), Some("def456"));
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_rev(&dir).as_deref(), Some("0123abcd"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(git_rev(&dir), None);
    }

    #[test]
    fn end_to_end_reports_one_minus_wrong_share() {
        let timed: Timed<(), ()> = Timed {
            state: (),
            setup_s: 0.5,
            untraced: vec![1.0, 1.2],
            traced: vec![1.32],
            outputs: vec![(false, ()), (true, ()), (false, ())],
        };
        let mut checks = Checks::default();
        for ok in [true, true, true, false] {
            checks.record(true, ok);
        }
        let mut o = Outcome::new(&timed, checks);
        o.throughput = 10.0;
        let e2e = o.end_to_end();
        assert_eq!(e2e[0], 0.5);
        assert_eq!(e2e[1], 10.0);
        assert_eq!(e2e[6], 0.75);
        assert_eq!(o.passes, 3);
        let overhead = o.layers[PER_LAYER.len() - 1];
        assert!((overhead - 0.2).abs() < 1e-12, "{overhead}");
    }
}
