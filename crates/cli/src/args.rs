//! Argument parsing (hand-rolled: the surface is small and a parser
//! dependency would dwarf it).

use std::fmt;

/// Top-level usage text.
pub const USAGE: &str = "\
rtsdf-cli — real-time irregular SIMD pipeline scheduling

USAGE:
  rtsdf-cli example-pipeline
  rtsdf-cli optimize  --pipeline FILE --tau0 T --deadline D
                      [--b B1,B2,...] [--strategy enforced|monolithic|flexible|all] [--json]
  rtsdf-cli simulate  (--pipeline FILE | --workload NAME) --tau0 T --deadline D
                      [--b B1,B2,...] [--items N] [--seeds K] [--json]
                      [--metrics json]
  rtsdf-cli sweep     (--pipeline FILE | --workload NAME)
                      [--grid RxC] [--csv] [--metrics json]
                      [--live] [--live-interval MS] [--metrics-listen ADDR]
  rtsdf-cli calibrate --pipeline FILE --points T1:D1,T2:D2,...
                      [--seeds K] [--items N]
  rtsdf-cli gantt     --pipeline FILE --tau0 T --deadline D
                      [--b B1,B2,...] [--window CYCLES] [--width COLS]
  rtsdf-cli trace     --pipeline FILE --tau0 T --deadline D
                      [--b B1,B2,...] [--items N] [--seed S]
                      [--strategy enforced|monolithic] [--format chrome|json]
                      [--alpha A] [--out FILE]
  rtsdf-cli stress    (--pipeline FILE | --workload NAME) --tau0 T --deadline D
                      [--b B1,B2,...] [--items N] [--seeds K]
                      [--intensities I1,I2,...] [--target F] [--json]
                      [--metrics json]
                      [--live] [--live-interval MS] [--metrics-listen ADDR]
  rtsdf-cli execute   (--pipeline FILE | --workload NAME) --tau0 T --deadline D
                      [--b B1,B2,...] [--items N] [--seed S] [--duration SECS]
                      [--strategy enforced|monolithic] [--sim-seeds K]
                      [--tolerance F] [--gate] [--json] [--metrics json]

OPTIONS:
  --pipeline FILE   JSON file holding a PipelineSpec (see example-pipeline)
  --workload NAME   built-in synthesized workload instead of a pipeline file;
                    'logalytics' is the log-analytics DAG
                    (parse -> {filter, enrich} -> join -> aggregate);
                    'deepchain:N' is a deterministic N-stage chain (N >= 2)
                    for solver scaling studies
  --tau0 T          inter-arrival time in cycles (floats accepted, e.g. 1e2)
  --deadline D      end-to-end deadline in cycles
  --b LIST          backlog factors, one per stage (default: ceil of each gain)
  --strategy S      which optimizer(s) to run (default: all)
  --items N         stream length per simulation run (default: 10000)
  --seeds K         number of seeds (default: 8)
  --grid RxC        sweep resolution over the paper's (tau0, D) ranges (default: 8x8)
  --points LIST     calibration operating points as tau0:deadline pairs
  --json / --csv    machine-readable output
  --metrics json    also write a BENCH_<cmd>.json run manifest
                    to $BENCH_OUT_DIR or .
  --seed S          RNG seed for a single traced run (default: 0)
  --format FMT      trace output: 'chrome' (Chrome/Perfetto trace-event
                    JSON, the default) or 'json' (metrics + blame report)
  --alpha A         deadline-miss forensics threshold: analyze items with
                    latency > A*deadline (default: 1.0)
  --out FILE        trace output path (default: trace.json)
  --intensities L   perturbation intensities to sweep (default: 0,0.5,1)
  --target F        miss-free-fraction target for the robustness margin
                    (default: 0.95)
  --duration SECS   target wall duration of a real 'execute' run (default: 1.0)
  --sim-seeds K     simulator seeds averaged in the sim-vs-real comparison
                    (default: 4)
  --tolerance F     relative-error tolerance of the sim-vs-real agreement
                    check (default: 0.10)
  --gate            exit nonzero if the run violates item conservation or
                    any agreement check fails
  --live            render an in-place progress line (cells/runs done, ETA,
                    items/s, shed and miss counters) on stderr
  --live-interval MS  progress-line refresh interval in milliseconds
                    (default: 500; implies --live)
  --metrics-listen ADDR  serve Prometheus text at GET /metrics on ADDR
                    (e.g. 127.0.0.1:9184; port 0 picks a free port)
";

/// Built-in synthesized workloads selectable with `--workload`.
/// `deepchain:N` is additionally accepted with any stage count `N ≥ 2`
/// (see [`workload_is_known`]).
pub const WORKLOADS: &[&str] = &["logalytics", "deepchain:N"];

/// Parse the stage count out of a `deepchain:N` workload name.
///
/// Strict: the suffix must be plain ASCII digits. `usize::from_str`
/// alone would also accept a leading `+` (`deepchain:+8`), and sloppy
/// spellings like `deepchain: 8` must fail here rather than resolve to
/// a workload, so reject anything that is not `[0-9]+` before parsing.
/// The count must be at least 2 (a chain needs two stages).
pub fn parse_deepchain_stages(name: &str) -> Option<usize> {
    let suffix = name.strip_prefix("deepchain:")?;
    if suffix.is_empty() || !suffix.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    suffix.parse::<usize>().ok().filter(|&n| n >= 2)
}

/// Whether `name` selects a built-in workload: an exact entry of
/// [`WORKLOADS`], or the parameterized `deepchain:N` form with a stage
/// count of at least 2.
pub fn workload_is_known(name: &str) -> bool {
    if name != "deepchain:N" && WORKLOADS.contains(&name) {
        return true;
    }
    parse_deepchain_stages(name).is_some()
}

/// Live-telemetry options shared by `sweep` and `stress`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveOpts {
    /// Render an in-place progress line on stderr.
    pub live: bool,
    /// Refresh interval of the progress line, in milliseconds.
    pub interval_ms: u64,
    /// Serve Prometheus text at `GET /metrics` on this address.
    pub metrics_listen: Option<String>,
}

impl LiveOpts {
    /// Everything off (the default).
    pub fn off() -> Self {
        LiveOpts {
            live: false,
            interval_ms: 500,
            metrics_listen: None,
        }
    }

    /// True when any live machinery (progress line or `/metrics`
    /// server) is requested, i.e. a registry must be created.
    pub fn enabled(&self) -> bool {
        self.live || self.metrics_listen.is_some()
    }
}

/// Which strategies an `optimize` run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Enforced waits only.
    Enforced,
    /// Monolithic batching only.
    Monolithic,
    /// Flexible-shares extension only.
    Flexible,
    /// Everything.
    All,
}

/// Output format of the `trace` subcommand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Chrome trace-event JSON, loadable in Perfetto / `chrome://tracing`.
    Chrome,
    /// Structured metrics + blame report JSON.
    Json,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print the BLAST example pipeline JSON.
    ExamplePipeline,
    /// Optimize schedules at one operating point.
    Optimize {
        /// Pipeline JSON path.
        pipeline: String,
        /// Inter-arrival time.
        tau0: f64,
        /// Deadline.
        deadline: f64,
        /// Backlog factors (`None` = optimistic default).
        b: Option<Vec<f64>>,
        /// Strategies to run.
        strategy: Strategy,
        /// Emit JSON.
        json: bool,
    },
    /// Optimize then simulate across seeds.
    Simulate {
        /// Pipeline JSON path (chain mode; absent when a workload is
        /// selected).
        pipeline: Option<String>,
        /// Built-in synthesized workload name (DAG mode).
        workload: Option<String>,
        /// Inter-arrival time.
        tau0: f64,
        /// Deadline.
        deadline: f64,
        /// Backlog factors.
        b: Option<Vec<f64>>,
        /// Items per run.
        items: usize,
        /// Seeds.
        seeds: u64,
        /// Emit JSON.
        json: bool,
        /// Also write a `BENCH_<cmd>.json` run manifest.
        metrics: bool,
    },
    /// Fig-3/4 style grid sweep.
    Sweep {
        /// Pipeline JSON path (chain mode; absent when a workload is
        /// selected).
        pipeline: Option<String>,
        /// Built-in synthesized workload name (DAG mode).
        workload: Option<String>,
        /// Grid shape (τ0 points, D points).
        grid: (usize, usize),
        /// Emit CSV.
        csv: bool,
        /// Also write a `BENCH_<cmd>.json` run manifest.
        metrics: bool,
        /// Live progress / `/metrics` serving.
        live: LiveOpts,
    },
    /// ASCII firing timeline.
    Gantt {
        /// Pipeline JSON path.
        pipeline: String,
        /// Inter-arrival time.
        tau0: f64,
        /// Deadline.
        deadline: f64,
        /// Backlog factors.
        b: Option<Vec<f64>>,
        /// Cycles of execution to draw.
        window: f64,
        /// Output width in columns.
        width: usize,
    },
    /// Single traced run: causal span trace + deadline-miss forensics.
    Trace {
        /// Pipeline JSON path.
        pipeline: String,
        /// Inter-arrival time.
        tau0: f64,
        /// Deadline.
        deadline: f64,
        /// Backlog factors.
        b: Option<Vec<f64>>,
        /// Items in the traced run.
        items: usize,
        /// RNG seed.
        seed: u64,
        /// Which strategy to trace (enforced or monolithic only).
        strategy: Strategy,
        /// Output format.
        format: TraceFormat,
        /// Forensics threshold multiplier on the deadline.
        alpha: f64,
        /// Output path.
        out: String,
    },
    /// Robustness sweep under fault injection.
    Stress {
        /// Pipeline JSON path (chain mode; absent when a workload is
        /// selected).
        pipeline: Option<String>,
        /// Built-in synthesized workload name (DAG mode).
        workload: Option<String>,
        /// Inter-arrival time.
        tau0: f64,
        /// Deadline.
        deadline: f64,
        /// Backlog factors.
        b: Option<Vec<f64>>,
        /// Items per run.
        items: usize,
        /// Seeds per sweep cell.
        seeds: u64,
        /// Perturbation intensities to sweep.
        intensities: Vec<f64>,
        /// Miss-free-fraction target for the robustness margin.
        target: f64,
        /// Emit JSON.
        json: bool,
        /// Also write a `BENCH_<cmd>.json` run manifest.
        metrics: bool,
        /// Live progress / `/metrics` serving.
        live: LiveOpts,
    },
    /// Real threaded execution, cross-validated against the simulator.
    Execute {
        /// Pipeline JSON path (chain mode; absent when a workload is
        /// selected).
        pipeline: Option<String>,
        /// Built-in synthesized workload name (DAG mode).
        workload: Option<String>,
        /// Inter-arrival time.
        tau0: f64,
        /// Deadline.
        deadline: f64,
        /// Backlog factors.
        b: Option<Vec<f64>>,
        /// Stream inputs in the real run.
        items: usize,
        /// RNG seed of the real run.
        seed: u64,
        /// Target wall duration of the run, seconds.
        duration: f64,
        /// Which strategy to execute (enforced or monolithic only).
        strategy: Strategy,
        /// Simulator seeds averaged for the comparison.
        sim_seeds: u64,
        /// Agreement tolerance (relative error).
        tolerance: f64,
        /// Exit nonzero on conservation/agreement failure.
        gate: bool,
        /// Emit JSON.
        json: bool,
        /// Also write a `BENCH_<cmd>.json` run manifest.
        metrics: bool,
    },
    /// §6.2 calibration.
    Calibrate {
        /// Pipeline JSON path.
        pipeline: String,
        /// Operating points.
        points: Vec<(f64, f64)>,
        /// Seeds per point.
        seeds: u64,
        /// Items per run.
        items: usize,
    },
}

/// Parse failure with a human-oriented message.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// A tiny `--flag value` scanner over the argument list.
struct Scanner<'a> {
    args: &'a [String],
}

impl<'a> Scanner<'a> {
    fn value_of(&self, flag: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(|s| s.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    fn require(&self, flag: &str) -> Result<&'a str, ParseError> {
        self.value_of(flag)
            .ok_or_else(|| ParseError(format!("missing required option {flag} VALUE")))
    }

    fn parse_f64(&self, flag: &str) -> Result<f64, ParseError> {
        let raw = self.require(flag)?;
        raw.parse::<f64>()
            .map_err(|_| ParseError(format!("{flag}: '{raw}' is not a number")))
    }

    fn parse_metrics(&self) -> Result<bool, ParseError> {
        bench::parse_metrics_flag(self.args).map_err(ParseError)
    }

    fn parse_live(&self) -> Result<LiveOpts, ParseError> {
        let interval_ms = match self.value_of("--live-interval") {
            None => 500,
            Some(raw) => {
                let ms = parse_usize("--live-interval", raw)? as u64;
                if ms == 0 {
                    return err("--live-interval: must be at least 1 ms");
                }
                ms
            }
        };
        Ok(LiveOpts {
            // An explicit interval implies the progress line.
            live: self.has("--live") || self.value_of("--live-interval").is_some(),
            interval_ms,
            metrics_listen: self.value_of("--metrics-listen").map(str::to_string),
        })
    }

    /// Resolve the mutually exclusive `--pipeline FILE` / `--workload
    /// NAME` pair: exactly one must be present, and a workload name must
    /// be a known built-in.
    fn parse_source(&self) -> Result<(Option<String>, Option<String>), ParseError> {
        let workload = self.value_of("--workload").map(str::to_string);
        if let Some(name) = &workload {
            if !workload_is_known(name) {
                // A bad deepchain suffix gets a targeted message; plain
                // unknown names get the available list.
                if let Some(suffix) = name.strip_prefix("deepchain:") {
                    return err(format!(
                        "--workload: deepchain stage count must be a plain \
                         unsigned integer >= 2, got '{suffix}'"
                    ));
                }
                return err(format!(
                    "--workload: unknown workload '{name}' (available: {})",
                    WORKLOADS.join(", ")
                ));
            }
            if self.has("--pipeline") {
                return err("--pipeline and --workload are mutually exclusive");
            }
            return Ok((None, workload));
        }
        Ok((Some(self.require("--pipeline")?.to_string()), None))
    }

    fn parse_usize_or(&self, flag: &str, default: usize) -> Result<usize, ParseError> {
        match self.value_of(flag) {
            None => Ok(default),
            Some(raw) => parse_usize(flag, raw),
        }
    }

    /// Reject unknown options and a value option immediately followed by
    /// another option instead of its value. Tokens not starting with
    /// `--` (including negative numbers like `-3`) remain valid values.
    fn check_flags(&self, value_flags: &[&str], bool_flags: &[&str]) -> Result<(), ParseError> {
        let mut i = 0;
        while i < self.args.len() {
            let tok = self.args[i].as_str();
            if !tok.starts_with("--") {
                return err(format!("unexpected argument '{tok}'"));
            }
            if value_flags.contains(&tok) {
                match self.args.get(i + 1) {
                    Some(next) if next.starts_with("--") => {
                        return err(format!(
                            "{tok} expects a value, but is followed by option '{next}'"
                        ));
                    }
                    Some(_) => i += 2,
                    None => return err(format!("{tok} expects a value")),
                }
            } else if bool_flags.contains(&tok) {
                i += 1;
            } else {
                return err(format!("unknown option '{tok}'"));
            }
        }
        Ok(())
    }
}

/// Parse a nonnegative integer losslessly. Plain integer spellings go
/// straight through `usize`; float spellings (`2e3`) are accepted only
/// when finite, nonnegative, integral, and at most 2^53 (the largest
/// magnitude at which every `f64` integer is exact) — so `1e30` is an
/// error rather than a silent saturation to `usize::MAX`.
fn parse_usize(flag: &str, raw: &str) -> Result<usize, ParseError> {
    let trimmed = raw.trim();
    if let Ok(v) = trimmed.parse::<usize>() {
        return Ok(v);
    }
    let bad = || ParseError(format!("{flag}: '{raw}' is not a nonnegative integer"));
    let v: f64 = trimmed.parse().map_err(|_| bad())?;
    if !v.is_finite() || v < 0.0 || v.fract() != 0.0 {
        return Err(bad());
    }
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if v > MAX_EXACT {
        return err(format!(
            "{flag}: '{raw}' is too large to represent exactly (max 2^53)"
        ));
    }
    usize::try_from(v as u64).map_err(|_| bad())
}

fn parse_b_list(raw: &str) -> Result<Vec<f64>, ParseError> {
    raw.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<f64>()
                .map_err(|_| ParseError(format!("--b: '{tok}' is not a number")))
        })
        .collect()
}

fn parse_points(raw: &str) -> Result<Vec<(f64, f64)>, ParseError> {
    raw.split(',')
        .map(|pair| {
            let mut it = pair.split(':');
            let t = it.next().unwrap_or("");
            let d = it.next().unwrap_or("");
            if it.next().is_some() {
                return err(format!("--points: '{pair}' has too many ':'"));
            }
            let t: f64 = t
                .trim()
                .parse()
                .map_err(|_| ParseError(format!("--points: bad tau0 in '{pair}'")))?;
            let d: f64 = d
                .trim()
                .parse()
                .map_err(|_| ParseError(format!("--points: bad deadline in '{pair}'")))?;
            Ok((t, d))
        })
        .collect()
}

fn parse_intensities(raw: &str) -> Result<Vec<f64>, ParseError> {
    let levels: Vec<f64> = raw
        .split(',')
        .map(|tok| {
            tok.trim()
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| {
                    ParseError(format!(
                        "--intensities: '{tok}' is not a nonnegative number"
                    ))
                })
        })
        .collect::<Result<_, _>>()?;
    if levels.is_empty() {
        return err("--intensities: need at least one level");
    }
    Ok(levels)
}

fn parse_grid(raw: &str) -> Result<(usize, usize), ParseError> {
    let mut it = raw.split('x');
    let r = it.next().unwrap_or("");
    let c = it.next().unwrap_or("");
    if it.next().is_some() {
        return err(format!("--grid: '{raw}' should look like 8x8"));
    }
    let r: usize = r
        .parse()
        .map_err(|_| ParseError(format!("--grid: bad row count in '{raw}'")))?;
    let c: usize = c
        .parse()
        .map_err(|_| ParseError(format!("--grid: bad column count in '{raw}'")))?;
    if r < 2 || c < 2 {
        return err("--grid: both dimensions must be at least 2");
    }
    Ok((r, c))
}

/// Parse `argv` (program name already stripped).
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let Some(sub) = argv.first() else {
        return err("no subcommand given");
    };
    let scan = Scanner { args: &argv[1..] };
    match sub.as_str() {
        "example-pipeline" => {
            scan.check_flags(&[], &[])?;
            Ok(Command::ExamplePipeline)
        }
        "optimize" => {
            scan.check_flags(
                &["--pipeline", "--tau0", "--deadline", "--b", "--strategy"],
                &["--json"],
            )?;
            Ok(Command::Optimize {
                pipeline: scan.require("--pipeline")?.to_string(),
                tau0: scan.parse_f64("--tau0")?,
                deadline: scan.parse_f64("--deadline")?,
                b: scan.value_of("--b").map(parse_b_list).transpose()?,
                strategy: match scan.value_of("--strategy") {
                    None | Some("all") => Strategy::All,
                    Some("enforced") => Strategy::Enforced,
                    Some("monolithic") => Strategy::Monolithic,
                    Some("flexible") => Strategy::Flexible,
                    Some(other) => return err(format!("--strategy: unknown strategy '{other}'")),
                },
                json: scan.has("--json"),
            })
        }
        "simulate" => {
            scan.check_flags(
                &[
                    "--pipeline",
                    "--workload",
                    "--tau0",
                    "--deadline",
                    "--b",
                    "--items",
                    "--seeds",
                    "--metrics",
                ],
                &["--json"],
            )?;
            let (pipeline, workload) = scan.parse_source()?;
            Ok(Command::Simulate {
                pipeline,
                workload,
                tau0: scan.parse_f64("--tau0")?,
                deadline: scan.parse_f64("--deadline")?,
                b: scan.value_of("--b").map(parse_b_list).transpose()?,
                items: scan.parse_usize_or("--items", 10_000)?,
                seeds: scan.parse_usize_or("--seeds", 8)? as u64,
                json: scan.has("--json"),
                metrics: scan.parse_metrics()?,
            })
        }
        "sweep" => {
            scan.check_flags(
                &[
                    "--pipeline",
                    "--workload",
                    "--grid",
                    "--metrics",
                    "--live-interval",
                    "--metrics-listen",
                ],
                &["--csv", "--live"],
            )?;
            let (pipeline, workload) = scan.parse_source()?;
            Ok(Command::Sweep {
                pipeline,
                workload,
                grid: match scan.value_of("--grid") {
                    None => (8, 8),
                    Some(raw) => parse_grid(raw)?,
                },
                csv: scan.has("--csv"),
                metrics: scan.parse_metrics()?,
                live: scan.parse_live()?,
            })
        }
        "gantt" => {
            scan.check_flags(
                &[
                    "--pipeline",
                    "--tau0",
                    "--deadline",
                    "--b",
                    "--window",
                    "--width",
                ],
                &[],
            )?;
            Ok(Command::Gantt {
                pipeline: scan.require("--pipeline")?.to_string(),
                tau0: scan.parse_f64("--tau0")?,
                deadline: scan.parse_f64("--deadline")?,
                b: scan.value_of("--b").map(parse_b_list).transpose()?,
                window: match scan.value_of("--window") {
                    None => 20_000.0,
                    Some(raw) => raw
                        .parse::<f64>()
                        .ok()
                        .filter(|v| *v > 0.0)
                        .ok_or_else(|| {
                            ParseError(format!("--window: '{raw}' is not a positive number"))
                        })?,
                },
                width: scan.parse_usize_or("--width", 100)?,
            })
        }
        "trace" => {
            scan.check_flags(
                &[
                    "--pipeline",
                    "--tau0",
                    "--deadline",
                    "--b",
                    "--items",
                    "--seed",
                    "--strategy",
                    "--format",
                    "--alpha",
                    "--out",
                ],
                &[],
            )?;
            Ok(Command::Trace {
                pipeline: scan.require("--pipeline")?.to_string(),
                tau0: scan.parse_f64("--tau0")?,
                deadline: scan.parse_f64("--deadline")?,
                b: scan.value_of("--b").map(parse_b_list).transpose()?,
                items: scan.parse_usize_or("--items", 10_000)?,
                seed: scan.parse_usize_or("--seed", 0)? as u64,
                strategy: match scan.value_of("--strategy") {
                    None | Some("enforced") => Strategy::Enforced,
                    Some("monolithic") => Strategy::Monolithic,
                    Some(other) => {
                        return err(format!(
                            "--strategy: trace supports 'enforced' or 'monolithic', got '{other}'"
                        ))
                    }
                },
                format: match scan.value_of("--format") {
                    None | Some("chrome") => TraceFormat::Chrome,
                    Some("json") => TraceFormat::Json,
                    Some(other) => {
                        return err(format!(
                            "--format: expected 'chrome' or 'json', got '{other}'"
                        ))
                    }
                },
                alpha: match scan.value_of("--alpha") {
                    None => 1.0,
                    Some(raw) => raw
                        .parse::<f64>()
                        .ok()
                        .filter(|a| a.is_finite() && *a > 0.0)
                        .ok_or_else(|| {
                            ParseError(format!("--alpha: '{raw}' is not a positive number"))
                        })?,
                },
                out: scan.value_of("--out").unwrap_or("trace.json").to_string(),
            })
        }
        "stress" => {
            scan.check_flags(
                &[
                    "--pipeline",
                    "--workload",
                    "--tau0",
                    "--deadline",
                    "--b",
                    "--items",
                    "--seeds",
                    "--intensities",
                    "--target",
                    "--metrics",
                    "--live-interval",
                    "--metrics-listen",
                ],
                &["--json", "--live"],
            )?;
            let (pipeline, workload) = scan.parse_source()?;
            Ok(Command::Stress {
                pipeline,
                workload,
                tau0: scan.parse_f64("--tau0")?,
                deadline: scan.parse_f64("--deadline")?,
                b: scan.value_of("--b").map(parse_b_list).transpose()?,
                items: scan.parse_usize_or("--items", 2_000)?,
                seeds: scan.parse_usize_or("--seeds", 4)? as u64,
                intensities: match scan.value_of("--intensities") {
                    None => vec![0.0, 0.5, 1.0],
                    Some(raw) => parse_intensities(raw)?,
                },
                target: match scan.value_of("--target") {
                    None => 0.95,
                    Some(raw) => raw
                        .parse::<f64>()
                        .ok()
                        .filter(|t| t.is_finite() && *t > 0.0 && *t <= 1.0)
                        .ok_or_else(|| ParseError(format!("--target: '{raw}' is not in (0, 1]")))?,
                },
                json: scan.has("--json"),
                metrics: scan.parse_metrics()?,
                live: scan.parse_live()?,
            })
        }
        "execute" => {
            scan.check_flags(
                &[
                    "--pipeline",
                    "--workload",
                    "--tau0",
                    "--deadline",
                    "--b",
                    "--items",
                    "--seed",
                    "--duration",
                    "--strategy",
                    "--sim-seeds",
                    "--tolerance",
                    "--metrics",
                ],
                &["--gate", "--json"],
            )?;
            let (pipeline, workload) = scan.parse_source()?;
            Ok(Command::Execute {
                pipeline,
                workload,
                tau0: scan.parse_f64("--tau0")?,
                deadline: scan.parse_f64("--deadline")?,
                b: scan.value_of("--b").map(parse_b_list).transpose()?,
                items: scan.parse_usize_or("--items", 2_000)?,
                seed: scan.parse_usize_or("--seed", 0)? as u64,
                duration: match scan.value_of("--duration") {
                    None => 1.0,
                    Some(raw) => raw
                        .parse::<f64>()
                        .ok()
                        .filter(|d| d.is_finite() && *d > 0.0)
                        .ok_or_else(|| {
                            ParseError(format!("--duration: '{raw}' is not a positive number"))
                        })?,
                },
                strategy: match scan.value_of("--strategy") {
                    None | Some("enforced") => Strategy::Enforced,
                    Some("monolithic") => Strategy::Monolithic,
                    Some(other) => {
                        return err(format!(
                            "--strategy: execute supports 'enforced' or 'monolithic', got '{other}'"
                        ))
                    }
                },
                sim_seeds: match scan.parse_usize_or("--sim-seeds", 4)? {
                    0 => return err("--sim-seeds: need at least one simulator seed"),
                    k => k as u64,
                },
                tolerance: match scan.value_of("--tolerance") {
                    None => 0.10,
                    Some(raw) => raw
                        .parse::<f64>()
                        .ok()
                        .filter(|t| t.is_finite() && *t > 0.0)
                        .ok_or_else(|| {
                            ParseError(format!("--tolerance: '{raw}' is not a positive number"))
                        })?,
                },
                gate: scan.has("--gate"),
                json: scan.has("--json"),
                metrics: scan.parse_metrics()?,
            })
        }
        "calibrate" => {
            scan.check_flags(&["--pipeline", "--points", "--seeds", "--items"], &[])?;
            Ok(Command::Calibrate {
                pipeline: scan.require("--pipeline")?.to_string(),
                points: parse_points(scan.require("--points")?)?,
                seeds: scan.parse_usize_or("--seeds", 8)? as u64,
                items: scan.parse_usize_or("--items", 5_000)?,
            })
        }
        other => err(format!("unknown subcommand '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_example_pipeline() {
        assert_eq!(
            parse(&argv("example-pipeline")).unwrap(),
            Command::ExamplePipeline
        );
    }

    #[test]
    fn parses_optimize_with_defaults() {
        let cmd = parse(&argv("optimize --pipeline p.json --tau0 10 --deadline 1e5")).unwrap();
        match cmd {
            Command::Optimize {
                pipeline,
                tau0,
                deadline,
                b,
                strategy,
                json,
            } => {
                assert_eq!(pipeline, "p.json");
                assert_eq!(tau0, 10.0);
                assert_eq!(deadline, 1e5);
                assert_eq!(b, None);
                assert_eq!(strategy, Strategy::All);
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_optimize_full() {
        let cmd = parse(&argv(
            "optimize --pipeline p.json --tau0 10 --deadline 1e5 --b 1,3,9,6 --strategy enforced --json",
        ))
        .unwrap();
        match cmd {
            Command::Optimize {
                b, strategy, json, ..
            } => {
                assert_eq!(b, Some(vec![1.0, 3.0, 9.0, 6.0]));
                assert_eq!(strategy, Strategy::Enforced);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_missing_required() {
        let e = parse(&argv("optimize --tau0 10 --deadline 1e5")).unwrap_err();
        assert!(e.to_string().contains("--pipeline"));
    }

    #[test]
    fn rejects_bad_numbers() {
        assert!(parse(&argv("optimize --pipeline p --tau0 abc --deadline 1")).is_err());
        assert!(parse(&argv("optimize --pipeline p --tau0 1 --deadline 1 --b 1,x")).is_err());
        assert!(parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1 --items -3"
        ))
        .is_err());
        assert!(parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1 --items 1.5"
        ))
        .is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        // Regression: '--seedz 100' used to be silently ignored, running
        // with the default seed count instead of failing loudly.
        let e = parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1e5 --seedz 100",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("--seedz"), "{e}");
        let e = parse(&argv("optimize --pipeline p --tau0 1 --deadline 1 --jsn")).unwrap_err();
        assert!(e.to_string().contains("--jsn"), "{e}");
        // Stray positional arguments are also rejected.
        assert!(parse(&argv("sweep --pipeline p extra")).is_err());
        assert!(parse(&argv("example-pipeline --json")).is_err());
    }

    #[test]
    fn rejects_flag_as_flag_value() {
        // Regression: '--b --json' used to consume '--json' as the
        // backlog list, producing a confusing number-parse error (or,
        // for string-valued flags, silently wrong behavior).
        let e = parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1e5 --b --json",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("--b"), "{e}");
        assert!(e.to_string().contains("--json"), "{e}");
        let e = parse(&argv("optimize --pipeline --tau0 1 --deadline 1")).unwrap_err();
        assert!(e.to_string().contains("--pipeline"), "{e}");
        // A value flag at the very end is also incomplete.
        assert!(parse(&argv("simulate --pipeline p --tau0 1 --deadline 1 --items")).is_err());
        // Negative numbers are still values, not options: this must keep
        // reaching the number parser (which then rejects -3).
        let e = parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1 --items -3",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("nonnegative integer"), "{e}");
    }

    #[test]
    fn parse_usize_is_lossless() {
        // Regression: '--items 1e30' used to go through `as usize`,
        // saturating to usize::MAX and effectively hanging the run.
        let e = parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1e5 --items 1e30",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("too large"), "{e}");
        assert!(parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1e5 --items 9007199254740993"
        ))
        .is_ok()); // exact via the integer path
                   // Float spellings with exact integer values still work.
        match parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1e5 --items 2e3",
        ))
        .unwrap()
        {
            Command::Simulate { items, .. } => assert_eq!(items, 2_000),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1e5 --items inf"
        ))
        .is_err());
        assert!(parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1e5 --items nan"
        ))
        .is_err());
    }

    #[test]
    fn parses_stress() {
        let cmd = parse(&argv("stress --pipeline p.json --tau0 10 --deadline 1e5")).unwrap();
        match cmd {
            Command::Stress {
                pipeline,
                b,
                items,
                seeds,
                intensities,
                target,
                json,
                metrics,
                ..
            } => {
                assert_eq!(pipeline.as_deref(), Some("p.json"));
                assert_eq!(b, None);
                assert_eq!(items, 2_000);
                assert_eq!(seeds, 4);
                assert_eq!(intensities, vec![0.0, 0.5, 1.0]);
                assert_eq!(target, 0.95);
                assert!(!json);
                assert!(!metrics);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "stress --pipeline p.json --tau0 10 --deadline 1e5 --b 1,3,9,6 \
             --items 500 --seeds 2 --intensities 0,1,2 --target 0.9 --json --metrics json",
        ))
        .unwrap();
        match cmd {
            Command::Stress {
                b,
                intensities,
                target,
                json,
                metrics,
                ..
            } => {
                assert_eq!(b, Some(vec![1.0, 3.0, 9.0, 6.0]));
                assert_eq!(intensities, vec![0.0, 1.0, 2.0]);
                assert_eq!(target, 0.9);
                assert!(json);
                assert!(metrics);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv(
            "stress --pipeline p --tau0 1 --deadline 1 --intensities 0,x"
        ))
        .is_err());
        assert!(parse(&argv(
            "stress --pipeline p --tau0 1 --deadline 1 --target 2"
        ))
        .is_err());
    }

    #[test]
    fn rejects_unknown_strategy_and_subcommand() {
        assert!(parse(&argv(
            "optimize --pipeline p --tau0 1 --deadline 1 --strategy foo"
        ))
        .is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parses_sweep_grid() {
        let cmd = parse(&argv("sweep --pipeline p.json --grid 12x6 --csv")).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                pipeline: Some("p.json".into()),
                workload: None,
                grid: (12, 6),
                csv: true,
                metrics: false,
                live: LiveOpts::off(),
            }
        );
        assert!(parse(&argv("sweep --pipeline p --grid 1x6")).is_err());
        assert!(parse(&argv("sweep --pipeline p --grid 4x4x4")).is_err());
        assert!(parse(&argv("sweep --pipeline p --grid huge")).is_err());
    }

    #[test]
    fn parses_workload_selector() {
        // A workload replaces the pipeline file.
        match parse(&argv(
            "simulate --workload logalytics --tau0 40 --deadline 4e5",
        ))
        .unwrap()
        {
            Command::Simulate {
                pipeline, workload, ..
            } => {
                assert_eq!(pipeline, None);
                assert_eq!(workload.as_deref(), Some("logalytics"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("sweep --workload logalytics")).unwrap() {
            Command::Sweep {
                pipeline, workload, ..
            } => {
                assert_eq!(pipeline, None);
                assert_eq!(workload.as_deref(), Some("logalytics"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv(
            "stress --workload logalytics --tau0 40 --deadline 4e5",
        ))
        .unwrap()
        {
            Command::Stress {
                pipeline, workload, ..
            } => {
                assert_eq!(pipeline, None);
                assert_eq!(workload.as_deref(), Some("logalytics"));
            }
            other => panic!("{other:?}"),
        }
        // Unknown workload names fail loudly.
        let e = parse(&argv("simulate --workload blursed --tau0 1 --deadline 1")).unwrap_err();
        assert!(e.to_string().contains("logalytics"), "{e}");
        // --pipeline and --workload are mutually exclusive.
        let e = parse(&argv(
            "simulate --pipeline p.json --workload logalytics --tau0 1 --deadline 1",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("mutually exclusive"), "{e}");
        // Neither still demands --pipeline.
        let e = parse(&argv("simulate --tau0 1 --deadline 1")).unwrap_err();
        assert!(e.to_string().contains("--pipeline"), "{e}");
        // Subcommands without workload support reject the flag.
        assert!(parse(&argv(
            "optimize --workload logalytics --tau0 1 --deadline 1"
        ))
        .is_err());
        assert!(parse(&argv("trace --workload logalytics --tau0 1 --deadline 1")).is_err());
    }

    #[test]
    fn parses_deepchain_workload_selector() {
        // The parameterized form carries its stage count through.
        match parse(&argv("sweep --workload deepchain:512")).unwrap() {
            Command::Sweep {
                pipeline, workload, ..
            } => {
                assert_eq!(pipeline, None);
                assert_eq!(workload.as_deref(), Some("deepchain:512"));
            }
            other => panic!("{other:?}"),
        }
        assert!(workload_is_known("deepchain:2"));
        assert!(workload_is_known("deepchain:1000"));
        // The placeholder itself, degenerate sizes, and junk are
        // rejected at parse time.
        for bad in ["deepchain:N", "deepchain:1", "deepchain:", "deepchain:x"] {
            assert!(!workload_is_known(bad), "{bad}");
            assert!(parse(&argv(&format!("sweep --workload {bad}"))).is_err());
        }
    }

    /// Table-driven rejection of sloppy `deepchain:` spellings that
    /// `usize::from_str`'s leniency used to let through (leading `+`)
    /// or that should get a targeted message (whitespace, sign, hex).
    #[test]
    fn rejects_sloppy_deepchain_spellings_with_targeted_errors() {
        let cases: &[(&str, &str)] = &[
            ("deepchain:+8", "deepchain stage count"),
            ("deepchain: 8", "deepchain stage count"),
            ("deepchain:8 ", "deepchain stage count"),
            ("deepchain:-8", "deepchain stage count"),
            ("deepchain:0x8", "deepchain stage count"),
            ("deepchain:8_0", "deepchain stage count"),
            ("deepchain:０８", "deepchain stage count"), // full-width digits
            ("deepchain:1", "deepchain stage count"),
            ("deepchain:", "deepchain stage count"),
            ("logalytic", "unknown workload"),
        ];
        for &(name, needle) in cases {
            assert_eq!(parse_deepchain_stages(name), None, "{name}");
            assert!(!workload_is_known(name), "{name}");
            // Single argv token (argv() would split on the space).
            let args: Vec<String> = ["sweep", "--workload", name]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let msg = parse(&args).unwrap_err().0;
            assert!(msg.contains(needle), "{name}: '{msg}'");
        }
        // Well-formed spellings still resolve.
        assert_eq!(parse_deepchain_stages("deepchain:2"), Some(2));
        assert_eq!(parse_deepchain_stages("deepchain:512"), Some(512));
    }

    #[test]
    fn parses_live_options() {
        // Defaults: everything off.
        match parse(&argv("sweep --pipeline p.json")).unwrap() {
            Command::Sweep { live, .. } => {
                assert_eq!(live, LiveOpts::off());
                assert!(!live.enabled());
            }
            other => panic!("{other:?}"),
        }
        // --live alone.
        match parse(&argv("sweep --pipeline p.json --live")).unwrap() {
            Command::Sweep { live, .. } => {
                assert!(live.live && live.enabled());
                assert_eq!(live.interval_ms, 500);
                assert_eq!(live.metrics_listen, None);
            }
            other => panic!("{other:?}"),
        }
        // An explicit interval implies --live.
        match parse(&argv(
            "stress --pipeline p --tau0 1 --deadline 1e5 --live-interval 100",
        ))
        .unwrap()
        {
            Command::Stress { live, .. } => {
                assert!(live.live);
                assert_eq!(live.interval_ms, 100);
            }
            other => panic!("{other:?}"),
        }
        // --metrics-listen enables the registry without the progress line.
        match parse(&argv(
            "sweep --pipeline p.json --metrics-listen 127.0.0.1:0",
        ))
        .unwrap()
        {
            Command::Sweep { live, .. } => {
                assert!(!live.live && live.enabled());
                assert_eq!(live.metrics_listen.as_deref(), Some("127.0.0.1:0"));
            }
            other => panic!("{other:?}"),
        }
        // Bad intervals are rejected: interval 0 would busy-spin the
        // progress renderer, so it gets the typed validation error —
        // also when combined with an explicit --live, and in float
        // spelling (rejected as a non-integer).
        for bad in [
            "sweep --pipeline p --live-interval 0",
            "sweep --pipeline p --live --live-interval 0",
            "sweep --pipeline p --live --live-interval 0.0",
            "sweep --pipeline p --live-interval x",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
        let msg = parse(&argv("sweep --pipeline p --live --live-interval 0"))
            .unwrap_err()
            .0;
        assert!(msg.contains("--live-interval"), "{msg}");
        // Other subcommands do not accept live flags.
        assert!(parse(&argv("simulate --pipeline p --tau0 1 --deadline 1 --live")).is_err());
    }

    #[test]
    fn parses_metrics_flag() {
        let cmd = parse(&argv("sweep --pipeline p.json --metrics json")).unwrap();
        match cmd {
            Command::Sweep { metrics, .. } => assert!(metrics),
            other => panic!("{other:?}"),
        }
        // JSON is the one manifest format; `csv` is a parse error that
        // names it.
        let msg = parse(&argv(
            "simulate --pipeline p --tau0 1 --deadline 1e5 --metrics csv",
        ))
        .unwrap_err()
        .to_string();
        assert!(msg.contains("json"), "{msg}");
        assert!(parse(&argv("sweep --pipeline p --metrics xml")).is_err());
        assert!(parse(&argv("sweep --pipeline p --metrics")).is_err());
    }

    #[test]
    fn parses_gantt() {
        let cmd = parse(&argv(
            "gantt --pipeline p.json --tau0 10 --deadline 1e5 --window 5000 --width 80",
        ))
        .unwrap();
        match cmd {
            Command::Gantt { window, width, .. } => {
                assert_eq!(window, 5000.0);
                assert_eq!(width, 80);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv(
            "gantt --pipeline p --tau0 1 --deadline 1 --window -5"
        ))
        .is_err());
    }

    #[test]
    fn parses_trace_with_defaults() {
        let cmd = parse(&argv("trace --pipeline p.json --tau0 10 --deadline 1e5")).unwrap();
        match cmd {
            Command::Trace {
                items,
                seed,
                strategy,
                format,
                alpha,
                out,
                ..
            } => {
                assert_eq!(items, 10_000);
                assert_eq!(seed, 0);
                assert_eq!(strategy, Strategy::Enforced);
                assert_eq!(format, TraceFormat::Chrome);
                assert_eq!(alpha, 1.0);
                assert_eq!(out, "trace.json");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_trace_full() {
        let cmd = parse(&argv(
            "trace --pipeline p.json --tau0 10 --deadline 1e5 --items 500 --seed 7 \
             --strategy monolithic --format json --alpha 0.8 --out t.json",
        ))
        .unwrap();
        match cmd {
            Command::Trace {
                items,
                seed,
                strategy,
                format,
                alpha,
                out,
                ..
            } => {
                assert_eq!(items, 500);
                assert_eq!(seed, 7);
                assert_eq!(strategy, Strategy::Monolithic);
                assert_eq!(format, TraceFormat::Json);
                assert_eq!(alpha, 0.8);
                assert_eq!(out, "t.json");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_trace_options() {
        assert!(parse(&argv(
            "trace --pipeline p --tau0 1 --deadline 1 --format xml"
        ))
        .is_err());
        assert!(parse(&argv(
            "trace --pipeline p --tau0 1 --deadline 1 --strategy flexible"
        ))
        .is_err());
        assert!(parse(&argv("trace --pipeline p --tau0 1 --deadline 1 --alpha -2")).is_err());
    }

    #[test]
    fn parses_execute() {
        // Defaults.
        match parse(&argv(
            "execute --workload logalytics --tau0 40 --deadline 4e5",
        ))
        .unwrap()
        {
            Command::Execute {
                pipeline,
                workload,
                items,
                seed,
                duration,
                strategy,
                sim_seeds,
                tolerance,
                gate,
                json,
                metrics,
                ..
            } => {
                assert_eq!(pipeline, None);
                assert_eq!(workload.as_deref(), Some("logalytics"));
                assert_eq!(items, 2_000);
                assert_eq!(seed, 0);
                assert_eq!(duration, 1.0);
                assert_eq!(strategy, Strategy::Enforced);
                assert_eq!(sim_seeds, 4);
                assert_eq!(tolerance, 0.10);
                assert!(!gate && !json);
                assert!(!metrics);
            }
            other => panic!("{other:?}"),
        }
        // Full spelling.
        match parse(&argv(
            "execute --pipeline p.json --tau0 20 --deadline 2e5 --b 1,3,9,6 \
             --items 500 --seed 7 --duration 0.5 --strategy monolithic \
             --sim-seeds 8 --tolerance 0.2 --gate --json --metrics json",
        ))
        .unwrap()
        {
            Command::Execute {
                b,
                duration,
                strategy,
                sim_seeds,
                tolerance,
                gate,
                json,
                metrics,
                ..
            } => {
                assert_eq!(b, Some(vec![1.0, 3.0, 9.0, 6.0]));
                assert_eq!(duration, 0.5);
                assert_eq!(strategy, Strategy::Monolithic);
                assert_eq!(sim_seeds, 8);
                assert_eq!(tolerance, 0.2);
                assert!(gate && json);
                assert!(metrics);
            }
            other => panic!("{other:?}"),
        }
        // Bad spellings fail loudly.
        for bad in [
            "execute --pipeline p --tau0 1 --deadline 1 --duration 0",
            "execute --pipeline p --tau0 1 --deadline 1 --duration -1",
            "execute --pipeline p --tau0 1 --deadline 1 --strategy flexible",
            "execute --pipeline p --tau0 1 --deadline 1 --sim-seeds 0",
            "execute --pipeline p --tau0 1 --deadline 1 --tolerance nope",
            "execute --pipeline p --tau0 1 --deadline 1 --live",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_calibrate_points() {
        let cmd = parse(&argv(
            "calibrate --pipeline p.json --points 10:1e5,30:1.5e5",
        ))
        .unwrap();
        match cmd {
            Command::Calibrate {
                points,
                seeds,
                items,
                ..
            } => {
                assert_eq!(points, vec![(10.0, 1e5), (30.0, 1.5e5)]);
                assert_eq!(seeds, 8);
                assert_eq!(items, 5_000);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("calibrate --pipeline p --points 10")).is_err());
        assert!(parse(&argv("calibrate --pipeline p --points 10:2:3")).is_err());
    }
}
