//! Run manifests: a structured, machine-readable record of every
//! experiment run.
//!
//! Each experiment binary can serialize a [`RunManifest`] — what was
//! run (experiment name, argv, git revision), with which configuration,
//! and what came out (per-cell results, solver telemetry aggregates) —
//! to `BENCH_<name>.json` in the current directory (override with the
//! `BENCH_OUT_DIR` environment variable). The `--metrics json|csv`
//! flag on the binaries selects the format; `csv` writes a flat
//! `BENCH_<name>.csv` instead, with one row per cell.

use rtsdf::core::comparison::{SweepConfig, SweepResult};
use rtsdf::core::CellTelemetry;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::PathBuf;

/// Machine-readable metrics format selected by `--metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Full manifest to `BENCH_<name>.json`.
    Json,
    /// Flat per-cell rows to `BENCH_<name>.csv`.
    Csv,
}

/// Parse a `--metrics json|csv` flag out of `args`.
///
/// Returns `Ok(None)` when the flag is absent, `Err` on a missing or
/// unknown value.
pub fn parse_metrics_flag(args: &[String]) -> Result<Option<MetricsFormat>, String> {
    let Some(pos) = args.iter().position(|a| a == "--metrics") else {
        return Ok(None);
    };
    match args.get(pos + 1).map(String::as_str) {
        Some("json") => Ok(Some(MetricsFormat::Json)),
        Some("csv") => Ok(Some(MetricsFormat::Csv)),
        Some(other) => Err(format!("--metrics expects 'json' or 'csv', got '{other}'")),
        None => Err("--metrics expects a value: json or csv".into()),
    }
}

/// Everything needed to reproduce and interpret one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunManifest {
    /// Experiment name (`fig3`, `fig4`, `calibrate`, `table1`, ...).
    pub experiment: String,
    /// Argument vector the binary was invoked with.
    pub argv: Vec<String>,
    /// `git rev-parse HEAD` of the working tree, if available.
    pub git_rev: Option<String>,
    /// Experiment-specific configuration blob.
    pub config: Value,
    /// Experiment-specific results blob (per-cell measurements, solver
    /// telemetry aggregates, timings).
    pub results: Value,
}

impl RunManifest {
    /// Manifest for `experiment`, capturing argv and git revision from
    /// the environment.
    pub fn new(experiment: impl Into<String>, config: Value, results: Value) -> Self {
        RunManifest {
            experiment: experiment.into(),
            argv: std::env::args().collect(),
            git_rev: git_rev(),
            config,
            results,
        }
    }

    /// Pretty JSON rendering of the manifest.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    /// Write the manifest to `BENCH_<experiment>.json` in the output
    /// directory (created if missing); returns the path written.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// Write flat per-cell metrics to `BENCH_<name>.csv`; returns the path.
pub fn write_metrics_csv(
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.csv"));
    std::fs::write(&path, crate::render_csv(header, rows))?;
    Ok(path)
}

/// Emit metrics for a sweep-shaped experiment (fig3/fig4): a full run
/// manifest with per-cell solve counts and the sweep's layer totals
/// (`results.layers`) for [`MetricsFormat::Json`], or flat per-cell
/// rows for [`MetricsFormat::Csv`]. Returns the path
/// written.
pub fn emit_sweep_metrics(
    name: &str,
    result: &SweepResult,
    config: &SweepConfig,
    format: MetricsFormat,
) -> std::io::Result<PathBuf> {
    emit_sweep_metrics_live(name, result, config, format, None)
}

/// [`emit_sweep_metrics`] plus an optional live-metrics snapshot: when
/// present (and the format is JSON), the final registry state is
/// embedded in the manifest's results under the `live_metrics` key, so
/// the scheduler's cells-claimed / steal / busy-fraction counters land
/// next to the per-cell results they describe. CSV output ignores the
/// snapshot (its schema is per-cell rows).
pub fn emit_sweep_metrics_live(
    name: &str,
    result: &SweepResult,
    config: &SweepConfig,
    format: MetricsFormat,
    live: Option<&rtsdf::metrics::MetricsSnapshot>,
) -> std::io::Result<PathBuf> {
    match format {
        MetricsFormat::Json => {
            let mut results = serde_json::to_value(result).expect("sweep serializes");
            if let (Some(snap), Value::Object(m)) = (live, &mut results) {
                m.insert(
                    "live_metrics".into(),
                    serde_json::to_value(snap).expect("snapshot serializes"),
                );
            }
            RunManifest::new(
                name,
                serde_json::to_value(config).expect("config serializes"),
                results,
            )
            .write()
        }
        MetricsFormat::Csv => {
            let iters = |t: Option<CellTelemetry>| {
                t.map_or_else(|| "-".into(), |t| t.iterations.to_string())
            };
            let rows: Vec<Vec<String>> = result
                .cells
                .iter()
                .map(|c| {
                    vec![
                        format!("{:.4}", c.tau0),
                        format!("{:.0}", c.deadline),
                        crate::opt_fmt(c.enforced, 6),
                        crate::opt_fmt(c.monolithic, 6),
                        iters(c.enforced_telemetry),
                        iters(c.monolithic_telemetry),
                    ]
                })
                .collect();
            write_metrics_csv(
                name,
                &[
                    "tau0",
                    "deadline",
                    "enforced_af",
                    "monolithic_af",
                    "enf_iters",
                    "mono_iters",
                ],
                &rows,
            )
        }
    }
}

/// Output directory for manifests: `$BENCH_OUT_DIR` or the current
/// directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// Current git revision of the working directory, if a repository and
/// the `git` binary are available.
pub fn git_rev() -> Option<String> {
    git_rev_in(std::path::Path::new("."))
}

/// Git revision of `dir` (`git -C dir rev-parse HEAD`): `None` when
/// `git` is missing, `dir` is not inside a repository, or the output is
/// not a revision. The testable core of [`git_rev`].
pub fn git_rev_in(dir: &std::path::Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!rev.is_empty()).then_some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_metrics_flag_variants() {
        let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_metrics_flag(&args(&["--csv"])), Ok(None));
        assert_eq!(
            parse_metrics_flag(&args(&["--metrics", "json"])),
            Ok(Some(MetricsFormat::Json))
        );
        assert_eq!(
            parse_metrics_flag(&args(&["x", "--metrics", "csv"])),
            Ok(Some(MetricsFormat::Csv))
        );
        assert!(parse_metrics_flag(&args(&["--metrics"])).is_err());
        assert!(parse_metrics_flag(&args(&["--metrics", "xml"])).is_err());
    }

    #[test]
    fn manifest_round_trips() {
        let m = RunManifest {
            experiment: "unit".into(),
            argv: vec!["bench".into()],
            git_rev: None,
            config: serde_json::to_value(&42u64).unwrap(),
            results: serde_json::to_value(&vec![1.0f64, 2.0]).unwrap(),
        };
        let j = m.to_json();
        assert!(j.contains("\"experiment\""));
        let back: RunManifest = serde_json::from_str(&j).unwrap();
        assert_eq!(back.experiment, "unit");
        assert_eq!(back.argv, m.argv);
    }

    #[test]
    fn git_rev_in_repo_is_a_trimmed_hash() {
        // Skip silently when the git binary is absent altogether.
        if std::process::Command::new("git")
            .arg("--version")
            .output()
            .is_err()
        {
            return;
        }
        let rev = git_rev_in(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("manifest dir is inside the workspace repo");
        assert_eq!(rev.len(), 40, "full SHA-1, no trailing newline: {rev:?}");
        assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev:?}");
    }

    #[test]
    fn git_rev_outside_a_repo_is_none() {
        let dir = std::env::temp_dir().join(format!("bench-git-rev-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(git_rev_in(&dir), None);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn out_dir_defaults_to_cwd() {
        // Do not mutate the env (tests run in parallel); just check the
        // default shape.
        if std::env::var_os("BENCH_OUT_DIR").is_none() {
            assert_eq!(out_dir(), PathBuf::from("."));
        }
    }
}
