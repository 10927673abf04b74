//! Run manifests: a structured, machine-readable record of every
//! experiment run.
//!
//! Each experiment binary can serialize a [`RunManifest`] — what was
//! run (experiment name, argv, git revision), with which configuration,
//! and what came out (per-cell results, solver telemetry aggregates) —
//! to `BENCH_<name>.json` in the current directory (override with the
//! `BENCH_OUT_DIR` environment variable) when the binary is given
//! `--metrics json`.

use rtsdf::core::comparison::{SweepConfig, SweepResult};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::PathBuf;

/// Parse a `--metrics json` flag out of `args`: whether to write the
/// run manifest.
///
/// Returns `Ok(false)` when the flag is absent, `Err` on a missing
/// value or any value but `json`.
pub fn parse_metrics_flag(args: &[String]) -> Result<bool, String> {
    let Some(pos) = args.iter().position(|a| a == "--metrics") else {
        return Ok(false);
    };
    match args.get(pos + 1).map(String::as_str) {
        Some("json") => Ok(true),
        Some(other) => Err(format!("--metrics expects 'json', got '{other}'")),
        None => Err("--metrics expects a value: json".into()),
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

/// Write the manifest of a sweep-shaped experiment (fig3/fig4): the
/// configuration, per-cell results with solve counts, and the sweep's
/// layer totals (`results.layers`). Returns the path written.
pub fn emit_sweep_metrics(
    name: &str,
    result: &SweepResult,
    config: &SweepConfig,
) -> std::io::Result<PathBuf> {
    emit_sweep_metrics_live(name, result, config, None)
}

/// [`emit_sweep_metrics`] plus an optional live-metrics snapshot: when
/// present, the final registry state is embedded in the manifest's
/// results under the `live_metrics` key, so the scheduler's
/// cells-claimed / steal / busy-fraction counters land next to the
/// per-cell results they describe.
pub fn emit_sweep_metrics_live(
    name: &str,
    result: &SweepResult,
    config: &SweepConfig,
    live: Option<&rtsdf::metrics::MetricsSnapshot>,
) -> std::io::Result<PathBuf> {
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
        assert_eq!(parse_metrics_flag(&args(&["--csv"])), Ok(false));
        assert_eq!(parse_metrics_flag(&args(&["--metrics", "json"])), Ok(true));
        let csv = parse_metrics_flag(&args(&["x", "--metrics", "csv"])).unwrap_err();
        assert!(csv.contains("json"), "{csv}");
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
