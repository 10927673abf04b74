//! Manifest-diff regression gating.
//!
//! Compares two [`RunManifest`]s cell-by-cell: the `results` blob of
//! each is flattened to leaf paths (`cells[3].enforced_telemetry.
//! iterations`), matching leaves are classified by their final key
//! segment, and numeric drift past a relative threshold ([`THRESHOLD`],
//! 5%) on a *gated* key counts as a regression. The `bench-diff` binary renders the
//! delta table and exits non-zero so CI can gate on it:
//!
//! - exit 0 — no regressions (improvements and informational drift OK)
//! - exit 1 — at least one gated metric regressed past the threshold
//! - exit 2 — manifests are not comparable (different experiment,
//!   different grid axes, or mismatched structure)
//!
//! Direction rules, by final key segment:
//!
//! | keys                                   | rule                      |
//! |----------------------------------------|---------------------------|
//! | `tau0`, `deadline`, `tau0s`, `deadlines` | identity (must match)   |
//! | `enforced`, `monolithic`               | lower is better (gated)   |
//! | `iterations`, `deadline_misses`, `misses`, `items_dropped` | higher is worse (gated) |
//! | `items_shed`, `resolves`, `total_shed`, `total_misses`, `total_dropped`, `total_resolves` | higher is worse (gated) |
//! | `conservation_violations`, `agreement_failures` | higher is worse (gated) |
//! | `items_per_sec`, `samples_per_sec`, `sweep.paper_64x64.cells_per_sec` | lower is worse (gated at the wider `--throughput-threshold`) |
//! | everything else, `wall_micros` included | informational            |
//!
//! Feasibility flips on gated keys (`null` ↔ number) gate too: losing a
//! feasible cell is a regression, gaining one is an improvement.

use crate::manifest::RunManifest;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// How a leaf path participates in gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Axis/configuration value: any mismatch makes the manifests
    /// incomparable.
    Identity,
    /// Gated metric where an increase is a regression (covers both
    /// "lower is better" objectives and "higher is worse" counters).
    Gated,
    /// Gated throughput metric where a *decrease* is a regression.
    /// Gated at [`DiffConfig::throughput_threshold`] — wider than
    /// [`THRESHOLD`] because rates are machine-load sensitive, but
    /// unlike wall times they gate: losing half the simulator's items/s
    /// is a hot-path regression, not noise.
    Throughput,
    /// Reported but never gated (wall-clock timings among them: they
    /// are machine-dependent).
    Info,
}

/// Classify a flattened leaf path by its final key segment
/// (array indices are stripped: `tau0s[3]` classifies as `tau0s`).
pub fn direction(path: &str) -> Direction {
    let last = path.rsplit('.').next().unwrap_or(path);
    let key = last.split('[').next().unwrap_or(last);
    match key {
        "tau0" | "deadline" | "tau0s" | "deadlines" => Direction::Identity,
        "enforced" | "monolithic" => Direction::Gated,
        "iterations" | "deadline_misses" | "misses" | "items_dropped" => Direction::Gated,
        "items_shed" | "resolves" | "total_shed" | "total_misses" | "total_dropped"
        | "total_resolves" => Direction::Gated,
        // Sim-vs-real cross-validation (BENCH_exec.json): any item-loss
        // or agreement failure in the threaded executor is a regression.
        "conservation_violations" | "agreement_failures" => Direction::Gated,
        // Hot-path throughput rates: lower is a regression. The
        // parallel sweeps' `cells_per_sec` stays informational (it
        // depends on machine core count, not on the code's hot paths);
        // the one-worker paper-grid sweep's does not, so it gates.
        "items_per_sec" | "samples_per_sec" => Direction::Throughput,
        "cells_per_sec" if path == "sweep.paper_64x64.cells_per_sec" => Direction::Throughput,
        _ => Direction::Info,
    }
}

/// A leaf value from a flattened `results` blob.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// JSON `null` (e.g. an infeasible cell).
    Null,
    /// Any JSON number, widened to `f64`.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string (e.g. `method`).
    Text(String),
}

impl Leaf {
    fn render(&self) -> String {
        match self {
            Leaf::Null => "null".into(),
            Leaf::Num(x) => format_num(*x),
            Leaf::Bool(b) => b.to_string(),
            Leaf::Text(s) => s.clone(),
        }
    }
}

fn format_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x:.6}")
    }
}

/// Flatten a JSON value into `path -> leaf` entries, sorted by path.
pub fn flatten(value: &Value) -> BTreeMap<String, Leaf> {
    let mut out = BTreeMap::new();
    flatten_into(value, String::new(), &mut out);
    out
}

fn flatten_into(value: &Value, path: String, out: &mut BTreeMap<String, Leaf>) {
    match value {
        Value::Object(map) => {
            for (k, v) in map.iter() {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                flatten_into(v, child, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_into(v, format!("{path}[{i}]"), out);
            }
        }
        Value::Null => {
            out.insert(path, Leaf::Null);
        }
        Value::Bool(b) => {
            out.insert(path, Leaf::Bool(*b));
        }
        Value::String(s) => {
            out.insert(path, Leaf::Text(s.clone()));
        }
        other => {
            if let Some(x) = other.as_f64() {
                out.insert(path, Leaf::Num(x));
            }
        }
    }
}

/// Outcome of comparing one leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Values match (within float tolerance).
    Unchanged,
    /// Values drifted but the key is not gated (or is within threshold).
    Drift,
    /// A gated metric improved past the threshold.
    Improvement,
    /// A gated metric regressed past the threshold.
    Regression,
    /// Identity mismatch or structural mismatch: manifests are not
    /// comparable.
    Incomparable,
}

/// One row of the delta table.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Flattened leaf path within `results`.
    pub path: String,
    /// Rendered baseline value (`-` if absent).
    pub old: String,
    /// Rendered candidate value (`-` if absent).
    pub new: String,
    /// Rendered relative delta (empty when not applicable).
    pub delta: String,
    /// Classification of this row.
    pub verdict: Verdict,
}

/// Relative drift on a gated key beyond which the change gates (5%).
pub const THRESHOLD: f64 = 0.05;

/// Diff configuration.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative *drop* on a throughput key (`items_per_sec`,
    /// `samples_per_sec`) beyond which the change gates (default 0.5:
    /// losing half the rate is a hot-path regression; smaller swings
    /// are machine noise).
    pub throughput_threshold: f64,
    /// Include unchanged rows in the report.
    pub show_unchanged: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            throughput_threshold: 0.5,
            show_unchanged: false,
        }
    }
}

/// Full diff outcome.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Rows retained for display (ordering: regressions and
    /// incomparable rows are interleaved in path order).
    pub rows: Vec<DeltaRow>,
    /// Count of leaves compared (including unchanged ones not shown).
    pub compared: usize,
    /// Gated regressions past threshold.
    pub regressions: usize,
    /// Gated improvements past threshold.
    pub improvements: usize,
    /// Identity/structural mismatches.
    pub incomparable: usize,
}

impl DiffReport {
    /// Process exit code for CI gating: 2 incomparable, 1 regression,
    /// 0 clean.
    pub fn exit_code(&self) -> i32 {
        if self.incomparable > 0 {
            2
        } else if self.regressions > 0 {
            1
        } else {
            0
        }
    }
}

const IDENTITY_TOL: f64 = 1e-12;

fn relative_delta(old: f64, new: f64) -> f64 {
    (new - old) / old.abs().max(1e-12)
}

fn compare_leaf(path: &str, old: &Leaf, new: &Leaf, config: &DiffConfig) -> (Verdict, String) {
    let dir = direction(path);
    match (old, new) {
        (Leaf::Num(o), Leaf::Num(n)) => {
            let rel = relative_delta(*o, *n);
            let delta = format!("{:+.2}%", rel * 100.0);
            match dir {
                Direction::Identity => {
                    if rel.abs() <= IDENTITY_TOL {
                        (Verdict::Unchanged, String::new())
                    } else {
                        (Verdict::Incomparable, delta)
                    }
                }
                Direction::Gated => {
                    if rel.abs() <= IDENTITY_TOL {
                        (Verdict::Unchanged, String::new())
                    } else if rel.abs() <= THRESHOLD {
                        (Verdict::Drift, delta)
                    } else if rel > 0.0 {
                        (Verdict::Regression, delta)
                    } else {
                        (Verdict::Improvement, delta)
                    }
                }
                Direction::Throughput => {
                    // Higher is better; only a drop past the (wide)
                    // throughput threshold gates.
                    if rel.abs() <= IDENTITY_TOL {
                        (Verdict::Unchanged, String::new())
                    } else if rel < -config.throughput_threshold {
                        (Verdict::Regression, delta)
                    } else if rel > config.throughput_threshold {
                        (Verdict::Improvement, delta)
                    } else {
                        (Verdict::Drift, delta)
                    }
                }
                Direction::Info => {
                    if rel.abs() <= IDENTITY_TOL {
                        (Verdict::Unchanged, String::new())
                    } else {
                        (Verdict::Drift, delta)
                    }
                }
            }
        }
        // Feasibility flips: a gated metric disappearing (number ->
        // null) is a regression; appearing is an improvement.
        (Leaf::Num(_), Leaf::Null) => match dir {
            Direction::Gated | Direction::Throughput => (Verdict::Regression, "lost".into()),
            Direction::Identity => (Verdict::Incomparable, "lost".into()),
            _ => (Verdict::Drift, "lost".into()),
        },
        (Leaf::Null, Leaf::Num(_)) => match dir {
            Direction::Gated | Direction::Throughput => (Verdict::Improvement, "gained".into()),
            Direction::Identity => (Verdict::Incomparable, "gained".into()),
            _ => (Verdict::Drift, "gained".into()),
        },
        (a, b) if a == b => (Verdict::Unchanged, String::new()),
        // Type changes or bool/string drift: never gate, but axis keys
        // changing type means the manifests do not line up.
        _ => match dir {
            Direction::Identity => (Verdict::Incomparable, "changed".into()),
            _ => (Verdict::Drift, "changed".into()),
        },
    }
}

/// Diff the `results` blobs of two manifests.
///
/// `old` is the baseline, `new` the candidate. Manifests for different
/// experiments are incomparable outright. Paths present on one side
/// only are incomparable rows (the grids differ in shape).
pub fn diff_manifests(old: &RunManifest, new: &RunManifest, config: &DiffConfig) -> DiffReport {
    let mut rows = Vec::new();
    let mut report = DiffReport {
        rows: Vec::new(),
        compared: 0,
        regressions: 0,
        improvements: 0,
        incomparable: 0,
    };
    if old.experiment != new.experiment {
        report.incomparable += 1;
        report.rows.push(DeltaRow {
            path: "experiment".into(),
            old: old.experiment.clone(),
            new: new.experiment.clone(),
            delta: "changed".into(),
            verdict: Verdict::Incomparable,
        });
        return report;
    }
    let a = flatten(&old.results);
    let b = flatten(&new.results);
    let mut paths: Vec<&String> = a.keys().collect();
    for k in b.keys() {
        if !a.contains_key(k) {
            paths.push(k);
        }
    }
    paths.sort();
    for path in paths {
        report.compared += 1;
        let (verdict, delta) = match (a.get(path), b.get(path)) {
            (Some(o), Some(n)) => compare_leaf(path, o, n, config),
            (Some(_), None) | (None, Some(_)) => (Verdict::Incomparable, "missing".into()),
            (None, None) => unreachable!("path came from one of the maps"),
        };
        match verdict {
            Verdict::Regression => report.regressions += 1,
            Verdict::Improvement => report.improvements += 1,
            Verdict::Incomparable => report.incomparable += 1,
            _ => {}
        }
        if verdict != Verdict::Unchanged || config.show_unchanged {
            rows.push(DeltaRow {
                path: path.clone(),
                old: a.get(path).map_or_else(|| "-".into(), Leaf::render),
                new: b.get(path).map_or_else(|| "-".into(), Leaf::render),
                delta,
                verdict,
            });
        }
    }
    report.rows = rows;
    report
}

/// Render the delta table plus a one-line summary.
pub fn render_diff(report: &DiffReport) -> String {
    let mut out = String::new();
    if !report.rows.is_empty() {
        let rows: Vec<Vec<String>> = report
            .rows
            .iter()
            .map(|r| {
                let tag = match r.verdict {
                    Verdict::Unchanged => "=",
                    Verdict::Drift => "~",
                    Verdict::Improvement => "+",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Incomparable => "INCOMPARABLE",
                };
                vec![
                    r.path.clone(),
                    r.old.clone(),
                    r.new.clone(),
                    r.delta.clone(),
                    tag.to_string(),
                ]
            })
            .collect();
        out.push_str(&crate::render_table(
            &["path", "baseline", "candidate", "delta", "verdict"],
            &rows,
        ));
    }
    out.push_str(&format!(
        "{} leaves compared: {} regression(s), {} improvement(s), {} incomparable (threshold {:.1}%)\n",
        report.compared,
        report.regressions,
        report.improvements,
        report.incomparable,
        THRESHOLD * 100.0,
    ));
    out
}

/// The relative threshold that applies to `path` under `config`:
/// throughput keys gate at the wider throughput threshold, everything
/// else at [`THRESHOLD`].
pub fn applied_threshold(path: &str, config: &DiffConfig) -> f64 {
    match direction(path) {
        Direction::Throughput => config.throughput_threshold,
        _ => THRESHOLD,
    }
}

/// One gated key that regressed past its threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateFailure {
    /// Flattened leaf path within `results`.
    pub path: String,
    /// Rendered baseline value.
    pub baseline: String,
    /// Rendered candidate value.
    pub current: String,
    /// Rendered relative delta (or `lost` for a feasibility flip).
    pub delta: String,
    /// The relative threshold this key was gated at.
    pub threshold: f64,
}

/// Machine-readable verdict for CI: the exit code, the counts behind
/// it, and the failed gates (empty when clean). Written by the
/// `bench_diff` binary's `--json-verdict <path>` flag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffVerdict {
    /// Process exit code ([`DiffReport::exit_code`]).
    pub exit_code: i64,
    /// Leaves compared.
    pub compared: u64,
    /// Gated regressions past threshold.
    pub regressions: u64,
    /// Gated improvements past threshold.
    pub improvements: u64,
    /// Identity/structural mismatches.
    pub incomparable: u64,
    /// The failed gates, in path order.
    pub failures: Vec<GateFailure>,
}

/// Extract just the failed gates from a report: the regression rows,
/// each paired with the threshold it was judged against.
pub fn gate_failures(report: &DiffReport, config: &DiffConfig) -> Vec<GateFailure> {
    report
        .rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .map(|r| GateFailure {
            path: r.path.clone(),
            baseline: r.old.clone(),
            current: r.new.clone(),
            delta: r.delta.clone(),
            threshold: applied_threshold(&r.path, config),
        })
        .collect()
}

/// Build the machine-readable verdict for a report.
pub fn diff_verdict(report: &DiffReport, config: &DiffConfig) -> DiffVerdict {
    DiffVerdict {
        exit_code: i64::from(report.exit_code()),
        compared: report.compared as u64,
        regressions: report.regressions as u64,
        improvements: report.improvements as u64,
        incomparable: report.incomparable as u64,
        failures: gate_failures(report, config),
    }
}

/// Render a table of ONLY the failed gates — what a developer reading a
/// red CI log needs first, without digging through the full delta
/// table. Empty string when nothing failed.
pub fn render_failures(report: &DiffReport, config: &DiffConfig) -> String {
    let failures = gate_failures(report, config);
    if failures.is_empty() {
        return String::new();
    }
    let rows: Vec<Vec<String>> = failures
        .iter()
        .map(|f| {
            vec![
                f.path.clone(),
                f.baseline.clone(),
                f.current.clone(),
                f.delta.clone(),
                format!("{:.1}%", f.threshold * 100.0),
            ]
        })
        .collect();
    format!(
        "FAILED GATES ({}):\n{}",
        failures.len(),
        crate::render_table(
            &["path", "baseline", "current", "delta", "threshold"],
            &rows
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON parses")
    }

    fn manifest(results: Value) -> RunManifest {
        RunManifest {
            experiment: "fig3".into(),
            argv: vec![],
            git_rev: None,
            config: Value::Null,
            results,
        }
    }

    #[test]
    fn flatten_walks_nesting_and_arrays() {
        let v = json(r#"{"a": {"b": [1.0, null]}, "c": true}"#);
        let f = flatten(&v);
        assert_eq!(f.get("a.b[0]"), Some(&Leaf::Num(1.0)));
        assert_eq!(f.get("a.b[1]"), Some(&Leaf::Null));
        assert_eq!(f.get("c"), Some(&Leaf::Bool(true)));
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn direction_rules() {
        assert_eq!(direction("cells[0].tau0"), Direction::Identity);
        assert_eq!(direction("tau0s[3]"), Direction::Identity);
        assert_eq!(direction("cells[0].enforced"), Direction::Gated);
        assert_eq!(
            direction("cells[0].enforced_telemetry.iterations"),
            Direction::Gated
        );
        assert_eq!(
            direction("cells[0].enforced_telemetry.wall_micros"),
            Direction::Info
        );
        assert_eq!(direction("runs[2].items_shed"), Direction::Gated);
        assert_eq!(direction("runs[2].resolves"), Direction::Gated);
        assert_eq!(direction("conservation_violations"), Direction::Gated);
        assert_eq!(direction("agreement_failures"), Direction::Gated);
        assert_eq!(
            direction("quantities[0].error"),
            Direction::Info,
            "agreement errors are timing-noisy: gated via agreement_failures, not raw error"
        );
        assert_eq!(
            direction("points[1].enforced_mitigated.total_shed"),
            Direction::Gated
        );
        assert_eq!(
            direction("points[1].monolithic.total_resolves"),
            Direction::Gated
        );
        assert_eq!(
            direction("cells[0].enforced_telemetry.residual"),
            Direction::Info
        );
    }

    #[test]
    fn identical_manifests_are_clean() {
        let r = json(r#"{"tau0s": [1.0], "cells": [{"tau0": 1.0, "enforced": 0.5}]}"#);
        let rep = diff_manifests(&manifest(r.clone()), &manifest(r), &DiffConfig::default());
        assert_eq!(rep.exit_code(), 0);
        assert!(rep.rows.is_empty());
        assert_eq!(rep.compared, 3);
    }

    #[test]
    fn active_fraction_regression_gates() {
        let old = json(r#"{"cells": [{"tau0": 1.0, "enforced": 0.50}]}"#);
        let new = json(r#"{"cells": [{"tau0": 1.0, "enforced": 0.60}]}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &DiffConfig::default());
        assert_eq!(rep.regressions, 1);
        assert_eq!(rep.exit_code(), 1);
        let row = &rep.rows[0];
        assert_eq!(row.path, "cells[0].enforced");
        assert_eq!(row.verdict, Verdict::Regression);
        // A decrease of the same size is an improvement, exit 0.
        let old = json(r#"{"cells": [{"enforced": 0.60}]}"#);
        let new = json(r#"{"cells": [{"enforced": 0.50}]}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &DiffConfig::default());
        assert_eq!(rep.improvements, 1);
        assert_eq!(rep.exit_code(), 0);
    }

    #[test]
    fn drift_within_threshold_does_not_gate() {
        let old = json(r#"{"cells": [{"enforced": 0.500}]}"#);
        let new = json(r#"{"cells": [{"enforced": 0.510}]}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &DiffConfig::default());
        assert_eq!(rep.regressions, 0);
        assert_eq!(rep.exit_code(), 0);
        assert_eq!(rep.rows[0].verdict, Verdict::Drift);
    }

    #[test]
    fn axis_mismatch_is_incomparable() {
        let old = json(r#"{"tau0s": [1.0, 2.0]}"#);
        let new = json(r#"{"tau0s": [1.0, 3.0]}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &DiffConfig::default());
        assert_eq!(rep.exit_code(), 2);
        assert_eq!(rep.incomparable, 1);
    }

    #[test]
    fn shape_mismatch_is_incomparable() {
        let old = json(r#"{"cells": [{"enforced": 0.5}, {"enforced": 0.6}]}"#);
        let new = json(r#"{"cells": [{"enforced": 0.5}]}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &DiffConfig::default());
        assert_eq!(rep.exit_code(), 2);
    }

    #[test]
    fn feasibility_flip_gates() {
        let old = json(r#"{"cells": [{"enforced": 0.5}]}"#);
        let new = json(r#"{"cells": [{"enforced": null}]}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &DiffConfig::default());
        assert_eq!(rep.regressions, 1);
        assert_eq!(rep.rows[0].delta, "lost");
        let rep = diff_manifests(
            &manifest(json(r#"{"cells": [{"enforced": null}]}"#)),
            &manifest(json(r#"{"cells": [{"enforced": 0.5}]}"#)),
            &DiffConfig::default(),
        );
        assert_eq!(rep.improvements, 1);
        assert_eq!(rep.exit_code(), 0);
    }

    #[test]
    fn throughput_gates_on_drops_past_the_wide_threshold() {
        assert_eq!(
            direction("sim.enforced.items_per_sec"),
            Direction::Throughput
        );
        assert_eq!(
            direction("stats.histogram.samples_per_sec"),
            Direction::Throughput
        );
        // Parallel `cells_per_sec` depends on core count, stays
        // informational; the one-worker paper-grid sweep's gates.
        assert_eq!(direction("sweep.chunked.cells_per_sec"), Direction::Info);
        assert_eq!(
            direction("sweep.paper_64x64.cells_per_sec"),
            Direction::Throughput
        );

        let cfg = DiffConfig::default();
        // Losing 60% of throughput (past the 50% default) gates.
        let old = json(r#"{"sim": {"enforced": {"items_per_sec": 6.0e6}}}"#);
        let new = json(r#"{"sim": {"enforced": {"items_per_sec": 2.4e6}}}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &cfg);
        assert_eq!(rep.regressions, 1);
        assert_eq!(rep.exit_code(), 1);
        // A 30% dip is machine noise: drift, exit 0.
        let old = json(r#"{"sim": {"enforced": {"items_per_sec": 6.0e6}}}"#);
        let new = json(r#"{"sim": {"enforced": {"items_per_sec": 4.2e6}}}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &cfg);
        assert_eq!(rep.exit_code(), 0);
        assert_eq!(rep.rows[0].verdict, Verdict::Drift);
        // Doubling is an improvement (never gates).
        let old = json(r#"{"sim": {"enforced": {"items_per_sec": 6.0e6}}}"#);
        let new = json(r#"{"sim": {"enforced": {"items_per_sec": 1.3e7}}}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &cfg);
        assert_eq!(rep.improvements, 1);
        assert_eq!(rep.exit_code(), 0);
        // A tighter threshold turns the 30% dip into a regression.
        let tight = DiffConfig {
            throughput_threshold: 0.2,
            ..DiffConfig::default()
        };
        let old = json(r#"{"sim": {"enforced": {"items_per_sec": 6.0e6}}}"#);
        let new = json(r#"{"sim": {"enforced": {"items_per_sec": 4.2e6}}}"#);
        let rep = diff_manifests(&manifest(old), &manifest(new), &tight);
        assert_eq!(rep.exit_code(), 1);
    }

    #[test]
    fn wall_micros_is_info_unless_gated() {
        let old = json(r#"{"cells": [{"enforced_telemetry": {"wall_micros": 100.0}}]}"#);
        let new = json(r#"{"cells": [{"enforced_telemetry": {"wall_micros": 900.0}}]}"#);
        let cfg = DiffConfig::default();
        let rep = diff_manifests(&manifest(old), &manifest(new), &cfg);
        assert_eq!(rep.exit_code(), 0);
        assert_eq!(rep.rows[0].verdict, Verdict::Drift);
    }

    #[test]
    fn different_experiments_are_incomparable() {
        let mut a = manifest(Value::Null);
        let b = manifest(Value::Null);
        a.experiment = "fig4".into();
        let rep = diff_manifests(&a, &b, &DiffConfig::default());
        assert_eq!(rep.exit_code(), 2);
    }

    #[test]
    fn render_includes_summary_and_flags() {
        let old = json(r#"{"cells": [{"enforced": 0.5}]}"#);
        let new = json(r#"{"cells": [{"enforced": 0.9}]}"#);
        let cfg = DiffConfig::default();
        let rep = diff_manifests(&manifest(old), &manifest(new), &cfg);
        let text = render_diff(&rep);
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("1 regression(s)"));
        assert!(text.contains("threshold 5.0%"));
    }

    #[test]
    fn failure_table_lists_only_regressed_gates_with_their_thresholds() {
        // One gated regression, one throughput regression, one drift,
        // one improvement: the failure table must hold exactly the two
        // regressions, each with the threshold that judged it.
        let old = json(
            r#"{"cells": [{"enforced": 0.50, "monolithic": 0.80}],
                "sim": {"enforced": {"items_per_sec": 6.0e6}},
                "note_info": 1.0}"#,
        );
        let new = json(
            r#"{"cells": [{"enforced": 0.60, "monolithic": 0.70}],
                "sim": {"enforced": {"items_per_sec": 1.0e6}},
                "note_info": 2.0}"#,
        );
        let cfg = DiffConfig::default();
        let rep = diff_manifests(&manifest(old), &manifest(new), &cfg);
        assert_eq!(rep.regressions, 2);

        let failures = gate_failures(&rep, &cfg);
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].path, "cells[0].enforced");
        assert_eq!(failures[0].threshold, THRESHOLD);
        assert_eq!(failures[1].path, "sim.enforced.items_per_sec");
        assert_eq!(failures[1].threshold, cfg.throughput_threshold);

        let table = render_failures(&rep, &cfg);
        assert!(table.contains("FAILED GATES (2)"), "{table}");
        assert!(table.contains("cells[0].enforced"), "{table}");
        assert!(table.contains("50.0%"), "{table}");
        // Non-failures stay out of the failure table.
        assert!(!table.contains("monolithic"), "{table}");
        assert!(!table.contains("note_info"), "{table}");
    }

    #[test]
    fn failure_table_is_empty_when_clean() {
        let r = json(r#"{"cells": [{"enforced": 0.5}]}"#);
        let cfg = DiffConfig::default();
        let rep = diff_manifests(&manifest(r.clone()), &manifest(r), &cfg);
        assert_eq!(render_failures(&rep, &cfg), "");
        assert!(gate_failures(&rep, &cfg).is_empty());
    }

    #[test]
    fn verdict_json_round_trips_and_matches_report() {
        let old = json(r#"{"cells": [{"enforced": 0.50}]}"#);
        let new = json(r#"{"cells": [{"enforced": 0.75}]}"#);
        let cfg = DiffConfig::default();
        let rep = diff_manifests(&manifest(old), &manifest(new), &cfg);
        let verdict = diff_verdict(&rep, &cfg);
        assert_eq!(verdict.exit_code, 1);
        assert_eq!(verdict.regressions, 1);
        assert_eq!(verdict.failures.len(), 1);
        assert_eq!(verdict.failures[0].current, "0.750000");
        let text = serde_json::to_string(&verdict).unwrap();
        let back: DiffVerdict = serde_json::from_str(&text).unwrap();
        assert_eq!(back, verdict);
    }

    #[test]
    fn bool_and_string_drift_never_gate() {
        let old = json(
            r#"{"cells": [{"enforced_telemetry": {"method": "water-filling", "fallback": false}}]}"#,
        );
        let new = json(
            r#"{"cells": [{"enforced_telemetry": {"method": "interior-point", "fallback": true}}]}"#,
        );
        let rep = diff_manifests(&manifest(old), &manifest(new), &DiffConfig::default());
        assert_eq!(rep.exit_code(), 0);
        assert_eq!(rep.rows.len(), 2);
        assert!(rep.rows.iter().all(|r| r.verdict == Verdict::Drift));
    }
}
