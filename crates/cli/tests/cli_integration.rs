//! End-to-end CLI tests: run the commands through `rtsdf_cli::run` with
//! a real pipeline file and inspect the output.

use rtsdf_cli::run;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn run_to_string(cmd: &str) -> Result<String, String> {
    let mut out = Vec::new();
    run(&argv(cmd), &mut out)?;
    Ok(String::from_utf8(out).expect("utf8 output"))
}

/// Run the real binary and return its (stdout, stderr). The `--live`
/// painter writes straight to the process's stderr, which the test
/// harness does not capture; run in-process it would interleave with
/// the harness's own `test ... ok` lines.
fn run_bin(cmd: &str) -> (String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rtsdf-cli"))
        .args(argv(cmd))
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(out.status.success(), "{cmd}: {stderr}");
    (String::from_utf8(out.stdout).expect("utf8 output"), stderr)
}

/// Write the example pipeline to a temp file and return its path. Each
/// call gets its own file: tests run in parallel, and one test reading
/// the file while another rewrites it would see it truncated.
fn pipeline_file() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("rtsdf-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = dir.join(format!("blast-{n}.json"));
    let json = run_to_string("example-pipeline").unwrap();
    std::fs::write(&path, json).unwrap();
    path
}

#[test]
fn example_pipeline_roundtrips() {
    let json = run_to_string("example-pipeline").unwrap();
    let spec: rtsdf::model::PipelineSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec.len(), 4);
    assert_eq!(spec.vector_width(), 128);
}

#[test]
fn optimize_all_strategies() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "optimize --pipeline {} --tau0 10 --deadline 1e5 --b 1,3,9,6",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("enforced waits: active fraction"), "{out}");
    assert!(out.contains("monolithic: M ="), "{out}");
    assert!(out.contains("flexible shares: utilization"), "{out}");
}

#[test]
fn optimize_json_output_parses() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "optimize --pipeline {} --tau0 10 --deadline 1e5 --json",
        path.display()
    ))
    .unwrap();
    let v: serde_json::Value = serde_json::from_str(&out).unwrap();
    assert!(v.get("enforced").is_some(), "{v}");
    let af = v["enforced"]["active_fraction"].as_f64().unwrap();
    assert!(af > 0.0 && af < 1.0);
}

#[test]
fn optimize_reports_infeasibility_gracefully() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "optimize --pipeline {} --tau0 10 --deadline 100 --strategy enforced",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("infeasible"), "{out}");
}

#[test]
fn simulate_prints_metrics() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "simulate --pipeline {} --tau0 10 --deadline 1e5 --b 1,3,9,6 --items 1000 --seeds 2",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("miss-free seeds"), "{out}");
    assert!(out.contains("active fraction: predicted"), "{out}");
}

#[test]
fn simulate_deepchain_workload_runs_as_a_chain() {
    let out = run_to_string(
        "simulate --workload deepchain:32 --tau0 5 --deadline 1e7 --items 500 --seeds 1",
    )
    .unwrap();
    assert!(out.contains("miss-free seeds"), "{out}");
    assert!(out.contains("active fraction: predicted"), "{out}");
}

#[test]
fn sweep_csv_has_expected_columns() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "sweep --pipeline {} --grid 3x3 --csv",
        path.display()
    ))
    .unwrap();
    let mut lines = out.lines();
    assert_eq!(
        lines.next().unwrap(),
        "tau0,deadline,enforced_af,monolithic_af,difference"
    );
    assert_eq!(lines.count(), 9, "3x3 grid rows");
}

#[test]
fn calibrate_reports_rounds() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "calibrate --pipeline {} --points 10:1e5 --seeds 2 --items 1000",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("round 0"), "{out}");
    assert!(out.contains("calibrated b ="), "{out}");
}

#[test]
fn gantt_draws_one_row_per_node() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "gantt --pipeline {} --tau0 10 --deadline 1e5 --b 1,3,9,6 --window 20000 --width 60",
        path.display()
    ))
    .unwrap();
    let rows: Vec<&str> = out.lines().filter(|l| l.starts_with("node ")).collect();
    assert_eq!(rows.len(), 4, "{out}");
    assert!(rows.iter().all(|r| r.contains('#')), "{out}");
}

#[test]
fn optimize_flexible_strategy_only() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "optimize --pipeline {} --tau0 10 --deadline 2e4 --b 1,3,9,6 --strategy flexible",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("flexible shares: utilization"), "{out}");
    assert!(!out.contains("monolithic"), "{out}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let err =
        run_to_string("optimize --pipeline /no/such/file.json --tau0 1 --deadline 1").unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn bad_b_length_is_a_clean_error() {
    let path = pipeline_file();
    let err = run_to_string(&format!(
        "optimize --pipeline {} --tau0 10 --deadline 1e5 --b 1,2",
        path.display()
    ))
    .unwrap_err();
    assert!(err.contains("stages"), "{err}");
}

#[test]
fn unknown_subcommand_shows_usage() {
    let err = run_to_string("bogus").unwrap_err();
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn trace_writes_perfetto_loadable_chrome_json() {
    let path = pipeline_file();
    let out_path = path.with_file_name("trace_chrome.json");
    let out = run_to_string(&format!(
        "trace --pipeline {} --tau0 10 --deadline 1e5 --b 1,3,9,6 --items 400 --out {}",
        path.display(),
        out_path.display()
    ))
    .unwrap();
    assert!(out.contains("traced 400 items"), "{out}");
    let text = std::fs::read_to_string(&out_path).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    // Chrome trace-event essentials: metadata naming plus complete
    // events with microsecond timestamps on every record.
    let mut phases = std::collections::HashSet::new();
    for e in events {
        let ph = e["ph"].as_str().expect("ph field");
        phases.insert(ph.to_string());
        if ph == "X" {
            assert!(e["ts"].as_f64().is_some(), "{e}");
            assert!(e["dur"].as_f64().is_some(), "{e}");
            assert!(e["pid"].as_u64().is_some(), "{e}");
        }
    }
    assert!(phases.contains("M"), "thread metadata present: {phases:?}");
    assert!(phases.contains("X"), "span events present: {phases:?}");
    // Both the simulator tracks and the solver track made it into one
    // file (pid 1 = stages, pid 2 = items, pid 3 = solver).
    let pids: std::collections::HashSet<u64> =
        events.iter().filter_map(|e| e["pid"].as_u64()).collect();
    assert!(
        pids.contains(&1) && pids.contains(&2) && pids.contains(&3),
        "{pids:?}"
    );
}

#[test]
fn trace_json_format_reports_blame_for_missed_deadlines() {
    let path = pipeline_file();
    let out_path = path.with_file_name("trace_report.json");
    // alpha = 0.05 puts the forensics threshold (5e3 cycles) far below
    // the pipeline's minimum latency, so every completion is analyzed
    // and the blame report must account for all overrun.
    let out = run_to_string(&format!(
        "trace --pipeline {} --tau0 10 --deadline 1e5 --b 1,3,9,6 --items 400 \
         --alpha 0.05 --format json --out {}",
        path.display(),
        out_path.display()
    ))
    .unwrap();
    assert!(out.contains("deadline-miss forensics"), "{out}");
    let text = std::fs::read_to_string(&out_path).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let blame = &v["metrics"]["blame"];
    assert!(blame["analyzed_items"].as_u64().unwrap() > 0, "{blame}");
    let stages = blame["stages"].as_array().unwrap();
    let total: f64 = stages
        .iter()
        .map(|s| {
            s["enforced_wait"].as_f64().unwrap()
                + s["queue_wait"].as_f64().unwrap()
                + s["service"].as_f64().unwrap()
        })
        .sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "blame fractions sum to 1: {total}"
    );
    assert!(v["trace"]["visits"].as_u64().unwrap() > 0);
}

#[test]
fn stress_is_deterministic_and_degrades_gracefully() {
    let path = pipeline_file();
    let cmd = format!(
        "stress --pipeline {} --tau0 10 --deadline 1e5 --b 1,3,9,6 \
         --items 600 --seeds 2 --intensities 0,1.5 --json",
        path.display()
    );
    let out1 = run_to_string(&cmd).unwrap();
    let out2 = run_to_string(&cmd).unwrap();
    assert_eq!(out1, out2, "same seeds must reproduce bit-identically");

    let v: serde_json::Value = serde_json::from_str(&out1).unwrap();
    let points = v["points"].as_array().unwrap();
    assert_eq!(points.len(), 2);

    // Unperturbed at the paper's calibrated factors: miss-free, no
    // mitigation activity.
    let base = &points[0]["enforced_mitigated"];
    assert_eq!(base["miss_free_fraction"].as_f64().unwrap(), 1.0);
    assert_eq!(base["total_shed"].as_u64().unwrap(), 0);
    assert_eq!(base["total_resolves"].as_u64().unwrap(), 0);

    // Degradation is monotone: shed + misses can only grow with
    // intensity, and under heavy faults shedding keeps the miss rate
    // over *admitted* items at or below the unmitigated miss rate.
    let hot = &points[1];
    let mitigated = &hot["enforced_mitigated"];
    let unmitigated = &hot["enforced_unmitigated"];
    let pressure = |c: &serde_json::Value| {
        c["total_shed"].as_u64().unwrap() + c["total_misses"].as_u64().unwrap()
    };
    assert!(pressure(mitigated) >= pressure(&points[0]["enforced_mitigated"]));
    assert!(
        mitigated["worst_admitted_miss_rate"].as_f64().unwrap()
            <= unmitigated["worst_miss_rate"].as_f64().unwrap() + 1e-12,
        "{hot}"
    );
    // Margins are reported for every strategy (possibly null).
    assert!(v.get("enforced_margin").is_some());
    assert!(v.get("monolithic_margin").is_some());
}

#[test]
fn stress_human_output_reports_margins() {
    let path = pipeline_file();
    let out = run_to_string(&format!(
        "stress --pipeline {} --tau0 10 --deadline 1e5 --b 1,3,9,6 \
         --items 400 --seeds 2 --intensities 0",
        path.display()
    ))
    .unwrap();
    assert!(out.contains("stressed 1 intensities"), "{out}");
    assert!(out.contains("margins:"), "{out}");
}

#[test]
fn unknown_and_malformed_flags_are_clean_errors() {
    // Regression: these used to be silently ignored or mis-consumed.
    let err =
        run_to_string("simulate --pipeline p --tau0 1 --deadline 1e5 --seedz 100").unwrap_err();
    assert!(err.contains("--seedz"), "{err}");
    let err =
        run_to_string("simulate --pipeline p --tau0 1 --deadline 1e5 --b --json").unwrap_err();
    assert!(err.contains("--b") && err.contains("--json"), "{err}");
    let err =
        run_to_string("simulate --pipeline p --tau0 1 --deadline 1e5 --items 1e30").unwrap_err();
    assert!(err.contains("too large"), "{err}");
}

#[test]
fn trace_monolithic_strategy_works() {
    let path = pipeline_file();
    let out_path = path.with_file_name("trace_mono.json");
    let out = run_to_string(&format!(
        "trace --pipeline {} --tau0 50 --deadline 1e5 --items 300 --strategy monolithic --out {}",
        path.display(),
        out_path.display()
    ))
    .unwrap();
    assert!(out.contains("traced 300 items"), "{out}");
    let text = std::fs::read_to_string(&out_path).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert!(!v["traceEvents"].as_array().unwrap().is_empty());
}

#[test]
fn sweep_live_output_is_bit_identical_to_plain() {
    let path = pipeline_file();
    let (plain, _) = run_bin(&format!(
        "sweep --pipeline {} --grid 4x4 --csv",
        path.display()
    ));
    // --live-interval implies --live; 127.0.0.1:0 binds an ephemeral
    // port so parallel test runs never collide.
    let (live, progress) = run_bin(&format!(
        "sweep --pipeline {} --grid 4x4 --csv --live-interval 10 --metrics-listen 127.0.0.1:0",
        path.display()
    ));
    assert_eq!(plain, live, "live telemetry must not change results");
    assert!(progress.contains("sweep 16/16 cells (100%)"), "{progress}");
}

#[test]
fn sweep_manifest_embeds_live_metrics_snapshot() {
    // Manifest output lands in $BENCH_OUT_DIR, so run the real binary
    // in a subprocess rather than mutating this process's environment.
    let pipeline = pipeline_file();
    let dir = std::env::temp_dir().join(format!("rtsdf-cli-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_rtsdf-cli"))
        .args([
            "sweep",
            "--pipeline",
            pipeline.to_str().unwrap(),
            "--grid",
            "4x4",
            "--metrics",
            "json",
            "--live-interval",
            "20",
            "--metrics-listen",
            "127.0.0.1:0",
        ])
        .env("BENCH_OUT_DIR", &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let text = std::fs::read_to_string(dir.join("BENCH_sweep.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let families = v["results"]["live_metrics"]["families"]
        .as_array()
        .expect("manifest embeds the final registry snapshot");
    let total = |name: &str| -> f64 {
        families
            .iter()
            .find(|f| f["name"].as_str() == Some(name))
            .map(|f| {
                f["samples"]
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|s| s["value"].as_f64().unwrap())
                    .sum()
            })
            .unwrap_or(0.0)
    };
    // Every cell of the 4x4 grid was claimed and completed, and the
    // snapshot agrees with the manifest's own cell list.
    assert_eq!(total("rtsdf_sweep_cells_completed"), 16.0, "{text}");
    assert_eq!(total("rtsdf_sweep_cells_claimed"), 16.0, "{text}");
    assert_eq!(v["results"]["cells"].as_array().unwrap().len(), 16);
    assert!(total("rtsdf_sweep_steals") >= 1.0);
}

#[test]
fn stress_live_output_is_bit_identical_to_plain() {
    let path = pipeline_file();
    let cmd = |extra: &str| {
        run_bin(&format!(
            "stress --pipeline {} --tau0 10 --deadline 1e5 --b 1,3,9,6 \
             --items 400 --seeds 2 --intensities 0,1 --json{extra}",
            path.display()
        ))
    };
    let (plain, _) = cmd("");
    let (live, progress) = cmd(" --live --live-interval 10");
    assert_eq!(plain, live, "live telemetry must not change results");
    assert!(progress.contains("stress 12/12 runs (100%)"), "{progress}");
}
