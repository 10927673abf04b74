//! Compare two `BENCH_*.json` run manifests and gate on regressions.
//!
//! ```text
//! cargo run --release -p bench --bin bench_diff -- \
//!     results/baseline/BENCH_fig3.json BENCH_fig3.json \
//!     [--throughput-threshold 0.5] [--all] [--json-verdict verdict.json]
//! ```
//!
//! Prints a delta table (changed leaves only; `--all` includes
//! unchanged ones) and exits 0 when clean, 1 on a regression past the
//! threshold (5% on gated keys, `--throughput-threshold` on rates), 2 when the manifests are not comparable (different
//! experiment or grid) or on usage errors. On a regression the full
//! table is followed by a `FAILED GATES` table holding only the keys
//! that gated, with the threshold each was judged against.
//! `--json-verdict <path>` additionally writes the verdict (exit code,
//! counts, failed gates) as JSON for downstream tooling.

use bench::{diff_manifests, diff_verdict, render_diff, render_failures, DiffConfig, RunManifest};

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff <baseline.json> <candidate.json> \
         [--throughput-threshold FRACTION] [--all] [--json-verdict PATH]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> RunManifest {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("bench_diff: {path} is not a run manifest: {e:?}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = DiffConfig::default();
    let mut files = Vec::new();
    let mut json_verdict: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json-verdict" => {
                let Some(path) = it.next() else {
                    usage();
                };
                json_verdict = Some(path.clone());
            }
            "--throughput-threshold" => {
                let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                    usage();
                };
                if !(v.is_finite() && v >= 0.0) {
                    usage();
                }
                config.throughput_threshold = v;
            }
            "--all" => config.show_unchanged = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => usage(),
            other => files.push(other.to_string()),
        }
    }
    let [baseline, candidate] = files.as_slice() else {
        usage();
    };
    let old = load(baseline);
    let new = load(candidate);
    println!(
        "comparing {} ({}) -> {} ({})",
        baseline,
        old.git_rev.as_deref().unwrap_or("unknown rev"),
        candidate,
        new.git_rev.as_deref().unwrap_or("unknown rev"),
    );
    let report = diff_manifests(&old, &new, &config);
    print!("{}", render_diff(&report));
    // A developer reading a red CI log wants the failed gates alone,
    // not the whole delta table: repeat just those at the end.
    print!("{}", render_failures(&report, &config));
    if let Some(path) = json_verdict {
        let verdict = diff_verdict(&report, &config);
        let text = serde_json::to_string(&verdict).expect("verdict serializes");
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("bench_diff: cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("wrote verdict to {path}");
    }
    std::process::exit(report.exit_code());
}
