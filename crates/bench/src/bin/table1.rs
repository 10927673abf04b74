//! Experiment E1 — regenerate Table 1.
//!
//! Prints the paper's Table 1 next to the measured analogue produced by
//! running the synthetic BLAST workload through the real stage
//! computations (for gains) and the SIMT kernels (for service times).
//!
//! `--metrics json` additionally writes a `BENCH_table1.json` run
//! manifest with the paper and measured rows side by side.
//!
//! ```text
//! cargo run --release -p bench --bin table1 [-- --json] [--metrics json]
//! ```

use bench::RunManifest;
use rtsdf::blast::{measure_pipeline, paper_table1, MeasurementConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let metrics = bench::parse_metrics_flag(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let paper = paper_table1();
    let config = MeasurementConfig::default();
    let (_, measured) = measure_pipeline(&config).expect("measurement");

    if metrics {
        let path = RunManifest::new(
            "table1",
            serde_json::to_value(&config).expect("config serializes"),
            serde_json::to_value(&serde_json::json!({
                "paper": paper,
                "measured": measured,
            }))
            .expect("rows serialize"),
        )
        .write()
        .expect("manifest written");
        eprintln!("wrote {}", path.display());
    }

    if json {
        let out = serde_json::json!({
            "experiment": "table1",
            "paper": paper,
            "measured": measured,
        });
        println!("{}", serde_json::to_string_pretty(&out).unwrap());
        return;
    }

    let rows: Vec<Vec<String>> = paper
        .rows
        .iter()
        .zip(&measured.rows)
        .enumerate()
        .map(|(i, (p, m))| {
            vec![
                i.to_string(),
                p.name.clone(),
                format!("{:.0}", p.service_time),
                bench::opt_fmt(p.mean_gain, 4),
                format!("{:.0}", m.service_time),
                bench::opt_fmt(m.mean_gain, 4),
            ]
        })
        .collect();
    println!("Table 1 — BLAST pipeline properties (v = 128)");
    println!("(paper columns measured on a GTX 2080; ours on the simulated SIMT device");
    println!(" with synthetic sequences — see DESIGN.md substitutions)");
    println!();
    print!(
        "{}",
        bench::render_table(
            &[
                "node",
                "stage",
                "t_i (paper)",
                "g_i (paper)",
                "t_i (ours)",
                "g_i (ours)"
            ],
            &rows
        )
    );
}
