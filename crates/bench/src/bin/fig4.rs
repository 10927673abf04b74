//! Experiment E5 — regenerate Figure 4: the difference surface
//! (monolithic − enforced active fraction) and its zero crossing.
//! `--metrics json|csv` writes a `BENCH_fig4` run manifest with
//! per-cell solver telemetry.
//!
//! ```text
//! cargo run --release -p bench --bin fig4 [-- --csv] [--metrics json|csv]
//! ```

use bench::manifest::emit_sweep_metrics;
use rtsdf::core::comparison::{sweep, SweepConfig};
use rtsdf::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let csv = args.iter().any(|a| a == "--csv");
    let metrics = bench::parse_metrics_flag(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let topology = Topology::chain(&rtsdf::blast::paper_pipeline());
    let (tau0s, ds) = RtParams::paper_grid(16, 16);
    let sweep_config = SweepConfig::paper_blast();
    let result = sweep(&topology, &tau0s, &ds, &sweep_config, None).expect("paper grid is valid");

    if let Some(format) = metrics {
        let path =
            emit_sweep_metrics("fig4", &result, &sweep_config, format).expect("metrics written");
        eprintln!("wrote {}", path.display());
    }

    if csv {
        let rows: Vec<Vec<String>> = result
            .cells
            .iter()
            .map(|c| {
                vec![
                    format!("{:.4}", c.tau0),
                    format!("{:.0}", c.deadline),
                    bench::opt_fmt(c.difference(), 6),
                ]
            })
            .collect();
        print!(
            "{}",
            bench::render_csv(&["tau0", "deadline", "mono_minus_enforced"], &rows)
        );
        return;
    }

    println!("Figure 4 — monolithic minus enforced active fraction");
    println!("(positive = enforced waits win; 'x' = at least one strategy infeasible)");
    println!();
    let labels: Vec<String> = tau0s.iter().map(|t| format!("tau0={t:7.2}")).collect();
    let grid: Vec<Vec<Option<f64>>> = (0..tau0s.len())
        .map(|i| {
            (0..ds.len())
                .map(|j| result.cell(i, j).difference())
                .collect()
        })
        .collect();
    print!(
        "{}",
        bench::render_heatmap(&grid, -0.8, 0.8, &labels, "difference surface")
    );
    println!();

    // Zero-crossing row per τ0: the smallest D where enforced wins.
    println!("zero-plane crossing (smallest D where enforced waits win):");
    for (i, &tau0) in tau0s.iter().enumerate() {
        let crossing =
            (0..ds.len()).find(|&j| result.cell(i, j).difference().is_some_and(|d| d > 0.0));
        match crossing {
            Some(j) => println!("  tau0 = {tau0:7.2}: D >= {:9.0}", ds[j]),
            None => println!("  tau0 = {tau0:7.2}: never (monolithic wins or infeasible)"),
        }
    }
    println!();
    println!(
        "summary: enforced wins {:.0}% of comparable cells; max advantage {:+.3}; max monolithic advantage {:+.3}",
        100.0 * result.enforced_win_fraction(),
        result.max_enforced_advantage().unwrap_or(0.0),
        result.max_monolithic_advantage().unwrap_or(0.0),
    );
}
