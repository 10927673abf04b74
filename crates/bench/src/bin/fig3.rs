//! Experiment E3/E4 — regenerate Figure 3: the optimized active
//! fraction of each strategy over the (τ0, D) grid.
//!
//! Prints two ASCII surfaces plus the underlying CSV so the numbers can
//! be replotted. `--metrics json` additionally writes a `BENCH_fig3.json`
//! run manifest with per-cell solver telemetry (method, iterations,
//! wall time).
//!
//! `--grid RxC` shrinks the τ0 × D grid from the paper's 16x16 (CI
//! runs a small grid and diffs the manifest against the committed
//! baseline with `bench_diff`).
//!
//! ```text
//! cargo run --release -p bench --bin fig3 [-- --csv] [--metrics json] [--grid RxC]
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
    let (rows, cols) = match args.iter().position(|a| a == "--grid") {
        None => (16, 16),
        Some(pos) => {
            let parsed = args.get(pos + 1).and_then(|v| {
                let (r, c) = v.split_once('x')?;
                Some((r.parse::<usize>().ok()?, c.parse::<usize>().ok()?))
            });
            match parsed {
                Some((r, c)) if r >= 2 && c >= 2 => (r, c),
                _ => {
                    eprintln!("--grid expects RxC with R, C >= 2 (e.g. --grid 4x4)");
                    std::process::exit(2);
                }
            }
        }
    };
    let topology = Topology::chain(&rtsdf::blast::paper_pipeline());
    let (tau0s, ds) = RtParams::paper_grid(rows, cols);
    let sweep_config = SweepConfig::paper_blast();
    let result = sweep(&topology, &tau0s, &ds, &sweep_config, None).expect("paper grid is valid");

    if metrics {
        let path = emit_sweep_metrics("fig3", &result, &sweep_config).expect("metrics written");
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
                    bench::opt_fmt(c.enforced, 6),
                    bench::opt_fmt(c.monolithic, 6),
                ]
            })
            .collect();
        print!(
            "{}",
            bench::render_csv(&["tau0", "deadline", "enforced_af", "monolithic_af"], &rows)
        );
        return;
    }

    println!("Figure 3 — optimized active fractions over the (tau0, D) grid");
    println!("rows: tau0 (geometric 1..100); columns: D (linear 2e4..3.5e5)");
    println!();
    let labels: Vec<String> = tau0s.iter().map(|t| format!("tau0={t:7.2}")).collect();
    for (name, pick) in [("enforced waits", 0usize), ("monolithic", 1usize)] {
        let grid: Vec<Vec<Option<f64>>> = (0..tau0s.len())
            .map(|i| {
                (0..ds.len())
                    .map(|j| {
                        let c = result.cell(i, j);
                        if pick == 0 {
                            c.enforced
                        } else {
                            c.monolithic
                        }
                    })
                    .collect()
            })
            .collect();
        print!(
            "{}",
            bench::render_heatmap(&grid, 0.0, 1.0, &labels, &format!("{name} active fraction"))
        );
        println!();
    }

    // The paper's qualitative observations, quantified on this run:
    let e_col_drop = {
        // enforced: sensitivity to D at mid tau0.
        let i = tau0s.len() / 2;
        let first = result.cell(i, 0).enforced;
        let last = result.cell(i, ds.len() - 1).enforced;
        (first, last)
    };
    println!(
        "enforced at tau0={:.1}: af {} at D={:.0} -> {} at D={:.0} (scales with D)",
        tau0s[tau0s.len() / 2],
        bench::opt_fmt(e_col_drop.0, 3),
        ds[0],
        bench::opt_fmt(e_col_drop.1, 3),
        ds[ds.len() - 1]
    );
    let m_row_drop = {
        let j = ds.len() - 1;
        (
            result.cell(tau0s.len() / 2, j).monolithic,
            result.cell(tau0s.len() - 1, j).monolithic,
        )
    };
    println!(
        "monolithic at D={:.0}: af {} at tau0={:.1} -> {} at tau0={:.1} (scales with 1/tau0)",
        ds[ds.len() - 1],
        bench::opt_fmt(m_row_drop.0, 3),
        tau0s[tau0s.len() / 2],
        bench::opt_fmt(m_row_drop.1, 3),
        tau0s[tau0s.len() - 1]
    );
}
