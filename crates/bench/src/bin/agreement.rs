//! Experiment E6 — optimizer-vs-simulator agreement (§6.2's "closely
//! matched" claim, quantified).
//!
//! ```text
//! cargo run --release -p bench --bin agreement
//! ```

use rtsdf::prelude::*;
use rtsdf::sim::validate::{enforced_agreement, monolithic_agreement};

fn main() {
    let blast = Topology::chain(&rtsdf::blast::paper_pipeline());
    let enforced_points: Vec<RtParams> = [(5.0, 5e4), (10.0, 1e5), (30.0, 2e5), (80.0, 3e5)]
        .iter()
        .map(|&(t, d)| RtParams::new(t, d).unwrap())
        .collect();
    // Monolithic blocks hold thousands of items at fast arrival rates;
    // use points whose optimal M is well under the stream length.
    let mono_points: Vec<RtParams> = [(30.0, 1e5), (60.0, 2e5), (80.0, 3e5), (100.0, 3.5e5)]
        .iter()
        .map(|&(t, d)| RtParams::new(t, d).unwrap())
        .collect();

    println!("optimizer-predicted vs simulator-measured active fraction");
    println!();
    for report in [
        enforced_agreement(&blast, &enforced_points, &[1.0, 3.0, 9.0, 6.0], 20_000, 7),
        monolithic_agreement(&blast, &mono_points, 1.0, 1.0, 30_000, 7),
    ] {
        println!("{}:", report.strategy);
        let rows: Vec<Vec<String>> = report
            .cells
            .iter()
            .map(|c| {
                vec![
                    format!("{:.1}", c.tau0),
                    format!("{:.0}", c.deadline),
                    format!("{:.4}", c.predicted),
                    format!("{:.4}", c.measured),
                    format!("{:.2}%", 100.0 * c.rel_error()),
                ]
            })
            .collect();
        print!(
            "{}",
            bench::render_table(&["tau0", "D", "predicted", "measured", "rel err"], &rows)
        );
        println!(
            "worst relative error: {:.2}%",
            100.0 * report.worst_rel_error()
        );
        println!();
    }
}
