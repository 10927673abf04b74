//! Experiment E11 (analysis) — the schedulability frontiers behind the
//! infeasible regions of Figures 3/4 and the paper's §6.1 remark that
//! deadlines below 2×10⁴ cycles admit no feasible realization.
//!
//! ```text
//! cargo run --release -p bench --bin frontier
//! ```

use rtsdf::core::frontier::{enforced_min_tau0, frontier, monolithic_min_tau0_asymptote};
use rtsdf::model::Topology;

fn main() {
    let p = Topology::chain(&rtsdf::blast::paper_pipeline());
    let b = [1.0, 3.0, 9.0, 6.0];

    println!("arrival-rate limits (smallest sustainable tau0):");
    println!(
        "  enforced waits:  {:.3} cycles/item (head stability x̂_0/v)",
        enforced_min_tau0(&p)
    );
    println!(
        "  monolithic:      {:.3} cycles/item (asymptote Σ G_i·t_i / v; finite M slightly worse)",
        monolithic_min_tau0_asymptote(&p)
    );
    println!();

    let tau0s: Vec<f64> = [1.0, 2.0, 3.0, 5.0, 8.0, 10.0, 15.0, 25.0, 50.0, 100.0].to_vec();
    let pts = frontier(&p, &b, 1.0, 1.0, &tau0s);
    println!("minimum feasible deadline per strategy (cycles):");
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|pt| {
            vec![
                format!("{:.0}", pt.tau0),
                pt.enforced
                    .map_or("unsustainable".into(), |d| format!("{d:.0}")),
                pt.monolithic
                    .map_or("unsustainable".into(), |d| format!("{d:.0}")),
            ]
        })
        .collect();
    print!(
        "{}",
        bench::render_table(&["tau0", "enforced D_min", "monolithic D_min"], &rows)
    );
    println!();
    println!(
        "paper §6.1: \"Values of D below 2x10^4 cycles resulted in no feasible\n\
         (that is, substantially miss-free) realizations of the pipeline by either\n\
         approach\" — the enforced frontier with the paper's b sits at {:.0} cycles,\n\
         and the monolithic frontier rises linearly with tau0 (accumulating a block\n\
         costs b·M·tau0).",
        pts.iter().find_map(|p| p.enforced).unwrap_or(f64::NAN)
    );
}
