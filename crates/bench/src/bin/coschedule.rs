//! Experiment E12 (extension) — co-scheduling multiple pipelines.
//!
//! The paper's §2.3 motivation for minimizing active fraction is that
//! yielded processor time "could be used, e.g., to support other
//! applications running on the same system". This binary makes that
//! concrete: how many real-time BLAST instances fit on one device as a
//! function of deadline slack, and a mixed-workload admission example.
//!
//! ```text
//! cargo run --release -p bench --bin coschedule
//! ```

use rtsdf::apps::{gamma, ids};
use rtsdf::core::coschedule::{admit, max_replicas, Workload};
use rtsdf::prelude::*;

fn main() {
    let blast = Topology::chain(&rtsdf::blast::paper_pipeline());
    let b = vec![1.0, 3.0, 9.0, 6.0];

    println!("replicas of the BLAST pipeline admissible on one device (tau0 = 30):");
    let mut rows = Vec::new();
    for d in [3e4, 5e4, 1e5, 2e5, 3.5e5] {
        let w = Workload {
            topology: &blast,
            params: RtParams::new(30.0, d).unwrap(),
            b: b.clone(),
        };
        match max_replicas(&w) {
            Ok(n) => rows.push(vec![format!("{d:.0}"), n.to_string()]),
            Err(e) => rows.push(vec![format!("{d:.0}"), format!("0 ({e})")]),
        }
    }
    print!(
        "{}",
        bench::render_table(&["deadline", "max replicas"], &rows)
    );
    println!("(deadline slack buys co-residency — the paper's motivation, quantified)");

    println!();
    println!("mixed workload: BLAST + gamma-ray telescope + IDS on one device");
    let gamma_p = gamma::synthesize(&gamma::GammaConfig::default(), 1).expect("gamma pipeline");
    let ids_p = ids::synthesize(&ids::IdsConfig::default(), 1).expect("ids pipeline");
    let mk_b = |p: &rtsdf::model::PipelineSpec| -> Vec<f64> {
        p.mean_gains()
            .iter()
            .map(|g| (g.ceil() + 1.0).max(2.0))
            .collect()
    };
    let workloads = [
        Workload {
            topology: &blast,
            params: RtParams::new(30.0, 2e5).unwrap(),
            b: b.clone(),
        },
        Workload {
            topology: &Topology::chain(&gamma_p),
            params: RtParams::new(40.0, 8e4).unwrap(),
            b: mk_b(&gamma_p),
        },
        Workload {
            topology: &Topology::chain(&ids_p),
            params: RtParams::new(60.0, 1e5).unwrap(),
            b: mk_b(&ids_p),
        },
    ];
    match admit(&workloads) {
        Ok(cs) => {
            for w in &cs.workloads {
                println!(
                    "  workload {}: utilization {:.4}, shares {:?}",
                    w.index,
                    w.schedule.utilization,
                    w.schedule
                        .shares
                        .iter()
                        .map(|s| (s * 1000.0).round() / 1000.0)
                        .collect::<Vec<_>>()
                );
            }
            println!(
                "  admitted: total utilization {:.4}, spare {:.4}",
                cs.total_utilization, cs.spare
            );
        }
        Err(e) => println!("  rejected: {e}"),
    }
}
