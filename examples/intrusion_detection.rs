//! Network intrusion detection under bursty traffic.
//!
//! IDS sensors face the worst of both worlds: tight per-packet latency
//! budgets (the forwarding decision cannot wait) and heavy-tailed,
//! *bursty* arrivals. This example synthesizes a Snort-like cascade,
//! schedules it both ways, and shows how burstiness interacts with the
//! monolithic strategy's worst-case scale parameter `S` — the paper's
//! §5 knob for sustained non-average behaviour.
//!
//! Run with:
//! ```text
//! cargo run --release -p rtsdf --example intrusion_detection
//! ```

use rtsdf::apps::ids::{synthesize, IdsConfig};
use rtsdf::model::ArrivalProcess;
use rtsdf::prelude::*;

fn main() {
    let config = IdsConfig::default();
    let pipeline = synthesize(&config, 7).expect("valid pipeline");
    println!(
        "IDS cascade (gains measured over {} packets):",
        config.packets
    );
    for node in pipeline.nodes() {
        println!(
            "  {:<14} t = {:>6.0}  g = {:.4}",
            node.name,
            node.service_time,
            node.mean_gain()
        );
    }

    // Packets at one per 60 cycles on average, 80k-cycle verdict budget.
    let params = RtParams::new(60.0, 8e4).unwrap();
    let topology = Topology::chain(&pipeline);
    let b = EnforcedProblem::optimistic_backlog(&topology);
    let enforced = EnforcedProblem::new(&topology, params, b)
        .solve()
        .expect("feasible");
    println!();
    println!(
        "enforced waits: active fraction {:.4} (waits {:?})",
        enforced.active_fraction,
        enforced.waits.iter().map(|w| w.round()).collect::<Vec<_>>()
    );

    // The monolithic strategy under increasing worst-case scale S: the
    // knob that prices in sustained bursts.
    println!();
    println!("monolithic baseline vs. worst-case scale S:");
    for s in [1.0, 1.5, 2.0, 3.0] {
        match MonolithicProblem::new(&pipeline, params, 1.0, s).solve_fast() {
            Ok(m) => println!(
                "  S = {s:3.1}: M = {:>5}, active fraction {:.4}",
                m.block_size, m.active_fraction
            ),
            Err(_) => println!("  S = {s:3.1}: infeasible (deadline cannot absorb the margin)"),
        }
    }

    // Simulate both under *bursty* arrivals with the same long-run rate
    // as the design point. The enforced-waits design assumed periodic
    // arrivals — burstiness is exactly the stress its b-factors must
    // absorb.
    println!();
    println!("simulation under bursty arrivals (same mean rate):");
    let bursty = ArrivalProcess::Bursty {
        tau_on: 20.0,
        on_mean: 2_000.0,
        off_mean: 4_000.0,
    };
    println!(
        "  burst structure: {:.0}-cycle spacing inside bursts, mean rate 1/{:.0}",
        20.0,
        bursty.mean_interarrival()
    );
    let mut cfg = SimConfig::quick(params.tau0, 3, 20_000);
    cfg.arrivals = bursty;

    let m_enf = enforced::simulate(
        &topology,
        &enforced,
        params.deadline,
        &cfg,
        Hooks::default(),
    )
    .expect("the schedule fits the pipeline");
    println!(
        "  enforced waits: active {:.4}, miss rate {:.3}%, max backlog (vectors) {:?}",
        m_enf.active_fraction,
        100.0 * m_enf.miss_rate(),
        m_enf
            .max_backlog_vectors
            .iter()
            .map(|b| (b * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );

    if let Ok(mono) = MonolithicProblem::new(&pipeline, params, 1.0, 1.0).solve_fast() {
        let m_mono =
            monolithic::simulate(&topology, &mono, params.deadline, &cfg, Hooks::default())
                .expect("the schedule fits the pipeline");
        println!(
            "  monolithic:     active {:.4}, miss rate {:.3}%",
            m_mono.active_fraction,
            100.0 * m_mono.miss_rate()
        );
        println!();
        println!(
            "verdict: under bursts, enforced waits held {} of the processor vs monolithic's {}",
            format_args!("{:.1}%", 100.0 * m_enf.active_fraction),
            format_args!("{:.1}%", 100.0 * m_mono.active_fraction),
        );
    }
}
