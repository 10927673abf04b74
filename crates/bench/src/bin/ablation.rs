//! Experiment E8 — ablations over the design choices DESIGN.md calls
//! out: backlog factors, the monolithic (b, S) safety knobs, the SIMD
//! width, and the pipeline depth dependence of the asymptotic
//! advantage.
//!
//! ```text
//! cargo run --release -p bench --bin ablation
//! ```

use rtsdf::model::analysis;
use rtsdf::prelude::*;

fn blast() -> PipelineSpec {
    rtsdf::blast::paper_pipeline()
}

fn blast_with_width(v: u32) -> PipelineSpec {
    let p = blast();
    let mut b = PipelineSpecBuilder::new(v);
    for n in p.nodes() {
        b = b.stage(n.name.clone(), n.service_time, n.gain.clone());
    }
    b.build().unwrap()
}

fn main() {
    let params = RtParams::new(10.0, 1e5).unwrap();

    // --- A1: sensitivity to the backlog factors -----------------------
    println!("A1 — enforced active fraction vs backlog factors (tau0=10, D=1e5):");
    let mut rows = Vec::new();
    for (label, b) in [
        ("optimistic ceil(g)", vec![1.0, 2.0, 1.0, 1.0]),
        ("paper [1,3,9,6]", vec![1.0, 3.0, 9.0, 6.0]),
        ("double paper", vec![2.0, 6.0, 18.0, 12.0]),
        ("uniform 8", vec![8.0, 8.0, 8.0, 8.0]),
    ] {
        let p = blast();
        let af = EnforcedProblem::new(&Topology::chain(&p), params, b.clone())
            .solve()
            .map(|s| s.active_fraction);
        rows.push(vec![
            label.to_string(),
            format!("{b:?}"),
            af.map_or("infeasible".into(), |a| format!("{a:.4}")),
        ]);
    }
    print!(
        "{}",
        bench::render_table(&["label", "b", "active fraction"], &rows)
    );
    println!();

    // --- A2: monolithic safety knobs ----------------------------------
    println!("A2 — monolithic (b, S) vs active fraction (tau0=30, D=1e5):");
    let params_m = RtParams::new(30.0, 1e5).unwrap();
    let mut rows = Vec::new();
    for (b, s) in [(1.0, 1.0), (1.0, 1.5), (1.0, 2.0), (2.0, 1.0), (3.0, 1.0)] {
        let p = blast();
        let r = MonolithicProblem::new(&p, params_m, b, s).solve_fast();
        rows.push(vec![
            format!("b={b}, S={s}"),
            r.as_ref().map_or("-".into(), |m| m.block_size.to_string()),
            r.map_or("infeasible".into(), |m| format!("{:.4}", m.active_fraction)),
        ]);
    }
    print!(
        "{}",
        bench::render_table(&["knobs", "M*", "active fraction"], &rows)
    );
    println!();

    // --- A3: SIMD width ------------------------------------------------
    println!("A3 — both strategies vs SIMD width (tau0=10, D=1e5):");
    let mut rows = Vec::new();
    for v in [32, 64, 128, 256, 512] {
        let p = blast_with_width(v);
        let e = EnforcedProblem::new(&Topology::chain(&p), params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .ok()
            .map(|s| s.active_fraction);
        let m = MonolithicProblem::new(&p, params, 1.0, 1.0)
            .solve_fast()
            .ok()
            .map(|s| s.active_fraction);
        rows.push(vec![
            v.to_string(),
            bench::opt_fmt(e, 4),
            bench::opt_fmt(m, 4),
        ]);
    }
    print!(
        "{}",
        bench::render_table(&["v", "enforced", "monolithic"], &rows)
    );
    println!("(wider vectors help both, but the enforced advantage persists)");
    println!();

    // --- A4: pipeline depth and the N-fold asymptote -------------------
    println!("A4 — asymptotic monolithic/enforced ratio equals the stage count:");
    let mut rows = Vec::new();
    for n in [2usize, 3, 4, 6, 8] {
        let mut b = PipelineSpecBuilder::new(128);
        for i in 0..n {
            b = b.stage(
                format!("s{i}"),
                200.0 + 100.0 * i as f64,
                GainModel::Bernoulli { p: 0.8 },
            );
        }
        let t = Topology::chain(&b.build().unwrap());
        let pr = RtParams::new(10.0, 1e9).unwrap();
        let ratio = analysis::monolithic_limit_active_fraction(&t, &pr)
            / analysis::enforced_limit_active_fraction(&t, &pr);
        rows.push(vec![n.to_string(), format!("{ratio:.2}")]);
    }
    print!(
        "{}",
        bench::render_table(&["stages N", "limit ratio"], &rows)
    );
}
