//! Frozen stressed runs of the enforced kernel.
//!
//! The chain's reference proptests compare the kernel with the scalar
//! oracle, but the oracle is a chain: it never reaches fan-out, fan-in,
//! routing-weight thinning or the empirical gain law, which is exactly
//! where a perturbed DAG run spends its time. This test pins those
//! paths. `tests/fixtures/stressed_runs_before_bulk_admission.json` holds
//! the result of every run below as the kernel produced it when stressed
//! arrivals were still admitted one at a time: the logalytics DAG, the
//! BLAST chain and a diamond with routing weights below one, crossed with
//! four fault intensities, three mitigation policies, both firing
//! disciplines, three hook sets and three seeds. Every counter, the
//! latency moments, the active fraction and the queue high-water marks
//! must still agree bit for bit, as must the obs report (by digest) and
//! the live registry's item totals.
//!
//! The fixture also stores each case's schedule, so a later change to
//! the wait solver does not invalidate it (escalation re-solves still
//! call the solver mid-run). To re-record it after a deliberate change
//! of the simulated model, run
//! `cargo test -p rtsdf --test stressed_admission -- --ignored`.

use rtsdf::apps::logalytics::{synthesize, LogalyticsConfig};
use rtsdf::core::EnforcedProblem;
use rtsdf::engine::obs::ObsSink;
use rtsdf::model::TopologyBuilder;
use rtsdf::prelude::*;
use rtsdf::sim::config::FiringDiscipline;
use rtsdf::sim::SimLiveMetrics;
use serde_json::Value;
use std::fmt::Write as _;

const FIXTURE: &str = "fixtures/stressed_runs_before_bulk_admission.json";
const INTENSITIES: [f64; 4] = [0.0, 0.5, 1.0, 1.6];
const SEEDS: u64 = 3;

/// One topology at one operating point.
struct Case {
    name: &'static str,
    topology: Topology,
    tau0: f64,
    deadline: f64,
    items: usize,
}

/// A diamond `a → {b, c} → d` whose two split edges are thinned (weights
/// 0.75 and 0.5), drawing from all four gain families: a 7-point
/// empirical law with a massless point, Bernoulli, censored Poisson and
/// a deterministic doubling.
fn diamond() -> Topology {
    let empirical = GainModel::Empirical {
        pmf: vec![
            (1, 0.3),
            (0, 0.1),
            (2, 0.25),
            (3, 0.15),
            (9, 0.0),
            (2, 0.1),
            (4, 0.1),
        ],
    };
    TopologyBuilder::new(32)
        .node("a", 60.0)
        .node("b", 140.0)
        .node("c", 90.0)
        .node("d", 220.0)
        .edge(0, 1, empirical, 0.75)
        .edge(0, 2, GainModel::Bernoulli { p: 0.6 }, 0.5)
        .edge(1, 3, GainModel::CensoredPoisson { mean: 1.5, cap: 12 }, 1.0)
        .edge(2, 3, GainModel::Deterministic { k: 2 }, 1.0)
        .build()
        .expect("valid diamond")
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "logalytics",
            topology: synthesize(&LogalyticsConfig::default(), 7).expect("valid synthesis"),
            tau0: 40.0,
            deadline: 1.2e5,
            items: 4_000,
        },
        Case {
            name: "blast",
            topology: Topology::chain(&rtsdf::blast::paper_pipeline()),
            tau0: 10.0,
            deadline: 1e5,
            items: 6_000,
        },
        Case {
            name: "diamond",
            topology: diamond(),
            tau0: 30.0,
            deadline: 2e4,
            items: 3_000,
        },
    ]
}

/// The schedule a case was recorded with, solved afresh.
fn solve(case: &Case) -> WaitSchedule {
    let params = RtParams::new(case.tau0, case.deadline).expect("positive operating point");
    let b: Vec<f64> = if case.name == "blast" {
        vec![1.0, 3.0, 9.0, 6.0]
    } else {
        EnforcedProblem::optimistic_backlog(&case.topology)
    };
    EnforcedProblem::new(&case.topology, params, b)
        .solve()
        .expect("the recorded operating point is feasible")
}

/// The schedule a case was recorded with, as the fixture stores it: the
/// simulator reads only the periods and backlog factors.
fn stored_schedule(fixture: &Value, name: &str) -> WaitSchedule {
    let lane = |key: &str| -> Vec<f64> {
        fixture["schedules"][name][key]
            .as_array()
            .expect("schedule lane")
            .iter()
            .map(|x| x.as_f64().expect("number"))
            .collect()
    };
    let periods = lane("periods");
    WaitSchedule {
        waits: vec![0.0; periods.len()],
        periods,
        active_fraction: 0.0,
        backlog_factors: lane("backlog_factors"),
        latency_bound: 0.0,
        telemetry: None,
    }
}

const POLICIES: [&str; 3] = ["none", "full", "shed_only"];
const DISCIPLINES: [&str; 2] = ["strict", "vacation"];
const HOOKS: [&str; 3] = ["none", "live", "obs"];

fn policy(name: &str) -> MitigationPolicy {
    match name {
        "none" => MitigationPolicy::none(),
        "full" => MitigationPolicy::full(),
        _ => MitigationPolicy::shed_only(),
    }
}

/// 64-bit FNV-1a of a string: a compact, exact digest of a serialized
/// obs report.
fn fnv1a(s: &str) -> String {
    let h = s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// Digest of a run's obs report in the layout the fixture was recorded
/// in. The report then also carried the sink's accumulator shapes and
/// an always-empty event ring; the shapes are now fixed constants and
/// the ring is gone, so those fields are written back verbatim around
/// the counters and per-stage summaries, which must match bit for bit.
fn obs_digest(obs: &ObsSink) -> String {
    let report = obs.report();
    let counters = serde_json::to_string(&report.counters).expect("serializes");
    let stages = serde_json::to_string(&report.stages).expect("serializes");
    fnv1a(&format!(
        concat!(
            r#"{{"config":{{"depth_bins":64,"depth_bins_max":1024.0,"occupancy_bins":32,"#,
            r#""sojourn_bins":64,"sojourn_max":1000000.0,"trace_capacity":0,"exact_cutoff":4096}},"#,
            r#""counters":{},"stages":{},"trace":[],"trace_dropped":0}}"#
        ),
        counters, stages
    ))
}

/// Every run of one case, as compact JSON records in a fixed order.
fn records(case: &Case, schedule: &WaitSchedule) -> Vec<String> {
    let t = &case.topology;
    let mut out = Vec::new();
    for intensity in INTENSITIES {
        let perturb = Perturbation::standard(1.0).at_intensity(intensity);
        for policy_name in POLICIES {
            let policy = policy(policy_name);
            for discipline in DISCIPLINES {
                for hooks_name in HOOKS {
                    for seed in 0..SEEDS {
                        let mut cfg = SimConfig::quick(case.tau0, seed, case.items);
                        if discipline == "vacation" {
                            cfg.discipline = FiringDiscipline::Vacation;
                        }
                        let faults = Some((&perturb, &policy));
                        let mut obs = ObsSink::new(t.len());
                        let live = SimLiveMetrics::new(t.len(), 1);
                        let handle = live.handle(0);
                        let hooks = Hooks {
                            obs: (hooks_name == "obs").then_some(&mut obs),
                            live: (hooks_name == "live").then_some(&handle),
                            faults,
                            ..Hooks::default()
                        };
                        let m = enforced::simulate(t, schedule, case.deadline, &cfg, hooks)
                            .expect("valid run");
                        drop(handle);
                        let extra = match hooks_name {
                            "obs" => format!(r#","obs":"{}""#, obs_digest(&obs)),
                            "live" => {
                                let (arrived, completed, shed) = live.item_counts();
                                format!(r#","live":[{arrived},{completed},{shed}]"#)
                            }
                            _ => String::new(),
                        };
                        let latency = serde_json::to_string(&m.latency).expect("serializes");
                        let depth = serde_json::to_string(&m.max_queue_depth).expect("ok");
                        let mut r = String::new();
                        write!(
                            r,
                            r#"{{"case":"{}","intensity":{intensity:?},"policy":"{policy_name}","#,
                            case.name
                        )
                        .unwrap();
                        write!(
                            r,
                            r#""discipline":"{discipline}","hooks":"{hooks_name}","seed":{seed},"#
                        )
                        .unwrap();
                        write!(
                            r,
                            r#""counters":[{},{},{},{},{},{}],"#,
                            m.items_arrived,
                            m.items_completed,
                            m.items_dropped,
                            m.deadline_misses,
                            m.items_shed,
                            m.resolves
                        )
                        .unwrap();
                        write!(
                            r,
                            r#""latency":{latency},"active_fraction":{:?},"max_queue_depth":{depth}{extra}}}"#,
                            m.active_fraction
                        )
                        .unwrap();
                        out.push(r);
                    }
                }
            }
        }
    }
    out
}

fn fixture() -> Value {
    serde_json::from_str(include_str!(
        "fixtures/stressed_runs_before_bulk_admission.json"
    ))
    .expect("fixture parses")
}

/// A record, parsed and re-serialized: the shortest round-trip float
/// form makes this canonical, so equal strings are equal bits.
fn canonical(record: &str) -> String {
    let v: Value = serde_json::from_str(record).expect("record parses");
    serde_json::to_string(&v).expect("serializes")
}

#[test]
fn stressed_runs_match_the_frozen_fixture_bit_for_bit() {
    let fixture = fixture();
    let frozen = fixture["runs"].as_array().expect("runs");
    let mut got = Vec::new();
    for case in cases() {
        let schedule = stored_schedule(&fixture, case.name);
        got.extend(records(&case, &schedule));
    }
    assert_eq!(got.len(), frozen.len(), "run count");
    let mut sheds = 0;
    let mut resolves = 0;
    for (now, before) in got.iter().zip(frozen) {
        assert_eq!(
            canonical(now),
            serde_json::to_string(before).expect("serializes")
        );
        sheds += before["counters"][4].as_u64().expect("shed counter");
        resolves += before["counters"][5].as_u64().expect("re-solve counter");
    }
    // The fixture exercises both mitigations, not just the plain path.
    assert!(sheds > 10_000, "{sheds} sheds");
    assert!(resolves > 50, "{resolves} re-solves");
}

/// Re-record the fixture from the current kernel.
#[test]
#[ignore = "writes the fixture; run only after a deliberate model change"]
fn record_the_fixture() {
    let mut json = String::from("{\n\"schedules\": {");
    let mut runs = Vec::new();
    for (i, case) in cases().iter().enumerate() {
        let schedule = solve(case);
        let lane = |xs: &[f64]| serde_json::to_string(xs).expect("serializes");
        write!(
            json,
            "{}\n  \"{}\": {{\"periods\": {}, \"backlog_factors\": {}}}",
            if i == 0 { "" } else { "," },
            case.name,
            lane(&schedule.periods),
            lane(&schedule.backlog_factors)
        )
        .unwrap();
        runs.extend(records(case, &schedule));
    }
    json.push_str("\n},\n\"runs\": [\n");
    json.push_str(&runs.join(",\n"));
    json.push_str("\n]\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests")
        .join(FIXTURE);
    std::fs::write(&path, json).expect("fixture written");
}
