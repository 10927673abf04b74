//! Simulation of the monolithic batching strategy.
//!
//! Items accumulate into blocks of `M`; when a block is full (and the
//! pipeline is free) the whole block runs through all stages back to
//! back. Within a block, stage `i` needs `⌈n_i / v⌉` firings of `t_i`
//! cycles each, where `n_i` is the *actual* (sampled) number of items
//! reaching stage `i` — the simulation realizes the stochastic gains the
//! analysis only averages. Every item in a block completes when the
//! block finishes; the stream's final partial block is flushed at the
//! end.

use crate::config::SimConfig;
use crate::faults::{FaultState, FAULT_ARRIVAL_STREAM};
use crate::hooks::{Hooks, SimError};
use crate::metrics::SimMetrics;
use dataflow_model::gain::{draw53, unit_threshold};
use dataflow_model::{GainSampler, Topology};
use des::rng::RngStream;
use des::stats::MomentAccumulator;
use obs_trace::{ItemFate, ItemVisit, Track};
use rtsdf_core::MonolithicSchedule;
use simd_device::OccupancyStats;

/// Simulate one run of the monolithic `schedule` on `topology`, with the
/// optional layers in `hooks`.
///
/// Within a block, nodes execute in topological order; each node's item
/// count is the sum over its in-edges of the upstream counts after the
/// edge's sampled gain and routing-weight thinning. On
/// [`Topology::chain`] this is bit-identical to the frozen chain
/// reference.
///
/// Under [`Hooks::faults`] the run takes arrival jitter and bursts,
/// per-block service inflation, tail spikes and stalls, and gain drift.
/// Only the perturbation is read: this strategy has no admission or
/// wait re-solve hook, so no mitigation policy applies — it is the
/// unmanaged baseline the robustness report compares the enforced-waits
/// mitigations against.
///
/// # Errors
/// [`SimError::ObsSinkLength`] if the obs sink is sized for another
/// topology, and [`SimError::InvalidPerturbation`] if the perturbation
/// fails [`Perturbation::validate`](dataflow_model::Perturbation::validate).
pub fn simulate(
    topology: &Topology,
    schedule: &MonolithicSchedule,
    deadline: f64,
    config: &SimConfig,
    hooks: Hooks<'_>,
) -> Result<SimMetrics, SimError> {
    hooks.check(topology.len())?;
    let samplers = hooks.samplers(topology)?;
    Ok(simulate_monolithic_full(
        topology, schedule, deadline, config, &samplers, hooks,
    ))
}

/// Full-generality core behind [`simulate`], which has checked its
/// input: aggregate observability (`obs`), causal span tracing
/// (`spans`), fault injection (`stress_spec`), and live metrics (`live`)
/// are independent branch-on-`Option` layers.
fn simulate_monolithic_full(
    topology: &Topology,
    schedule: &MonolithicSchedule,
    deadline: f64,
    config: &SimConfig,
    samplers: &[GainSampler],
    Hooks {
        mut obs,
        mut spans,
        live,
        faults,
    }: Hooks<'_>,
) -> SimMetrics {
    let stress_spec = faults.map(|(perturb, _)| perturb);
    let n = topology.len();
    let v = topology.vector_width();
    let m = schedule.block_size.max(1) as usize;
    let service: Vec<f64> = topology.service_times();
    let src = topology.source();

    let master = RngStream::new(config.seed);
    let mut arrival_rng = master.substream(0);
    // One gain substream per edge (chain edge `i` keeps the per-stage
    // label `1 + i` — see the enforced simulator).
    let mut gain_rngs: Vec<RngStream> = (0..topology.edges().len())
        .map(|e| master.substream(1 + e as u64))
        .collect();

    let mut arrivals = config
        .arrivals
        .generate(config.stream_length, &mut arrival_rng);
    // Fault-injection layer: arrival faults perturb the precomputed
    // times, gain drift swaps in drifted models, and service faults are
    // drawn per block-stage — all from dedicated substreams, so
    // intensity 0 reproduces the unperturbed run bit for bit.
    let mut faults: Option<FaultState> = stress_spec.map(|perturb| {
        let mut fault_rng = master.substream(FAULT_ARRIVAL_STREAM);
        perturb.perturb_arrivals(
            &mut arrivals,
            config.arrivals.mean_interarrival(),
            &mut fault_rng,
        );
        FaultState::new(perturb, &master, n)
    });
    let last_arrival = arrivals.last().copied().unwrap_or(0.0);
    let safety_horizon = last_arrival + config.drain_factor * deadline;

    let mut occupancy: Vec<OccupancyStats> = (0..n).map(|_| OccupancyStats::new()).collect();
    let mut latency = MomentAccumulator::new();
    let mut misses = 0u64;
    let mut completed = 0u64;
    let mut busy_total = 0.0;
    let mut pipeline_free_at = 0.0_f64;
    let mut horizon = 0.0_f64;
    let mut truncated = false;
    let mut max_waiting = 0u64;
    let mut processed_before = 0usize;
    // Reused batch buffers: one sojourn/latency sample per block item.
    let mut soj_buf: Vec<f64> = Vec::with_capacity(m);
    let mut lat_buf: Vec<f64> = Vec::with_capacity(m);
    // Per-node item counts within the current block, reset per block.
    let mut counts: Vec<u64> = vec![0; n];

    for block in arrivals.chunks(m) {
        let ready = *block.last().expect("chunks are nonempty");
        let start = ready.max(pipeline_free_at);
        if start > safety_horizon {
            truncated = true;
            break;
        }
        // Queue depth just before this block starts: arrived but not yet
        // processed items (this block's own plus any backlog behind a
        // busy pipeline).
        let arrived = arrivals.partition_point(|&t| t <= start);
        max_waiting = max_waiting.max((arrived - processed_before) as u64);
        if let Some(l) = live {
            // Block granularity: the whole block "arrives" when it is
            // ready to run; only the head stage has a queue.
            if l.on_arrivals(block.len() as u64) {
                l.tick(&[max_waiting]);
            }
        }
        if let Some(sink) = obs.as_deref_mut() {
            sink.on_event();
            sink.on_enqueue(src, block.len() as u64, arrived - processed_before);
            // Sojourn at the source node: wait from arrival to block start.
            soj_buf.clear();
            soj_buf.extend(block.iter().map(|&arr| start - arr));
            sink.on_sojourn_batch(src, &soj_buf);
        }

        // Push the block through all nodes in topological order, sampling
        // actual per-edge gains. A node nothing reached does not fire
        // (and draws nothing) — for a chain this reproduces the old
        // early-exit on a zeroed stage exactly.
        counts.iter_mut().for_each(|c| *c = 0);
        counts[src] = block.len() as u64;
        let mut busy = 0.0;
        for &i in topology.topo_order() {
            let count = counts[i];
            if count == 0 {
                continue;
            }
            let firings = count.div_ceil(v as u64);
            let stage_busy = match faults.as_mut() {
                Some(f) => f.block_busy(i, firings, service[i]),
                None => firings as f64 * service[i],
            };
            if let Some(sink) = spans.as_deref_mut() {
                sink.span_detail(
                    Track::stage(i),
                    "block",
                    "firing",
                    format!("items={count} firings={firings}"),
                    start + busy,
                    start + busy + stage_busy,
                );
            }
            busy += stage_busy;
            let full = count / v as u64;
            for _ in 0..full {
                occupancy[i].record(v, v);
            }
            let rem = (count % v as u64) as u32;
            if rem > 0 {
                occupancy[i].record(rem, v);
            }
            if let Some(sink) = obs.as_deref_mut() {
                for _ in 0..full {
                    sink.on_fire(i, v as usize, v as usize);
                }
                if rem > 0 {
                    sink.on_fire(i, rem as usize, v as usize);
                }
            }
            for &e in topology.out_edges(i) {
                // Draw-identical to the per-item loop (see
                // `GainSampler::sample_sum`), but deterministic models
                // pay zero RNG draws.
                let out = samplers[e].sample_sum(&mut gain_rngs[e], count);
                let edge = topology.edge(e);
                // Routing weight below 1: Bernoulli-thin each output
                // from the same edge substream (never taken on chains).
                let kept = if edge.weight < 1.0 {
                    let threshold = unit_threshold(edge.weight);
                    (0..out)
                        .map(|_| u64::from(draw53(&mut gain_rngs[e]) < threshold))
                        .sum()
                } else {
                    out
                };
                counts[edge.dst] += kept;
            }
        }
        let finish = start + busy;
        if let Some(sink) = spans.as_deref_mut() {
            // One visit per item at the head stage: block-fill wait is
            // the structural (enforced) delay, waiting for a busy
            // pipeline is queueing, and the block's execution is
            // service. The three partition `finish − arrival` exactly.
            for (j, &arr) in block.iter().enumerate() {
                let origin = (processed_before + j) as u64;
                sink.visit(ItemVisit {
                    origin,
                    stage: src as u32,
                    enqueued: arr,
                    eligible: ready,
                    consumed: start,
                    done: finish,
                });
                sink.fate(ItemFate {
                    origin,
                    arrival: arr,
                    completion: Some(finish),
                });
            }
        }
        busy_total += busy;
        pipeline_free_at = finish;
        horizon = horizon.max(finish);
        processed_before += block.len();

        // Latency accounting for the whole block in one pass; the
        // chunked moments depend only on the sample sequence, which is
        // the per-item loop's, so they stay bit-identical to it.
        lat_buf.clear();
        lat_buf.extend(block.iter().map(|&arr| finish - arr));
        latency.extend_from_slice(&lat_buf);
        completed += block.len() as u64;
        misses += lat_buf
            .iter()
            .map(|&lat| u64::from(lat > deadline))
            .sum::<u64>();
        if let Some(sink) = obs.as_deref_mut() {
            sink.on_completions(block.len() as u64);
        }
        if let Some(l) = live {
            l.on_completions(block.len() as u64);
        }
    }
    let mut dropped = 0u64;
    if truncated {
        dropped = (arrivals.len() - processed_before) as u64;
        misses += dropped;
        horizon = safety_horizon;
        if let Some(sink) = obs {
            for _ in 0..dropped {
                sink.on_drop();
            }
        }
        if let Some(sink) = spans {
            for (j, &arr) in arrivals[processed_before..].iter().enumerate() {
                sink.fate(ItemFate {
                    origin: (processed_before + j) as u64,
                    arrival: arr,
                    completion: None,
                });
            }
        }
    }
    // Live metrics run-end flush: drops and the closing tick.
    if let Some(l) = live {
        l.on_drops(dropped);
        l.tick(&[max_waiting]);
    }
    let horizon = horizon.max(1.0);

    // The monolithic application is a single schedulable unit: its
    // active fraction is total busy time over the horizon.
    let active_fraction = busy_total / horizon;
    SimMetrics {
        items_arrived: arrivals.len() as u64,
        items_completed: completed,
        items_dropped: dropped,
        deadline_misses: misses,
        items_shed: 0,
        resolves: 0,
        active_fraction,
        // No empty firings exist in this strategy: a stage with zero
        // items simply does not fire.
        active_fraction_nonempty: active_fraction,
        latency: latency.finish(),
        max_queue_depth: {
            let mut d = vec![0u64; n];
            d[src] = max_waiting;
            d
        },
        max_backlog_vectors: {
            let mut b = vec![0.0; n];
            b[src] = max_waiting as f64 / v as f64;
            b
        },
        occupancy,
        horizon,
        truncated,
        obs: None,
        blame: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow_model::{GainModel, PipelineSpec, PipelineSpecBuilder, RtParams};
    use des::obs::ObsSink;
    use obs_trace::{analyze, ForensicsConfig, SpanSink, TraceConfig, TraceLog};
    use rtsdf_core::MonolithicProblem;

    fn blast() -> PipelineSpec {
        PipelineSpecBuilder::new(128)
            .stage("s0", 287.0, GainModel::Bernoulli { p: 0.379 })
            .stage(
                "s1",
                955.0,
                GainModel::CensoredPoisson {
                    mean: 1.920,
                    cap: 16,
                },
            )
            .stage("s2", 402.0, GainModel::Bernoulli { p: 0.0332 })
            .stage("s3", 2753.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap()
    }

    /// A chain run with no hooks.
    fn run_chain(
        p: &PipelineSpec,
        sched: &MonolithicSchedule,
        d: f64,
        cfg: &SimConfig,
    ) -> SimMetrics {
        simulate(&Topology::chain(p), sched, d, cfg, Hooks::default()).unwrap()
    }

    /// A chain run with span tracing, and its finished trace.
    fn run_traced(
        p: &PipelineSpec,
        sched: &MonolithicSchedule,
        d: f64,
        cfg: &SimConfig,
    ) -> (SimMetrics, TraceLog) {
        let mut sink = SpanSink::new(TraceConfig::default());
        let hooks = Hooks {
            spans: Some(&mut sink),
            ..Hooks::default()
        };
        let m = simulate(&Topology::chain(p), sched, d, cfg, hooks).unwrap();
        (m, sink.finish())
    }

    fn schedule(p: &PipelineSpec, tau0: f64, d: f64) -> MonolithicSchedule {
        MonolithicProblem::new(p, RtParams::new(tau0, d).unwrap(), 1.0, 1.0)
            .solve()
            .unwrap()
    }

    #[test]
    fn observed_run_matches_plain_and_attaches_report() {
        let p = blast();
        let sched = schedule(&p, 50.0, 1e5);
        let cfg = SimConfig::quick(50.0, 3, 2_000);
        let plain = run_chain(&p, &sched, 1e5, &cfg);
        let mut sink = ObsSink::new(p.len());
        let hooks = Hooks {
            obs: Some(&mut sink),
            ..Hooks::default()
        };
        let observed = simulate(&Topology::chain(&p), &sched, 1e5, &cfg, hooks).unwrap();
        assert_eq!(plain.items_completed, observed.items_completed);
        assert_eq!(plain.deadline_misses, observed.deadline_misses);
        assert_eq!(plain.active_fraction, observed.active_fraction);
        let report = sink.report();
        assert_eq!(report.stages.len(), p.len());
        assert_eq!(report.counters.completions, observed.items_completed);
        assert_eq!(report.counters.items_enqueued, observed.items_arrived);
        assert!(report.counters.firings > 0);
        // No empty firings exist in this strategy.
        assert_eq!(report.counters.empty_firings, 0);
        assert_eq!(report.stages[0].sojourn.count, observed.items_completed);
    }

    #[test]
    fn traced_run_matches_plain_and_explains_latency() {
        let p = blast();
        let sched = schedule(&p, 50.0, 1e5);
        let cfg = SimConfig::quick(50.0, 3, 2_000);
        let plain = run_chain(&p, &sched, 1e5, &cfg);
        let (traced, log) = run_traced(&p, &sched, 1e5, &cfg);
        assert_eq!(plain.items_completed, traced.items_completed);
        assert_eq!(plain.deadline_misses, traced.deadline_misses);
        assert_eq!(plain.active_fraction, traced.active_fraction);
        assert_eq!(log.fates.len() as u64, traced.items_arrived);
        // Exactly one head-stage visit per completed item, and its
        // sojourn equals the item's end-to-end latency.
        assert_eq!(log.visits.len() as u64, traced.items_completed);
        for v in &log.visits {
            let fate = &log.fates[v.origin as usize];
            assert_eq!(fate.origin, v.origin);
            assert_eq!(v.enqueued, fate.arrival);
            assert_eq!(Some(v.done), fate.completion);
        }
        let blame = analyze(&log, 1e5, &ForensicsConfig::default());
        assert_eq!(blame.completed_items, traced.items_completed);
    }

    #[test]
    fn traced_unstable_run_blames_queueing() {
        let p = blast();
        // Same setup as `unstable_block_size_truncates`: backlog grows,
        // items miss, and the forensics must attribute the overrun.
        let sched = MonolithicSchedule {
            block_size: 8,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let mut cfg = SimConfig::quick(1.0, 1, 20_000);
        cfg.drain_factor = 3.0;
        let (m, log) = run_traced(&p, &sched, 1e4, &cfg);
        assert!(m.truncated);
        let blame = analyze(&log, 1e4, &ForensicsConfig::default());
        assert_eq!(blame.dropped_items, m.items_dropped);
        assert!(blame.analyzed_items > 0);
        assert!((blame.accounted_fraction() - 1.0).abs() < 1e-9);
        // A backlogged pipeline: queueing (waiting for the pipeline to
        // free up) must dominate the blame over block-fill waiting.
        let queue: f64 = blame.stages.iter().map(|s| s.queue_wait).sum();
        let enforced: f64 = blame.stages.iter().map(|s| s.enforced_wait).sum();
        assert!(
            queue > enforced,
            "queueing {queue} should dominate block-fill {enforced}"
        );
        assert_eq!(
            log.fates.iter().filter(|f| f.completion.is_none()).count() as u64,
            m.items_dropped
        );
    }

    #[test]
    fn paper_observation_no_misses_with_b1_s1() {
        // §6.2: "For the monolithic strategy, we observed no deadline
        // misses in simulation even with b = 1, S = 1."
        let p = blast();
        for seed in 0..5 {
            let sched = schedule(&p, 50.0, 1e5);
            let cfg = SimConfig::quick(50.0, seed, 10_000);
            let m = run_chain(&p, &sched, 1e5, &cfg);
            assert!(!m.truncated);
            assert_eq!(m.items_completed, 10_000);
            assert!(
                m.miss_free(),
                "seed {seed}: {} misses at M={}",
                m.deadline_misses,
                sched.block_size
            );
        }
    }

    #[test]
    fn measured_active_fraction_matches_prediction() {
        let p = blast();
        let sched = schedule(&p, 50.0, 1e5);
        let cfg = SimConfig::quick(50.0, 11, 20_000);
        let m = run_chain(&p, &sched, 1e5, &cfg);
        let rel = (m.active_fraction - sched.active_fraction).abs() / sched.active_fraction;
        assert!(
            rel < 0.08,
            "measured {} vs predicted {} (rel {rel}, M={})",
            m.active_fraction,
            sched.active_fraction,
            sched.block_size
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = blast();
        let sched = schedule(&p, 50.0, 1e5);
        let cfg = SimConfig::quick(50.0, 4, 5_000);
        let a = run_chain(&p, &sched, 1e5, &cfg);
        let b = run_chain(&p, &sched, 1e5, &cfg);
        assert_eq!(a.active_fraction, b.active_fraction);
        assert_eq!(a.deadline_misses, b.deadline_misses);
    }

    #[test]
    fn partial_final_block_is_flushed() {
        let p = blast();
        let sched = MonolithicSchedule {
            block_size: 64,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(50.0, 1, 130); // 2 full blocks + 2 items
        let m = run_chain(&p, &sched, 1e9, &cfg);
        assert_eq!(m.items_completed, 130);
    }

    #[test]
    fn block_smaller_than_stream() {
        let p = blast();
        let sched = MonolithicSchedule {
            block_size: 1_000_000,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(50.0, 1, 100);
        let m = run_chain(&p, &sched, 1e9, &cfg);
        assert_eq!(m.items_completed, 100);
        assert!(m.miss_free());
    }

    #[test]
    fn unstable_block_size_truncates() {
        let p = blast();
        // M = 8 at τ0 = 1: each block takes ≥ 4397 cycles but accumulates
        // in 8 → backlog grows without bound.
        let sched = MonolithicSchedule {
            block_size: 8,
            block_time: 0.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let mut cfg = SimConfig::quick(1.0, 1, 20_000);
        cfg.drain_factor = 3.0;
        let m = run_chain(&p, &sched, 1e4, &cfg);
        assert!(m.truncated);
        assert!(m.deadline_misses > 0);
    }

    #[test]
    fn zero_length_stream_is_a_clean_noop() {
        let p = blast();
        let sched = schedule(&p, 50.0, 1e5);
        let cfg = SimConfig::quick(50.0, 1, 0);
        let m = run_chain(&p, &sched, 1e5, &cfg);
        assert_eq!(m.items_arrived, 0);
        assert_eq!(m.items_completed, 0);
        assert!(m.miss_free());
    }

    #[test]
    fn occupancy_full_for_aligned_blocks() {
        let p = PipelineSpecBuilder::new(16)
            .stage("only", 10.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let sched = MonolithicSchedule {
            block_size: 32,
            block_time: 20.0,
            active_fraction: 0.0,
            latency_bound: 0.0,
            b: 1.0,
            s: 1.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(100.0, 1, 64);
        let m = run_chain(&p, &sched, 1e9, &cfg);
        // 64 items in 2 blocks of 32 = 4 firings, all full.
        assert_eq!(m.occupancy[0].firings(), 4);
        assert_eq!(m.occupancy[0].full_fraction(), 1.0);
    }
}
