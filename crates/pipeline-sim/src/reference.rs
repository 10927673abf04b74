//! Frozen scalar reference simulators — the bit-identity oracle.
//!
//! These are the pre-SoA, one-item-at-a-time implementations of both
//! simulators, kept verbatim (minus the span-tracing layer) as the
//! ground truth the vectorized hot paths in [`crate::enforced`] and
//! [`crate::monolithic`] are property-tested against: same pipeline,
//! schedule, seed, and perturbation must produce bit-identical
//! [`SimMetrics`] and [`des::obs::ObsReport`].
//!
//! **Do not optimize this module.** Its entire value is that it stays
//! the slow, obviously-correct scalar semantics: events popped one at a
//! time from a fully scheduled calendar, per-item `VecDeque` queues,
//! one gain draw per consumed item, one sojourn sample per hook call.
//! The two pieces it shares with the kernels are the run-start
//! [`GainSampler`]s and the chunked latency moments
//! ([`MomentAccumulator`]): both are defined by the draw and sample
//! sequences alone, which the per-item loops here produce in order.

use crate::config::{FiringDiscipline, SimConfig};
use crate::faults::{FaultState, MitigationPolicy, FAULT_ARRIVAL_STREAM};
use crate::metrics::SimMetrics;
use dataflow_model::{GainSampler, Perturbation, PipelineSpec, RtParams, Topology};
use des::calendar::Calendar;
use des::clock::SimTime;
use des::obs::ObsSink;
use des::rng::RngStream;
use des::stats::MomentAccumulator;
use simd_device::{ActiveTimeLedger, OccupancyStats};
use std::collections::VecDeque;

/// One gain sampler per stage, built once at run start after gain drift:
/// stage `i`'s law is edge `i`'s in the chain topology (the last stage
/// draws nothing).
fn stage_samplers(pipeline: &PipelineSpec, drift: Option<&Perturbation>) -> Vec<GainSampler> {
    Topology::chain(pipeline)
        .samplers(drift)
        .expect("a built pipeline's gain laws are valid")
}

/// Event classes, in intra-timestamp processing order.
#[derive(Debug, Clone)]
enum Ev {
    Arrival { origin: u64 },
    Deliver { node: usize, items: Vec<Item> },
    Fire { node: usize },
}

impl Ev {
    fn class(&self) -> u8 {
        match self {
            Ev::Arrival { .. } => 0,
            Ev::Deliver { .. } => 1,
            Ev::Fire { .. } => 2,
        }
    }
}

fn sort_batch_by_class(batch: &mut [Ev]) {
    for i in 1..batch.len() {
        let mut j = i;
        while j > 0 && batch[j - 1].class() > batch[j].class() {
            batch.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// A work item inside the pipeline: the identity and arrival time of
/// its ancestral stream input, because deadlines attach to stream inputs
/// (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Item {
    origin: u64,
    arrival: SimTime,
}

/// Per stream input, how many derived items are still alive in the
/// pipeline and when the last one left — over the whole stream, one
/// slot per input.
///
/// An input starts with one live item (itself). When a node consumes an
/// item and emits `k` outputs, the live count changes by `k − 1`; when
/// it reaches zero the input is *complete* — either its outputs all
/// exited the final stage or its lineage died at a filter stage.
#[derive(Debug)]
struct LineageTracker {
    live: Vec<u32>,
    /// Completion cycle per input, `INCOMPLETE` while unresolved.
    completion: Vec<u64>,
    completed: u64,
}

impl LineageTracker {
    const INCOMPLETE: u64 = u64::MAX;

    fn new(n: usize) -> Self {
        LineageTracker {
            live: vec![0; n],
            completion: vec![Self::INCOMPLETE; n],
            completed: 0,
        }
    }

    /// Register the arrival of input `origin` (live count 0 → 1).
    fn arrive(&mut self, origin: u64) {
        let o = origin as usize;
        debug_assert_eq!(self.live[o], 0, "input {origin} arrived twice");
        self.live[o] = 1;
    }

    /// One item of `origin`'s lineage was consumed and produced
    /// `outputs` new items, at firing-completion time `at`. Returns
    /// `true` if this completed the input.
    fn consume(&mut self, origin: u64, outputs: u32, at: SimTime) -> bool {
        let o = origin as usize;
        debug_assert!(self.live[o] > 0, "consuming dead lineage of input {origin}");
        self.live[o] = self.live[o] - 1 + outputs;
        if self.live[o] == 0 && self.completion[o] == Self::INCOMPLETE {
            self.completion[o] = at.cycles();
            self.completed += 1;
            true
        } else {
            false
        }
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn all_complete(&self) -> bool {
        self.completed as usize == self.completion.len()
    }

    /// Completion times with input indices, in origin order.
    fn completions(&self) -> impl Iterator<Item = (u64, Option<SimTime>)> + '_ {
        self.completion.iter().enumerate().map(|(i, &c)| {
            (
                i as u64,
                (c != Self::INCOMPLETE).then(|| SimTime::from_cycles(c)),
            )
        })
    }
}

struct StressState {
    faults: FaultState,
    policy: MitigationPolicy,
    params: Option<RtParams>,
    design_b: Vec<f64>,
    periods_f: Vec<f64>,
    shed: Vec<bool>,
    items_shed: u64,
    resolves: u64,
    escalation_dead: bool,
}

/// Scalar reference of the enforced-waits simulator. Semantically (and
/// bit-for-bit) what `simulate_enforced_with` / `_perturbed` computed
/// before the SoA restructuring.
pub fn simulate_enforced_reference(
    pipeline: &PipelineSpec,
    schedule: &rtsdf_core::WaitSchedule,
    deadline: f64,
    config: &SimConfig,
    mut obs: Option<&mut ObsSink>,
    stress_spec: Option<(&Perturbation, &MitigationPolicy)>,
) -> SimMetrics {
    let n = pipeline.len();
    if let Some(sink) = obs.as_deref_mut() {
        assert_eq!(sink.num_stages(), n, "obs sink/pipeline length mismatch");
    }
    assert_eq!(
        schedule.periods.len(),
        n,
        "schedule/pipeline length mismatch"
    );
    let v = pipeline.vector_width();
    let service: Vec<u64> = pipeline
        .service_times()
        .iter()
        .map(|&t| (t.round() as u64).max(1))
        .collect();
    let mut periods: Vec<u64> = schedule
        .periods
        .iter()
        .zip(&service)
        .map(|(&x, &t)| (x.round() as u64).max(t))
        .collect();

    let master = RngStream::new(config.seed);
    let mut arrival_rng = master.substream(0);
    let mut gain_rngs: Vec<RngStream> = (0..n).map(|i| master.substream(1 + i as u64)).collect();

    let mut arrivals_f = config
        .arrivals
        .generate(config.stream_length, &mut arrival_rng);
    let mut stress: Option<StressState> = stress_spec.map(|(perturb, policy)| {
        let mut fault_rng = master.substream(FAULT_ARRIVAL_STREAM);
        perturb.perturb_arrivals(
            &mut arrivals_f,
            config.arrivals.mean_interarrival(),
            &mut fault_rng,
        );
        StressState {
            faults: FaultState::new(perturb, &master, n),
            policy: policy.clone(),
            params: RtParams::new(config.arrivals.mean_interarrival(), deadline).ok(),
            design_b: schedule.backlog_factors.clone(),
            periods_f: schedule.periods.clone(),
            shed: vec![false; config.stream_length],
            items_shed: 0,
            resolves: 0,
            escalation_dead: false,
        }
    });
    let arrivals: Vec<SimTime> = {
        let mut last = 0u64;
        arrivals_f
            .iter()
            .map(|&t| {
                let c = (t.round() as u64).max(last);
                last = c;
                SimTime::from_cycles(c)
            })
            .collect()
    };
    let last_arrival = arrivals.last().copied().unwrap_or(SimTime::ZERO);
    let safety_horizon =
        last_arrival.saturating_add(SimTime::from_f64_rounded(config.drain_factor * deadline));

    let mut cal: Calendar<Ev> = Calendar::with_capacity(config.stream_length * 2 + 64);
    for (origin, &t) in arrivals.iter().enumerate() {
        cal.schedule(
            t,
            Ev::Arrival {
                origin: origin as u64,
            },
        );
    }
    for node in 0..n {
        cal.schedule(SimTime::ZERO, Ev::Fire { node });
    }

    let samplers = stage_samplers(pipeline, stress_spec.map(|(perturb, _)| perturb));

    let mut queues: Vec<VecDeque<Item>> = (0..n)
        .map(|_| VecDeque::with_capacity(v as usize * 2))
        .collect();
    let mut vec_pool: Vec<Vec<Item>> = Vec::new();
    let mut enq_times: Vec<VecDeque<SimTime>> = if obs.is_some() {
        (0..n).map(|_| VecDeque::new()).collect()
    } else {
        Vec::new()
    };
    let mut max_depth = vec![0u64; n];
    let mut dormant = vec![false; n];
    let mut lineage = LineageTracker::new(config.stream_length);
    let mut ledger = ActiveTimeLedger::new(n);
    let mut occupancy: Vec<OccupancyStats> = (0..n).map(|_| OccupancyStats::new()).collect();
    let mut last_completion = SimTime::ZERO;
    let mut truncated = false;

    let mut batch: Vec<Ev> = Vec::new();
    'outer: while let Some(first) = cal.pop() {
        let now = first.time;
        if now > safety_horizon {
            truncated = true;
            break 'outer;
        }
        batch.clear();
        batch.push(first.payload);
        while cal.peek_time() == Some(now) {
            batch.push(cal.pop().expect("peeked").payload);
        }
        sort_batch_by_class(&mut batch);

        for ev in batch.drain(..) {
            if let Some(sink) = obs.as_deref_mut() {
                sink.on_event();
            }
            match ev {
                Ev::Arrival { origin } => {
                    if let Some(st) = stress.as_mut() {
                        if st.policy.escalate
                            && !st.escalation_dead
                            && st.resolves < u64::from(st.policy.max_resolves)
                        {
                            let headroom = st.policy.escalate_headroom;
                            let overload = max_depth
                                .iter()
                                .zip(&st.design_b)
                                .any(|(&d, &b)| (d as f64 / v as f64).ceil() > b + headroom);
                            if overload {
                                if let Some(params) = st.params {
                                    let observed: Vec<f64> = max_depth
                                        .iter()
                                        .map(|&d| (d as f64 / v as f64).ceil())
                                        .collect();
                                    match rtsdf_core::policy::escalate_schedule(
                                        &Topology::chain(pipeline),
                                        params,
                                        &st.design_b,
                                        &observed,
                                    ) {
                                        Ok(new_sched) => {
                                            st.resolves += 1;
                                            for (p, (&x, &t)) in periods
                                                .iter_mut()
                                                .zip(new_sched.periods.iter().zip(&service))
                                            {
                                                *p = (x.round() as u64).max(t);
                                            }
                                            st.periods_f = new_sched.periods;
                                            st.design_b = new_sched.backlog_factors;
                                        }
                                        Err(_) => st.escalation_dead = true,
                                    }
                                } else {
                                    st.escalation_dead = true;
                                }
                            }
                        }
                        if st.policy.shed {
                            let mut overload = false;
                            let mut predicted = 0.0;
                            for i in 0..n {
                                let q = queues[i].len() as u64 + u64::from(i == 0);
                                let obs = (q as f64 / v as f64).ceil();
                                if obs > st.design_b[i] {
                                    overload = true;
                                }
                                predicted += periods[i] as f64 * obs.max(st.design_b[i]);
                            }
                            if overload && predicted > deadline {
                                st.items_shed += 1;
                                st.shed[origin as usize] = true;
                                lineage.arrive(origin);
                                lineage.consume(origin, 0, now);
                                continue;
                            }
                        }
                    }
                    lineage.arrive(origin);
                    queues[0].push_back(Item {
                        origin,
                        arrival: now,
                    });
                    max_depth[0] = max_depth[0].max(queues[0].len() as u64);
                    if let Some(sink) = obs.as_deref_mut() {
                        sink.on_enqueue(0, 1, queues[0].len());
                        enq_times[0].push_back(now);
                    }
                    if dormant[0] {
                        dormant[0] = false;
                        cal.schedule(now, Ev::Fire { node: 0 });
                    }
                }
                Ev::Deliver { node, mut items } => {
                    let delivered = items.len() as u64;
                    queues[node].extend(items.drain(..));
                    vec_pool.push(items);
                    max_depth[node] = max_depth[node].max(queues[node].len() as u64);
                    if let Some(sink) = obs.as_deref_mut() {
                        sink.on_enqueue(node, delivered, queues[node].len());
                        for _ in 0..delivered {
                            enq_times[node].push_back(now);
                        }
                    }
                    if dormant[node] {
                        dormant[node] = false;
                        cal.schedule(now, Ev::Fire { node });
                    }
                }
                Ev::Fire { node } => {
                    if config.discipline == FiringDiscipline::Vacation && queues[node].is_empty() {
                        dormant[node] = true;
                        continue;
                    }
                    let take = (v as usize).min(queues[node].len());
                    let svc = match stress.as_mut() {
                        Some(st) => st.faults.service_cycles(node, service[node]),
                        None => service[node],
                    };
                    occupancy[node].record(take as u32, v);
                    ledger.record_firing(node, svc as f64, take as u32);
                    if let Some(sink) = obs.as_deref_mut() {
                        sink.on_fire(node, take, v as usize);
                        for enq in enq_times[node].drain(..take) {
                            sink.on_sojourn(node, now.since(enq).as_f64());
                        }
                    }
                    let completion = now + SimTime::from_cycles(svc);
                    let is_last = node + 1 == n;
                    if take > 0 {
                        let mut outs: Vec<Item> = vec_pool.pop().unwrap_or_default();
                        for _ in 0..take {
                            let item = queues[node].pop_front().expect("take <= queue len");
                            let k = if is_last {
                                0
                            } else {
                                samplers[node].sample(&mut gain_rngs[node])
                            };
                            if lineage.consume(item.origin, k, completion) {
                                last_completion = last_completion.max(completion);
                                if let Some(sink) = obs.as_deref_mut() {
                                    sink.on_completion();
                                }
                            }
                            for _ in 0..k {
                                outs.push(Item {
                                    origin: item.origin,
                                    arrival: item.arrival,
                                });
                            }
                        }
                        if !outs.is_empty() {
                            cal.schedule(
                                completion,
                                Ev::Deliver {
                                    node: node + 1,
                                    items: outs,
                                },
                            );
                        } else {
                            vec_pool.push(outs);
                        }
                    }
                    if !lineage.all_complete() {
                        let refire = (now + SimTime::from_cycles(periods[node])).max(completion);
                        cal.schedule(refire, Ev::Fire { node });
                    }
                }
            }
        }
        if lineage.all_complete() {
            break;
        }
    }

    let mut misses = 0u64;
    let mut dropped = 0u64;
    let mut latency = MomentAccumulator::new();
    for (origin, completion) in lineage.completions() {
        if let Some(st) = stress.as_ref() {
            if st.shed[origin as usize] {
                continue;
            }
        }
        match completion {
            Some(c) => {
                let lat = c.since(arrivals[origin as usize]).as_f64();
                latency.push(lat);
                if lat > deadline {
                    misses += 1;
                }
            }
            None => {
                misses += 1;
                dropped += 1;
                if let Some(sink) = obs.as_deref_mut() {
                    sink.on_drop();
                }
            }
        }
    }

    let horizon = if lineage.all_complete() {
        last_completion.as_f64()
    } else {
        safety_horizon.as_f64()
    }
    .max(1.0);
    ledger.set_horizon(horizon);

    let items_shed = stress.as_ref().map_or(0, |st| st.items_shed);
    SimMetrics {
        items_arrived: arrivals.len() as u64,
        items_completed: lineage.completed() - items_shed,
        items_dropped: dropped,
        deadline_misses: misses,
        items_shed,
        resolves: stress.as_ref().map_or(0, |st| st.resolves),
        active_fraction: ledger.active_fraction(),
        active_fraction_nonempty: ledger.active_fraction_nonempty(),
        latency: latency.finish(),
        max_backlog_vectors: max_depth.iter().map(|&d| d as f64 / v as f64).collect(),
        max_queue_depth: max_depth,
        occupancy,
        horizon,
        truncated,
        obs: None,
        blame: None,
    }
}

/// Scalar reference of the monolithic simulator: one gain draw and one
/// sojourn/latency sample per item.
pub fn simulate_monolithic_reference(
    pipeline: &PipelineSpec,
    schedule: &rtsdf_core::MonolithicSchedule,
    deadline: f64,
    config: &SimConfig,
    mut obs: Option<&mut ObsSink>,
    stress_spec: Option<&Perturbation>,
) -> SimMetrics {
    let n = pipeline.len();
    if let Some(sink) = obs.as_deref_mut() {
        assert_eq!(sink.num_stages(), n, "obs sink/pipeline length mismatch");
    }
    let v = pipeline.vector_width();
    let m = schedule.block_size.max(1) as usize;
    let service: Vec<f64> = pipeline.service_times();

    let master = RngStream::new(config.seed);
    let mut arrival_rng = master.substream(0);
    let mut gain_rngs: Vec<RngStream> = (0..n).map(|i| master.substream(1 + i as u64)).collect();

    let mut arrivals = config
        .arrivals
        .generate(config.stream_length, &mut arrival_rng);
    let mut faults: Option<FaultState> = stress_spec.map(|perturb| {
        let mut fault_rng = master.substream(FAULT_ARRIVAL_STREAM);
        perturb.perturb_arrivals(
            &mut arrivals,
            config.arrivals.mean_interarrival(),
            &mut fault_rng,
        );
        FaultState::new(perturb, &master, n)
    });
    let samplers = stage_samplers(pipeline, stress_spec);
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

    for block in arrivals.chunks(m) {
        let ready = *block.last().expect("chunks are nonempty");
        let start = ready.max(pipeline_free_at);
        if start > safety_horizon {
            truncated = true;
            break;
        }
        let arrived = arrivals.partition_point(|&t| t <= start);
        max_waiting = max_waiting.max((arrived - processed_before) as u64);
        if let Some(sink) = obs.as_deref_mut() {
            sink.on_event();
            sink.on_enqueue(0, block.len() as u64, arrived - processed_before);
            for &arr in block {
                sink.on_sojourn(0, start - arr);
            }
        }

        let mut count = block.len() as u64;
        let mut busy = 0.0;
        for i in 0..n {
            if count == 0 {
                break;
            }
            let firings = count.div_ceil(v as u64);
            let stage_busy = match faults.as_mut() {
                Some(f) => f.block_busy(i, firings, service[i]),
                None => firings as f64 * service[i],
            };
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
            if i + 1 < n {
                let rng = &mut gain_rngs[i];
                let mut next = 0u64;
                for _ in 0..count {
                    next += samplers[i].sample(rng) as u64;
                }
                count = next;
            }
        }
        let finish = start + busy;
        busy_total += busy;
        pipeline_free_at = finish;
        horizon = horizon.max(finish);
        processed_before += block.len();

        for &arr in block {
            let lat = finish - arr;
            latency.push(lat);
            completed += 1;
            if let Some(sink) = obs.as_deref_mut() {
                sink.on_completion();
            }
            if lat > deadline {
                misses += 1;
            }
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
    }
    let horizon = horizon.max(1.0);

    let active_fraction = busy_total / horizon;
    SimMetrics {
        items_arrived: arrivals.len() as u64,
        items_completed: completed,
        items_dropped: dropped,
        deadline_misses: misses,
        items_shed: 0,
        resolves: 0,
        active_fraction,
        active_fraction_nonempty: active_fraction,
        latency: latency.finish(),
        max_queue_depth: {
            let mut d = vec![0u64; n];
            d[0] = max_waiting;
            d
        },
        max_backlog_vectors: {
            let mut b = vec![0.0; n];
            b[0] = max_waiting as f64 / v as f64;
            b
        },
        occupancy,
        horizon,
        truncated,
        obs: None,
        blame: None,
    }
}
