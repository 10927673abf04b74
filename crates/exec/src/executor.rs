//! The threaded executors: enforced waits (one thread per stage, plus
//! an arrival pacer) and monolithic batching (a pacer and one block
//! worker).
//!
//! ## Mapping from the simulator's semantics
//!
//! The enforced executor reproduces the simulator's `StrictPeriodic`
//! discipline: every stage fires every `x_i = t_i + w_i` cycles from
//! the run start, consumes up to `v` queued items, burns its service
//! time (charged whether or not it consumed anything), draws per-edge
//! gains from the edge's own RNG substream, and delivers outputs at
//! firing completion. The refire rule is the simulator's
//! `(fire_start + period).max(completion)` — on time when on schedule,
//! catch-up without oscillation when the OS wakes a thread late.
//!
//! The monolithic executor accumulates blocks of `M` items and pushes
//! each block through all nodes in topological order — `⌈n_i/v⌉`
//! firings of `t_i` per node, all of the block's inputs completing when
//! the block finishes — exactly the simulator's block semantics, with
//! the block's busy time as one real burn per node.
//!
//! ## Termination
//!
//! Shutdown is a close cascade along the (acyclic) topology: the pacer
//! drops its sender after the last arrival; a stage exits when its
//! input is both closed and empty, dropping its own senders. A node
//! therefore never exits before its producers, which (with every
//! consumer draining before exit) makes the executor deadlock-free by
//! construction — the property test in `tests/` exercises exactly
//! this claim over random topologies, capacities, and seeds.

use crate::channel::{bounded, Item, Receiver, Sender};
use crate::report::{ExecMetrics, ExecStageReport};
use crate::timer::{calibrate, TimerCalibration, Timers};
use dataflow_model::gain::{draw53, thin_counts, unit_threshold};
use dataflow_model::{ArrivalProcess, GainSampler, ModelError, Topology};
use des::obs::Dist;
use des::rng::RngStream;
use des::stats::OnlineStats;
use rtsdf_core::{MonolithicSchedule, WaitSchedule};
use simd_device::{ActiveTimeLedger, OccupancyStats};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sentinel for "not completed" in the lineage completion lane.
const INCOMPLETE: u64 = u64::MAX;

/// Cap on retained per-stage samples (sojourn/depth) and burn spans, so
/// a long run cannot grow memory without bound.
const SAMPLE_CAP: usize = 1 << 20;

/// Configuration of one real execution.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of stream inputs to process.
    pub stream_length: usize,
    /// Master RNG seed; substream labels match the simulator's
    /// (0 = arrivals, 1+e = edge `e` gains).
    pub seed: u64,
    /// How items arrive (same process the simulator draws from).
    pub arrivals: ArrivalProcess,
    /// Per-item end-to-end deadline, cycles.
    pub deadline: f64,
    /// Target wall duration of the run, seconds. The cycle→nanosecond
    /// time scale is derived so the run's worst-case logical span fits
    /// this duration; actual runs finish earlier (the worst-case bound
    /// is conservative).
    pub target_duration_secs: f64,
    /// Fidelity floor: the shortest service burn allowed, nanoseconds.
    /// If the duration-derived scale would make some stage's burn
    /// shorter than this (drowning it in timer noise), the scale is
    /// raised — trading a longer run for meaningful burns.
    pub min_burn_ns: f64,
    /// Explicit time scale override (ns per cycle); `None` derives it
    /// from `target_duration_secs`.
    pub time_scale_ns: Option<f64>,
}

impl ExecConfig {
    /// A run of `stream_length` periodic arrivals at interval `tau0`,
    /// targeting roughly one second of wall time.
    pub fn new(stream_length: usize, seed: u64, tau0: f64, deadline: f64) -> Self {
        ExecConfig {
            stream_length,
            seed,
            arrivals: ArrivalProcess::Periodic { tau0 },
            deadline,
            target_duration_secs: 1.0,
            min_burn_ns: 20_000.0,
            time_scale_ns: None,
        }
    }

    /// Resolve the cycle→ns scale for a run whose worst-case logical
    /// span is `span_cycles` and whose shortest stage service time is
    /// `min_service_cycles`.
    fn time_scale(&self, span_cycles: f64, min_service_cycles: f64) -> f64 {
        if let Some(s) = self.time_scale_ns {
            return s;
        }
        let by_duration = (self.target_duration_secs.max(0.05) * 1e9) / span_cycles.max(1.0);
        let by_floor = self.min_burn_ns / min_service_cycles.max(1.0);
        by_duration.max(by_floor)
    }
}

/// Why an execution could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Schedule and topology disagree on shape.
    Mismatch(String),
    /// The configuration is unusable (empty stream, bad deadline, …).
    Config(String),
    /// An edge's gain law has no sampler
    /// ([`ModelError::InvalidEdgeGain`], see [`Topology::samplers`]).
    InvalidGain(ModelError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Mismatch(m) => write!(f, "schedule/topology mismatch: {m}"),
            ExecError::Config(m) => write!(f, "invalid exec config: {m}"),
            ExecError::InvalidGain(e) => write!(f, "invalid gain law: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Atomic lineage ledger shared by all stage threads: one outstanding
/// count and one completion timestamp per stream input. `consume`
/// resolves an item's contribution wait-free, so lineage never
/// serializes the stages.
struct Lineage {
    outstanding: Vec<AtomicI64>,
    completion_ns: Vec<AtomicU64>,
}

impl Lineage {
    fn new(n: usize) -> Self {
        Lineage {
            // Every input starts with its own arrival outstanding.
            outstanding: (0..n).map(|_| AtomicI64::new(1)).collect(),
            completion_ns: (0..n).map(|_| AtomicU64::new(INCOMPLETE)).collect(),
        }
    }

    /// A firing consumed one output of `origin` and produced `k`
    /// replacements. Returns true when this resolved the item fully.
    fn consume(&self, origin: u64, k: u32, now_ns: u64) -> bool {
        let delta = i64::from(k) - 1;
        let prev = self.outstanding[origin as usize].fetch_add(delta, Ordering::AcqRel);
        if prev + delta == 0 {
            self.completion_ns[origin as usize].store(now_ns, Ordering::Release);
            true
        } else {
            false
        }
    }

    fn completion(&self, origin: usize) -> Option<u64> {
        match self.completion_ns[origin].load(Ordering::Acquire) {
            INCOMPLETE => None,
            ns => Some(ns),
        }
    }
}

/// What one stage thread hands back at join.
struct StageRun {
    fired: u64,
    empty_firings: u64,
    items_consumed: u64,
    items_emitted: u64,
    occupancy: OccupancyStats,
    sojourn_ns: Vec<f64>,
    depth: Vec<f64>,
    burns: Vec<(u64, u64)>,
    send_blocked_ns: u64,
    max_queue_depth: u64,
}

fn ns_of(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn dur_ns(ns: f64) -> Duration {
    Duration::from_nanos(ns.max(0.0).round() as u64)
}

/// Sample per-edge gains for `take` consumed items, apply routing-
/// weight thinning, accumulate per-item output totals, and append the
/// surviving origins to `outs`. Draw-for-draw the simulator's firing
/// loop (`sample_batch`, then [`thin_counts`] from the same edge
/// substream, with `thin_buf` as its lane).
#[allow(clippy::too_many_arguments)]
fn route_edge(
    sampler: &GainSampler,
    weight: f64,
    rng: &mut RngStream,
    consumed: &[Item],
    gains_buf: &mut Vec<u32>,
    thin_buf: &mut Vec<u32>,
    ktot: &mut [u32],
    outs: &mut Vec<u64>,
) {
    let take = consumed.len();
    gains_buf.clear();
    gains_buf.resize(take, 0);
    sampler.sample_batch(rng, gains_buf);
    if weight < 1.0 {
        thin_counts(rng, unit_threshold(weight), gains_buf, thin_buf);
    }
    for (i, item) in consumed.iter().enumerate() {
        let k = gains_buf[i];
        ktot[i] += k;
        for _ in 0..k {
            outs.push(item.origin);
        }
    }
}

/// Run `schedule` on `topology` with one thread per stage.
pub fn run_enforced(
    topology: &Topology,
    schedule: &WaitSchedule,
    config: &ExecConfig,
) -> Result<ExecMetrics, ExecError> {
    let n = topology.len();
    if schedule.periods.len() != n {
        return Err(ExecError::Mismatch(format!(
            "schedule has {} periods, topology {} nodes",
            schedule.periods.len(),
            n
        )));
    }
    validate_config(config)?;
    // The simulators' samplers, so the emulated service draws what
    // they do.
    let samplers = topology.samplers(None).map_err(ExecError::InvalidGain)?;
    let v = topology.vector_width();

    // Integer cycle quantities, exactly as the simulator rounds them.
    let service: Vec<u64> = topology
        .service_times()
        .iter()
        .map(|&t| (t.round() as u64).max(1))
        .collect();
    let periods: Vec<u64> = schedule
        .periods
        .iter()
        .zip(&service)
        .map(|(&x, &t)| (x.round() as u64).max(t))
        .collect();

    let master = RngStream::new(config.seed);
    let mut arrival_rng = master.substream(0);
    let arrivals_cycles: Vec<u64> = monotone_cycles(
        &config
            .arrivals
            .generate(config.stream_length, &mut arrival_rng),
    );
    let last_arrival = arrivals_cycles.last().copied().unwrap_or(0);

    let span_cycles = last_arrival as f64 + schedule.latency_bound.max(config.deadline);
    let min_service = service.iter().copied().min().unwrap_or(1) as f64;
    let scale = config.time_scale(span_cycles, min_service);
    let calibration = calibrate();
    let timers = Timers::new(calibration);

    // Bounded input channel per node; capacity is the design backlog
    // `⌈b_i⌉·v` items (at least two vectors so a transient cannot
    // wedge a well-designed schedule on rounding).
    let mut txs: Vec<Option<Sender>> = Vec::with_capacity(n);
    let mut rxs: Vec<Option<Receiver>> = Vec::with_capacity(n);
    for i in 0..n {
        let b = schedule
            .backlog_factors
            .get(i)
            .copied()
            .unwrap_or(1.0)
            .ceil()
            .max(1.0) as usize;
        let (tx, rx) = bounded((b * v as usize).max(2 * v as usize));
        txs.push(Some(tx));
        rxs.push(Some(rx));
    }
    let source_tx = txs[topology.source()].clone().expect("source sender");
    // Per-stage out-edge senders (cloned from the destination's input),
    // and the per-edge gain substreams, owned by the source stage of
    // each edge.
    let mut stage_senders: Vec<Vec<(usize, Sender)>> = (0..n)
        .map(|i| {
            topology
                .out_edges(i)
                .iter()
                .map(|&e| {
                    let dst = topology.edge(e).dst;
                    (e, txs[dst].clone().expect("dst sender"))
                })
                .collect()
        })
        .collect();
    // Drop the original senders: from here on, channel closure is
    // governed purely by pacer/stage thread lifetime.
    txs.clear();
    let mut stage_rngs: Vec<Vec<RngStream>> = (0..n)
        .map(|i| {
            topology
                .out_edges(i)
                .iter()
                .map(|&e| master.substream(1 + e as u64))
                .collect()
        })
        .collect();

    let lineage = Lineage::new(config.stream_length);
    let start = Instant::now() + Duration::from_millis(5);

    let (stage_runs, pacer_late) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let rx = rxs[i].take().expect("stage receiver");
            let senders = std::mem::take(&mut stage_senders[i]);
            let rngs = std::mem::take(&mut stage_rngs[i]);
            let lineage = &lineage;
            let samplers = &samplers;
            let period_ns = periods[i] as f64 * scale;
            let service_ns = service[i] as f64 * scale;
            handles.push(scope.spawn(move || {
                stage_thread(StageCtx {
                    topology,
                    v,
                    rx,
                    senders,
                    samplers,
                    rngs,
                    lineage,
                    timers,
                    start,
                    period_ns,
                    service_ns,
                })
            }));
        }
        let pacer =
            scope.spawn(|| pace_arrivals(&arrivals_cycles, scale, start, &timers, source_tx));
        let runs: Vec<StageRun> = handles
            .into_iter()
            .map(|h| h.join().expect("stage thread panicked"))
            .collect();
        (runs, pacer.join().expect("pacer panicked"))
    });
    let wall_elapsed_ns = ns_of(start);

    Ok(assemble_metrics(AssembleArgs {
        strategy: "enforced",
        topology,
        config,
        schedule_is_monolithic: false,
        stage_runs,
        lineage: &lineage,
        arrivals_cycles: &arrivals_cycles,
        scale,
        wall_elapsed_ns,
        pacer_max_late_ns: pacer_late,
        calibration,
    }))
}

/// Everything one enforced stage thread needs.
struct StageCtx<'a> {
    topology: &'a Topology,
    v: u32,
    rx: Receiver,
    senders: Vec<(usize, Sender)>,
    samplers: &'a [GainSampler],
    rngs: Vec<RngStream>,
    lineage: &'a Lineage,
    timers: Timers,
    start: Instant,
    period_ns: f64,
    service_ns: f64,
}

/// The enforced-waits firing loop of one stage.
fn stage_thread(ctx: StageCtx<'_>) -> StageRun {
    let StageCtx {
        topology,
        v,
        rx,
        senders,
        samplers,
        mut rngs,
        lineage,
        timers,
        start,
        period_ns,
        service_ns,
    } = ctx;
    let mut run = StageRun {
        fired: 0,
        empty_firings: 0,
        items_consumed: 0,
        items_emitted: 0,
        occupancy: OccupancyStats::new(),
        sojourn_ns: Vec::new(),
        depth: Vec::new(),
        burns: Vec::new(),
        send_blocked_ns: 0,
        max_queue_depth: 0,
    };
    let mut consumed: Vec<Item> = Vec::with_capacity(v as usize);
    let mut gains_buf: Vec<u32> = Vec::with_capacity(v as usize);
    let mut thin_buf: Vec<u32> = Vec::new();
    let mut ktot: Vec<u32> = Vec::with_capacity(v as usize);
    // Per-out-edge output origin batches, reused across firings.
    let mut outs: Vec<Vec<u64>> = senders.iter().map(|_| Vec::new()).collect();
    let period = dur_ns(period_ns);
    let mut next_fire = start;

    loop {
        timers.wait_until(next_fire);
        consumed.clear();
        let drain = rx.drain_up_to(v as usize, &mut consumed);
        let fire_start = Instant::now();
        let now_ns = ns_of(start);
        run.fired += 1;
        if drain.taken == 0 {
            run.empty_firings += 1;
        }
        run.items_consumed += drain.taken as u64;
        run.occupancy.record(drain.taken as u32, v);
        if run.depth.len() < SAMPLE_CAP {
            run.depth.push(drain.depth_before as f64);
        }
        if run.sojourn_ns.len() + drain.taken <= SAMPLE_CAP {
            run.sojourn_ns
                .extend(consumed.iter().map(|it| (now_ns - it.enqueued_ns) as f64));
        }

        // The service burn: real CPU until the wall deadline (charged
        // on empty firings too — StrictPeriodic).
        let burn_end = fire_start + dur_ns(service_ns);
        timers.burn_until(burn_end);
        let completion_ns = ns_of(start);
        if run.burns.len() < SAMPLE_CAP {
            run.burns.push((now_ns, completion_ns));
        }

        if drain.taken > 0 {
            ktot.clear();
            ktot.resize(drain.taken, 0);
            for (slot, &(e, _)) in senders.iter().enumerate() {
                let edge = topology.edge(e);
                outs[slot].clear();
                route_edge(
                    &samplers[e],
                    edge.weight,
                    &mut rngs[slot],
                    &consumed,
                    &mut gains_buf,
                    &mut thin_buf,
                    &mut ktot,
                    &mut outs[slot],
                );
            }
            // Lineage resolves at firing completion, before deliveries
            // land downstream — the simulator's intra-instant order.
            for (item, &k) in consumed.iter().zip(&ktot) {
                lineage.consume(item.origin, k, completion_ns);
            }
            for (slot, (_, tx)) in senders.iter().enumerate() {
                for &origin in &outs[slot] {
                    run.send_blocked_ns += tx.send(Item {
                        origin,
                        enqueued_ns: completion_ns,
                    });
                    run.items_emitted += 1;
                }
            }
        } else if drain.disconnected {
            // Upstream cone fully drained and nothing left here: exit,
            // dropping our senders (the close cascade).
            break;
        }

        // Refire: `(fire_start + period).max(completion)` like the
        // simulator; `burn_end >= fire_start + service` and the period
        // dominates the service, so on-schedule runs never slip.
        let scheduled = fire_start + period;
        next_fire = if scheduled > burn_end {
            scheduled
        } else {
            burn_end
        };
    }
    run.max_queue_depth = rx.max_depth() as u64;
    run
}

/// The arrival pacer: deliver every stream input at its nominal wall
/// instant (nominal stamps, so sojourn measures what the simulator
/// measures even when the pacer itself runs late). Returns the worst
/// observed lateness in nanoseconds.
fn pace_arrivals(
    arrivals_cycles: &[u64],
    scale: f64,
    start: Instant,
    timers: &Timers,
    tx: Sender,
) -> u64 {
    let mut max_late = 0u64;
    for (origin, &cycles) in arrivals_cycles.iter().enumerate() {
        let nominal_ns = cycles as f64 * scale;
        timers.wait_until(start + dur_ns(nominal_ns));
        tx.send(Item {
            origin: origin as u64,
            enqueued_ns: nominal_ns as u64,
        });
        let late = ns_of(start).saturating_sub(nominal_ns as u64);
        max_late = max_late.max(late);
    }
    max_late
}

/// Run the monolithic `schedule` on `topology`: a pacer and one block
/// worker.
pub fn run_monolithic(
    topology: &Topology,
    schedule: &MonolithicSchedule,
    config: &ExecConfig,
) -> Result<ExecMetrics, ExecError> {
    validate_config(config)?;
    let samplers = topology.samplers(None).map_err(ExecError::InvalidGain)?;
    let n = topology.len();
    let v = topology.vector_width();
    let m = schedule.block_size.max(1) as usize;
    let service: Vec<f64> = topology.service_times();

    let master = RngStream::new(config.seed);
    let mut arrival_rng = master.substream(0);
    let arrivals_cycles: Vec<u64> = monotone_cycles(
        &config
            .arrivals
            .generate(config.stream_length, &mut arrival_rng),
    );
    let last_arrival = arrivals_cycles.last().copied().unwrap_or(0);
    let span_cycles = last_arrival as f64 + schedule.latency_bound.max(config.deadline);
    let min_service = service
        .iter()
        .fold(f64::INFINITY, |a, &b| a.min(b))
        .max(1.0);
    let scale = config.time_scale(span_cycles, min_service);
    let calibration = calibrate();
    let timers = Timers::new(calibration);

    let mut gain_rngs: Vec<RngStream> = (0..topology.edges().len())
        .map(|e| master.substream(1 + e as u64))
        .collect();

    let lineage = Lineage::new(config.stream_length);
    let (tx, rx) = bounded(2 * m);
    let start = Instant::now() + Duration::from_millis(5);

    let (worker_run, pacer_late) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let mut run = StageRun {
                fired: 0,
                empty_firings: 0,
                items_consumed: 0,
                items_emitted: 0,
                occupancy: OccupancyStats::new(),
                sojourn_ns: Vec::new(),
                depth: Vec::new(),
                burns: Vec::new(),
                send_blocked_ns: 0,
                max_queue_depth: 0,
            };
            let mut occupancy: Vec<OccupancyStats> =
                (0..n).map(|_| OccupancyStats::new()).collect();
            let mut fired = vec![0u64; n];
            let mut busy_spans: Vec<Vec<(u64, u64)>> = (0..n).map(|_| Vec::new()).collect();
            let mut block: Vec<Item> = Vec::with_capacity(m);
            let mut counts = vec![0u64; n];
            loop {
                block.clear();
                let drain = rx.recv_block(m, &mut block);
                if block.is_empty() {
                    if drain.disconnected {
                        break;
                    }
                    continue;
                }
                let block_start_ns = ns_of(start);
                run.items_consumed += block.len() as u64;
                if run.depth.len() < SAMPLE_CAP {
                    run.depth.push(drain.depth_before as f64);
                }
                if run.sojourn_ns.len() + block.len() <= SAMPLE_CAP {
                    run.sojourn_ns.extend(
                        block
                            .iter()
                            .map(|it| block_start_ns.saturating_sub(it.enqueued_ns) as f64),
                    );
                }
                counts.iter_mut().for_each(|c| *c = 0);
                counts[topology.source()] = block.len() as u64;
                for &i in topology.topo_order() {
                    let count = counts[i];
                    if count == 0 {
                        continue;
                    }
                    let firings = count.div_ceil(u64::from(v));
                    let stage_busy_ns = firings as f64 * service[i] * scale;
                    let burn_start = ns_of(start);
                    timers.burn_until(Instant::now() + dur_ns(stage_busy_ns));
                    busy_spans[i].push((burn_start, ns_of(start)));
                    fired[i] += firings;
                    let full = count / u64::from(v);
                    for _ in 0..full {
                        occupancy[i].record(v, v);
                    }
                    let rem = (count % u64::from(v)) as u32;
                    if rem > 0 {
                        occupancy[i].record(rem, v);
                    }
                    for &e in topology.out_edges(i) {
                        let edge = topology.edge(e);
                        let out = samplers[e].sample_sum(&mut gain_rngs[e], count);
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
                let finish_ns = ns_of(start);
                run.fired += 1;
                for it in &block {
                    lineage.consume(it.origin, 0, finish_ns);
                }
                if drain.disconnected && drain.depth_before == block.len() {
                    break;
                }
            }
            run.max_queue_depth = rx.max_depth() as u64;
            (run, occupancy, fired, busy_spans)
        });
        let pacer = scope.spawn(|| pace_arrivals(&arrivals_cycles, scale, start, &timers, tx));
        (
            worker.join().expect("block worker panicked"),
            pacer.join().expect("pacer panicked"),
        )
    });
    let wall_elapsed_ns = ns_of(start);
    let (run, per_node_occupancy, per_node_fired, busy_spans) = worker_run;

    // Horizon: last completion.
    let mut horizon_ns = 0u64;
    for origin in 0..config.stream_length {
        if let Some(c) = lineage.completion(origin) {
            horizon_ns = horizon_ns.max(c);
        }
    }
    let horizon_cycles = (horizon_ns as f64 / scale).max(1.0);

    // Latency + misses + conservation.
    let mut latency = OnlineStats::new();
    let mut misses = 0u64;
    let mut completed = 0u64;
    let mut dropped = 0u64;
    for (origin, &arr) in arrivals_cycles.iter().enumerate() {
        match lineage.completion(origin) {
            Some(c_ns) => {
                completed += 1;
                let lat = (c_ns as f64 / scale) - arr as f64;
                latency.push(lat);
                misses += u64::from(lat > config.deadline);
            }
            None => {
                dropped += 1;
                misses += 1;
            }
        }
    }

    // The monolithic application is one schedulable unit: active
    // fraction is total busy over the horizon (the simulator's
    // convention), with burns clipped at the horizon.
    let total_busy_ns: u64 = busy_spans
        .iter()
        .flatten()
        .map(|&(s, e)| e.min(horizon_ns).saturating_sub(s.min(horizon_ns)))
        .sum();
    let active_fraction = (total_busy_ns as f64 / scale) / horizon_cycles;

    let stages: Vec<ExecStageReport> = (0..n)
        .map(|i| {
            let busy_ns: u64 = busy_spans[i]
                .iter()
                .map(|&(s, e)| e.min(horizon_ns).saturating_sub(s.min(horizon_ns)))
                .sum();
            let src = i == topology.source();
            ExecStageReport {
                name: topology.node(i).name.clone(),
                fired: per_node_fired[i],
                empty_firings: 0,
                items_consumed: if src { run.items_consumed } else { 0 },
                items_emitted: 0,
                occupancy: per_node_occupancy[i].clone(),
                sojourn_cycles: scaled_summary(if src { &run.sojourn_ns } else { &[] }, scale),
                queue_depth: summary_of(if src { &run.depth } else { &[] }, 2.0 * m as f64),
                max_queue_depth: if src { run.max_queue_depth } else { 0 },
                busy_fraction: (busy_ns as f64 / scale) / horizon_cycles,
                send_blocked_ns: 0,
            }
        })
        .collect();

    Ok(ExecMetrics {
        strategy: "monolithic".into(),
        items_arrived: arrivals_cycles.len() as u64,
        items_completed: completed,
        items_dropped: dropped,
        deadline_misses: misses,
        active_fraction,
        active_fraction_nonempty: active_fraction,
        latency,
        stages,
        horizon_cycles,
        wall_elapsed_ns,
        time_scale_ns_per_cycle: scale,
        pacer_max_late_ns: pacer_late,
        calibration,
    })
}

fn validate_config(config: &ExecConfig) -> Result<(), ExecError> {
    if config.stream_length == 0 {
        return Err(ExecError::Config("stream_length must be positive".into()));
    }
    if !(config.deadline.is_finite() && config.deadline > 0.0) {
        return Err(ExecError::Config(format!(
            "deadline {} must be positive and finite",
            config.deadline
        )));
    }
    config
        .arrivals
        .validate()
        .map_err(|e| ExecError::Config(e.to_string()))?;
    if let Some(s) = config.time_scale_ns {
        if !(s.is_finite() && s > 0.0) {
            return Err(ExecError::Config(format!(
                "time scale {s} must be positive and finite"
            )));
        }
    }
    Ok(())
}

/// Round float arrival times onto the integer cycle clock, clamped
/// monotone — the simulator's exact rounding.
fn monotone_cycles(times: &[f64]) -> Vec<u64> {
    let mut last = 0u64;
    times
        .iter()
        .map(|&t| {
            let c = (t.round() as u64).max(last);
            last = c;
            c
        })
        .collect()
}

fn summary_of(samples: &[f64], hi: f64) -> des::obs::DistSummary {
    let mut d = Dist::with_cutoff(0.0, hi.max(1.0), 64, samples.len().max(1));
    d.push_batch(samples);
    d.summary()
}

fn scaled_summary(samples_ns: &[f64], scale: f64) -> des::obs::DistSummary {
    let cycles: Vec<f64> = samples_ns.iter().map(|&x| x / scale).collect();
    let hi = cycles.iter().fold(1.0f64, |a, &b| a.max(b));
    summary_of(&cycles, hi)
}

struct AssembleArgs<'a> {
    strategy: &'static str,
    topology: &'a Topology,
    config: &'a ExecConfig,
    #[allow(dead_code)]
    schedule_is_monolithic: bool,
    stage_runs: Vec<StageRun>,
    lineage: &'a Lineage,
    arrivals_cycles: &'a [u64],
    scale: f64,
    wall_elapsed_ns: u64,
    pacer_max_late_ns: u64,
    calibration: TimerCalibration,
}

/// Fold the per-stage raw runs into [`ExecMetrics`] (enforced path).
fn assemble_metrics(args: AssembleArgs<'_>) -> ExecMetrics {
    let AssembleArgs {
        strategy,
        topology,
        config,
        stage_runs,
        lineage,
        arrivals_cycles,
        scale,
        wall_elapsed_ns,
        pacer_max_late_ns,
        calibration,
        ..
    } = args;
    let n = topology.len();

    let mut horizon_ns = 0u64;
    for origin in 0..config.stream_length {
        if let Some(c) = lineage.completion(origin) {
            horizon_ns = horizon_ns.max(c);
        }
    }
    let horizon_cycles = (horizon_ns as f64 / scale).max(1.0);

    // Active time: every burn clipped at the horizon (post-drain empty
    // firings while the close cascade propagates fall outside it, just
    // as the simulator stops firing once every input resolves).
    let mut ledger = ActiveTimeLedger::new(n);
    for (i, run) in stage_runs.iter().enumerate() {
        for &(s, e) in &run.burns {
            let clipped = e.min(horizon_ns).saturating_sub(s.min(horizon_ns));
            if clipped > 0 {
                ledger.record_firing(i, clipped as f64 / scale, 1);
            }
        }
    }
    ledger.set_horizon(horizon_cycles);
    let active_fraction = ledger.active_fraction();

    // Nonempty active fraction: scale each stage's busy time by its
    // fraction of nonempty firings (every firing burns the same
    // service time, so the ratio is exact).
    let mut busy_nonempty_cycles = 0.0;
    for run in stage_runs.iter() {
        let busy: u64 = run
            .burns
            .iter()
            .map(|&(s, e)| e.min(horizon_ns).saturating_sub(s.min(horizon_ns)))
            .sum();
        let nonempty_frac = if run.fired > 0 {
            (run.fired - run.empty_firings) as f64 / run.fired as f64
        } else {
            0.0
        };
        busy_nonempty_cycles += busy as f64 / scale * nonempty_frac;
    }
    let active_fraction_nonempty = busy_nonempty_cycles / (n as f64 * horizon_cycles);

    let mut latency = OnlineStats::new();
    let mut misses = 0u64;
    let mut completed = 0u64;
    let mut dropped = 0u64;
    for (origin, &arr) in arrivals_cycles.iter().enumerate() {
        match lineage.completion(origin) {
            Some(c_ns) => {
                completed += 1;
                let lat = (c_ns as f64 / scale) - arr as f64;
                latency.push(lat);
                misses += u64::from(lat > config.deadline);
            }
            None => {
                dropped += 1;
                misses += 1;
            }
        }
    }

    let stages: Vec<ExecStageReport> = stage_runs
        .iter()
        .enumerate()
        .map(|(i, run)| {
            let busy_ns: u64 = run
                .burns
                .iter()
                .map(|&(s, e)| e.min(horizon_ns).saturating_sub(s.min(horizon_ns)))
                .sum();
            ExecStageReport {
                name: topology.node(i).name.clone(),
                fired: run.fired,
                empty_firings: run.empty_firings,
                items_consumed: run.items_consumed,
                items_emitted: run.items_emitted,
                occupancy: run.occupancy.clone(),
                sojourn_cycles: scaled_summary(&run.sojourn_ns, scale),
                queue_depth: summary_of(&run.depth, run.max_queue_depth as f64),
                max_queue_depth: run.max_queue_depth,
                busy_fraction: (busy_ns as f64 / scale) / horizon_cycles,
                send_blocked_ns: run.send_blocked_ns,
            }
        })
        .collect();

    ExecMetrics {
        strategy: strategy.into(),
        items_arrived: arrivals_cycles.len() as u64,
        items_completed: completed,
        items_dropped: dropped,
        deadline_misses: misses,
        active_fraction,
        active_fraction_nonempty,
        latency,
        stages,
        horizon_cycles,
        wall_elapsed_ns,
        time_scale_ns_per_cycle: scale,
        pacer_max_late_ns,
        calibration,
    }
}
