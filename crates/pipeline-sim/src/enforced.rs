//! Discrete-event execution of an enforced-waits schedule.
//!
//! Every node `n_i` fires strictly periodically: at each fire it
//! consumes up to `v` items from its input queue, occupies the processor
//! (under its share) for `t_i`, delivers its outputs to the next queue
//! at firing completion, and fires again exactly `t_i + w_i` after the
//! previous fire began — the paper's "fires, then waits exactly `w_i`"
//! semantics. Firings with empty input queues still happen and are
//! charged as active time under the paper's analysis convention (the
//! alternative "vacation" accounting is reported alongside).
//!
//! Determinism: events at the same timestamp are processed in class
//! order — arrivals and deliveries first, then fires — so an item that
//! arrives exactly when a node fires is visible to that firing.
//!
//! The core routes firings along a [`Topology`]'s out-edges: each firing
//! draws one gain batch per out-edge (from that edge's dedicated RNG
//! substream), Bernoulli-thins it by the edge's routing weight when the
//! weight is below 1, and delivers one batch per edge at firing
//! completion; fan-in nodes simply receive deliveries from several
//! producers into the same queue. A linear chain is the one-out-edge
//! special case: a chain caller passes [`Topology::chain`], whose edge
//! `i` has the substream label the per-stage chain implementation used,
//! so the chain path is bit-identical to the frozen scalar reference.
//!
//! # The streaming kernel
//!
//! One event loop serves the one entry point, [`simulate`]; the optional
//! layers arrive in one [`Hooks`] bundle of `Option`s. Per firing, the
//! kernel works in batch passes over flat lanes, not per-item calls, and
//! five things keep its per-item cost and footprint low.
//!
//! * **Bulk arrival drain.** Stream arrivals are a sorted lane, not
//!   calendar events, and they feed the topology's source. At an instant
//!   with no calendar event, nothing but arrivals can happen before the
//!   next calendar event, so every arrival up to it is taken in one step:
//!   one chunked count to find its end, one origin range into the source
//!   queue, one high-water update — and nothing per origin in the lineage
//!   window (see below). This keeps the order within an instant
//!   (arrivals, then deliveries, then fires) because no delivery or fire
//!   is passed over; at an instant that has calendar events, only that
//!   instant's arrivals are drained, before its events run. The one event
//!   an arrival can create is the wake of a dormant source under
//!   [`FiringDiscipline::Vacation`]: the wake fire is due at the
//!   arrival's own instant, so the drain stops after that instant's
//!   arrivals and the fire runs next. Per-arrival hooks still see each
//!   arrival inside the drain, with the queue depth and high-water marks
//!   it left: obs and spans run once per item, and live records the run
//!   as its per-item calls would, ticking where they would.
//! * **Run-wise stressed admission.** Under fault injection, admission
//!   control tests each arrival against the queues and high-water marks
//!   it finds, but during a drain only the source queue's length and
//!   mark move, and the tests read them only through `⌈len/v⌉` and
//!   `⌈mark/v⌉`. So one decision covers a run of arrivals. A shed
//!   changes no state: unless the next arrival escalates, the rest of
//!   the drain is shed in one step (`LineageWindow::arrive_shed_run`).
//!   An admitted run ends where the shed test's source term would
//!   change (the queue's next vector boundary), where the escalation
//!   test's mark would leave its vector, or after one arrival when the
//!   next escalates; a dormant source also caps it at the instant's
//!   arrivals. Re-solves still run one arrival at a time. Obs and live
//!   see each shed arrival as before.
//! * **Width-aware routing.** Per out-edge, one pass over the consumed
//!   slice draws the gains into a count lane and appends the outputs.
//!   The writes follow the edge's largest count, read once per run from
//!   [`GainSampler::max_count`]: a law with at most one output per item
//!   stores the origin and bumps the cursor by the count; a wider law
//!   stores a fixed 8-slot run of the origin and bumps by the count, so
//!   no item branches on its own draw (only a count above 8 takes a slow
//!   path). An edge thinned by a routing weight below 1 draws the batch's
//!   keep bits into one flat lane and reads each item's kept count off
//!   its running sum ([`thin_counts`]), and an empirical law samples
//!   from a cut table (see [`GainSampler`]): no loop's length depends on
//!   an item's draw.
//! * **Lane-wise settling.** One more pass settles the consumed items'
//!   lineage from the count lane. The source is every input's first
//!   consume, so it *stores* the live count; a source firing that took a
//!   run of consecutive origins — every one, unless admission shed some —
//!   is two ring-slice copies and a fill (see `LineageWindow::enter_all`).
//!   Later stages update the live count item by item.
//! * **In-flight lineage window.** `LineageWindow` holds only the
//!   origins from the lowest unresolved one to the last arrived, in a
//!   ring that doubles when full. After each firing that resolved an
//!   input, the resolved prefix below the oldest input still waiting at
//!   the source is handed out as at most two ring slices of completion
//!   cycles; each becomes a latency lane (shed inputs dropped) that feeds
//!   the moments in one `extend_from_slice` and the miss count in one
//!   pass. Span tracing needs each input's fate, so a traced run goes
//!   input by input. At run end the rest is folded with unresolved inputs
//!   counted as dropped. Every input is folded exactly once and in origin
//!   order, so the latency samples are the sequence of one pass over the
//!   whole stream; the chunked moments (`des::stats::MomentAccumulator`)
//!   depend on that sequence alone, so they are bit-identical to the
//!   reference, which keeps per-input lanes for the whole stream.

use crate::config::{FiringDiscipline, SimConfig};
use crate::faults::{FaultState, MitigationPolicy, FAULT_ARRIVAL_STREAM};
use crate::hooks::{Hooks, SimError};
use crate::item::LineageWindow;
use crate::metrics::SimMetrics;
use crate::soa::SoaQueue;
use dataflow_model::gain::{thin_counts, unit_threshold};
use dataflow_model::{GainSampler, RtParams, Topology};
use des::calendar::Calendar;
use des::clock::SimTime;
use des::obs::ObsSink;
use des::rng::RngStream;
use des::stats::MomentAccumulator;
use obs_trace::{ItemFate, ItemVisit, SpanSink, Track};
use rtsdf_core::WaitSchedule;
use simd_device::{ActiveTimeLedger, OccupancyStats};
use std::collections::VecDeque;

/// Calendar event classes, in intra-timestamp processing order.
///
/// Stream arrivals are *not* calendar events: they are precomputed and
/// merged into the event loop from a sorted cursor (class 0, before any
/// calendar event at the same instant — the order the old
/// all-in-calendar implementation produced), which keeps thousands of
/// one-shot arrival entries out of the binary heap entirely.
#[derive(Debug, Clone)]
enum Ev {
    /// Outputs of an upstream firing land in a node's input queue. The
    /// payload is the flat origin lane of the delivered batch (SoA: no
    /// per-item struct), recycled through the buffer pool.
    Deliver { node: usize, origins: Vec<u64> },
    /// A node's periodic firing.
    Fire { node: usize },
}

impl Ev {
    fn class(&self) -> u8 {
        match self {
            Ev::Deliver { .. } => 0,
            Ev::Fire { .. } => 1,
        }
    }
}

/// Stable in-place insertion sort of a same-timestamp batch by event
/// class. Batches are tiny (a handful of events per instant), and the
/// standard stable sort allocates a merge buffer for slices longer than
/// its insertion threshold — this keeps the hot loop allocation-free
/// while preserving the FIFO order within each class that determinism
/// depends on.
fn sort_batch_by_class(batch: &mut [Ev]) {
    for i in 1..batch.len() {
        let mut j = i;
        while j > 0 && batch[j - 1].class() > batch[j].class() {
            batch.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Simulate one run of `schedule` on `topology` with deadline
/// `deadline`, with the optional layers in `hooks`.
///
/// Firings are routed along the topology's out-edges: each out-edge
/// draws its own stochastic gain per consumed item (from a dedicated
/// RNG substream), thins the outputs by the edge's routing weight, and
/// delivers the surviving batch to its destination node at firing
/// completion. Fan-in nodes merge deliveries from all producers into a
/// single FIFO input queue. An item is complete when every output it
/// spawned — across all edges — has been resolved. On
/// [`Topology::chain`] this is bit-identical to the frozen chain
/// reference.
///
/// Under [`Hooks::faults`] the perturbation's faults land on the run and
/// the policy selects the mitigations:
///
/// * **load shedding** — an arrival observed during overload (some
///   queue above its design backlog factor) whose predicted latency
///   exceeds the deadline is rejected at admission and counted in
///   [`SimMetrics::items_shed`];
/// * **escalation** — when the backlog high-water mark exceeds the
///   design factors, the waits are re-solved at the observed ceilings
///   (the DAG solver, which delegates to the chain solver on chains)
///   and the node periods are updated mid-run; [`SimMetrics::resolves`]
///   counts the re-solves.
///
/// # Errors
/// [`SimError::ScheduleLength`] if the schedule's periods or backlog
/// factors do not have one entry per node, [`SimError::ObsSinkLength`]
/// if the obs sink is sized for another topology, and
/// [`SimError::InvalidPerturbation`] if the perturbation fails
/// [`Perturbation::validate`](dataflow_model::Perturbation::validate).
pub fn simulate(
    topology: &Topology,
    schedule: &WaitSchedule,
    deadline: f64,
    config: &SimConfig,
    hooks: Hooks<'_>,
) -> Result<SimMetrics, SimError> {
    let nodes = topology.len();
    for got in [schedule.periods.len(), schedule.backlog_factors.len()] {
        if got != nodes {
            return Err(SimError::ScheduleLength { nodes, got });
        }
    }
    hooks.check(nodes)?;
    let samplers = hooks.samplers(topology)?;
    Ok(simulate_enforced_full(
        topology, schedule, deadline, config, &samplers, hooks,
    ))
}

/// Mutable per-run state of the fault-injection / mitigation layer.
struct StressState {
    faults: FaultState,
    policy: MitigationPolicy,
    /// Real-time parameters for escalation re-solves (`None` disables
    /// escalation, e.g. when the deadline is not a valid `RtParams`).
    params: Option<RtParams>,
    /// Factors the *current* periods were solved for; raised by each
    /// escalation so the trigger re-arms at the new level.
    design_b: Vec<f64>,
    items_shed: u64,
    resolves: u64,
    /// Set after an infeasible re-solve: keep the current schedule and
    /// stop escalating.
    escalation_dead: bool,
}

impl StressState {
    /// The policy escalates, and neither the re-solve budget nor an
    /// infeasible re-solve has stopped it.
    fn escalation_armed(&self) -> bool {
        self.policy.escalate
            && !self.escalation_dead
            && self.resolves < u64::from(self.policy.max_resolves)
    }

    /// Escalation is due: it is armed, and some node's backlog
    /// high-water mark, in vectors, exceeds the factor the running
    /// periods were solved for (plus headroom).
    fn escalation_due(&self, max_depth: &[u64], v: u32) -> bool {
        self.escalation_armed()
            && max_depth
                .iter()
                .zip(&self.design_b)
                .any(|(&d, &b)| (d as f64 / v as f64).ceil() > b + self.policy.escalate_headroom)
    }

    /// Re-solve the waits at the observed backlog ceilings and adopt the
    /// new periods; after an infeasible re-solve (or without valid
    /// real-time parameters), keep the current schedule and stop trying.
    fn escalate(
        &mut self,
        topology: &Topology,
        max_depth: &[u64],
        v: u32,
        periods: &mut [u64],
        service: &[u64],
    ) {
        let Some(params) = self.params else {
            self.escalation_dead = true;
            return;
        };
        let observed: Vec<f64> = max_depth
            .iter()
            .map(|&d| (d as f64 / v as f64).ceil())
            .collect();
        match rtsdf_core::escalate_schedule(topology, params, &self.design_b, &observed) {
            Ok(new_sched) => {
                self.resolves += 1;
                for (p, (&x, &t)) in periods
                    .iter_mut()
                    .zip(new_sched.periods.iter().zip(service))
                {
                    *p = (x.round() as u64).max(t);
                }
                self.design_b = new_sched.backlog_factors;
            }
            Err(_) => self.escalation_dead = true,
        }
    }

    /// Deadline-aware load shedding: an arrival is rejected when some
    /// queue, counting the arrival at the source, is above its design
    /// factor (in vectors) and the latency predicted from the queue
    /// depths (floored at the design factors) exceeds the deadline.
    fn sheds(
        &self,
        queues: &[SoaQueue<u64>],
        src: usize,
        v: u32,
        periods: &[u64],
        deadline: f64,
    ) -> bool {
        let mut overload = false;
        let mut predicted = 0.0;
        for (i, (&period, &b)) in periods.iter().zip(&self.design_b).enumerate() {
            let q = queues[i].len() as u64 + u64::from(i == src);
            let obs = (q as f64 / v as f64).ceil();
            if obs > b {
                overload = true;
            }
            predicted += period as f64 * obs.max(b);
        }
        overload && predicted > deadline
    }
}

/// How many consecutive admitted arrivals, the first finding the source
/// queue at `len`, see the shed test's source term `⌈q_src/v⌉`
/// unchanged: the `a`-th (from 0) counts `q_src = len + a + 1`, so the
/// run reaches the queue's next vector boundary.
fn same_shed_test(len: u64, v: u64) -> u64 {
    (len + 1).div_ceil(v) * v - len
}

/// How many consecutive admitted arrivals, the first finding the source
/// queue at `len` and its high-water mark at `mark` (never below `len`),
/// see the escalation test's `⌈mark/v⌉` unchanged: the `a`-th (from 0)
/// finds the mark at `max(mark, len + a)`.
fn same_escalation_test(mark: u64, len: u64, v: u64) -> u64 {
    mark.div_ceil(v) * v + 1 - len
}

/// Round generated arrival times onto the integer clock, never moving
/// backwards. Collecting the vector's own `into_iter` reuses its
/// allocation (`f64` and [`SimTime`] have the same size and alignment),
/// so a run holds one arrival lane, not a float lane and a cycle lane.
fn round_onto_clock(arrivals: Vec<f64>) -> Vec<SimTime> {
    let mut last = 0u64;
    arrivals
        .into_iter()
        .map(|t| {
            let c = round_to_cycles(t).max(last);
            last = c;
            SimTime::from_cycles(c)
        })
        .collect()
}

/// `t.round() as u64` without the `round` library call (the baseline
/// x86-64 target has no rounding instruction, and a million calls were
/// a tenth of a run). On `[0, 2^52)`, `t - trunc(t)` is exactly
/// representable, so comparing it with 0.5 rounds half away from zero
/// as `round` does; anything else takes the library path.
#[inline]
fn round_to_cycles(t: f64) -> u64 {
    if (0.0..4_503_599_627_370_496.0).contains(&t) {
        let whole = t as i64;
        (whole + i64::from(t - whole as f64 >= 0.5)) as u64
    } else {
        t.round() as u64
    }
}

/// First index at or after `from` whose arrival is not before `limit`
/// (`arrivals` is sorted). Steps from `from` a chunk at a time — a
/// chunk whose last arrival is before `limit` lies wholly before it —
/// and counts the last chunk branch-free, so a drain of `k` arrivals
/// costs `k / ARRIVAL_CHUNK` predictable steps and one count instead of
/// a search's mispredicted probes. (The drain itself is `O(k)`.)
fn arrivals_before(arrivals: &[SimTime], from: usize, limit: SimTime) -> usize {
    let mut at = from;
    while let Some(chunk) = arrivals.get(at..at + ARRIVAL_CHUNK) {
        if chunk[ARRIVAL_CHUNK - 1] >= limit {
            break;
        }
        at += ARRIVAL_CHUNK;
    }
    let end = (at + ARRIVAL_CHUNK).min(arrivals.len());
    at + arrivals[at..end].iter().filter(|&&a| a < limit).count()
}

/// Arrivals [`arrivals_before`] steps over at a time.
const ARRIVAL_CHUNK: usize = 16;

/// Output slots an item of a wide law writes unconditionally.
const SPREAD: usize = 8;

/// What routing along one out-edge reads, fixed for the run.
struct EdgeRoute<'a> {
    sampler: &'a GainSampler,
    /// The sampler's [`max_count`](GainSampler::max_count), which picks
    /// the routing writes.
    width: u32,
    /// The routing weight's [`unit_threshold`], when the weight is below
    /// 1 (never on a chain).
    thin: Option<u64>,
}

/// One out-edge of a firing, in one pass over the consumed slice: draw
/// the batch's gains from the edge's substream into `counts`, thin them
/// in place when the routing weight is below 1 (one draw per drawn
/// output, item by item, after the gain draws, made as one flat lane by
/// [`thin_counts`] in `lane`), and append each item's kept outputs to
/// `outs`.
///
/// The writes depend on the edge's `width`, so that no item branches on
/// its own count:
///
/// * `width <= 1`: a store plus a conditional bump of the write cursor;
///   `outs` holds one slot per item.
/// * wider: a fixed [`SPREAD`]-slot run of the origin, then a bump by
///   the count; only a count above `SPREAD` takes a slow path. The
///   invariant `outs.len() >= pos + SPREAD + (remaining items) · w`,
///   with `w = min(width, SPREAD)`, keeps the run in bounds.
#[inline(always)]
fn route_edge(
    &EdgeRoute {
        sampler,
        width,
        thin,
    }: &EdgeRoute<'_>,
    rng: &mut RngStream,
    consumed: &[u64],
    counts: &mut Vec<u32>,
    lane: &mut Vec<u32>,
    outs: &mut Vec<u64>,
) {
    let take = consumed.len();
    counts.clear();
    counts.resize(take, 0);
    sampler.sample_batch(rng, counts);
    if let Some(threshold) = thin {
        // Never taken on chain topologies (weight == 1), so the chain
        // draw sequence is unchanged.
        thin_counts(rng, threshold, counts, lane);
    }
    let mut pos = 0usize;
    outs.clear();
    if width <= 1 {
        outs.resize(take, 0);
        for (&origin, &k) in consumed.iter().zip(counts.iter()) {
            outs[pos] = origin;
            pos += k as usize;
        }
    } else {
        let w = (width as usize).min(SPREAD);
        outs.resize(SPREAD + take * w, 0);
        for (i, (&origin, &k)) in consumed.iter().zip(counts.iter()).enumerate() {
            outs[pos..pos + SPREAD].copy_from_slice(&[origin; SPREAD]);
            if k as usize > SPREAD {
                let need = pos + k as usize + SPREAD + (take - i - 1) * w;
                if outs.len() < need {
                    outs.resize(need, 0);
                }
                outs[pos + SPREAD..pos + k as usize].fill(origin);
            }
            pos += k as usize;
        }
    }
    outs.truncate(pos);
}

/// Deadline accounting of resolved inputs, fed in origin order as the
/// lineage window slides. Folding in origin order is the push sequence
/// of one pass over the whole stream, and the chunked moments depend on
/// that sequence alone, so they are bit-identical to it.
struct Tally {
    deadline: f64,
    latency: MomentAccumulator,
    misses: u64,
    dropped: u64,
    /// Whether admission control may shed inputs, whose slots resolve
    /// but are no latency samples.
    may_shed: bool,
    /// Reusable latency lane of one resolved run.
    lane: Vec<f64>,
}

impl Tally {
    /// The resolved prefix the lineage window handed out: inputs
    /// `first..` in origin order, with their completion stamps in at
    /// most two ring slices. Without span tracing, each slice becomes
    /// one latency lane — shed slots, if any may occur, dropped
    /// branch-free — that feeds the moments in one `extend_from_slice`
    /// (the same samples in the same order as one push each) and the
    /// miss count in one pass. Span tracing needs each input's fate, so
    /// it goes input by input.
    fn resolved_run(
        &mut self,
        first: u64,
        completions: [&[u64]; 2],
        arrivals: &[SimTime],
        mut spans: Option<&mut SpanSink>,
    ) {
        let mut origin = first as usize;
        for part in completions {
            let arrived = &arrivals[origin..origin + part.len()];
            if spans.is_some() {
                for (j, (&at, &c)) in arrived.iter().zip(part).enumerate() {
                    self.resolved((origin + j) as u64, at, c, spans.as_deref_mut());
                }
            } else {
                self.lane.clear();
                if self.may_shed {
                    self.lane.resize(part.len(), 0.0);
                    let mut n = 0;
                    for (&at, &c) in arrived.iter().zip(part) {
                        self.lane[n] = c.wrapping_sub(at.cycles()) as f64;
                        n += usize::from(c != LineageWindow::SHED);
                    }
                    self.lane.truncate(n);
                } else {
                    let lats = arrived
                        .iter()
                        .zip(part)
                        .map(|(&at, &c)| (c - at.cycles()) as f64);
                    self.lane.extend(lats);
                }
                let deadline = self.deadline;
                self.misses += self.lane.iter().filter(|&&l| l > deadline).count() as u64;
                self.latency.extend_from_slice(&self.lane);
            }
            origin += part.len();
        }
    }

    /// Input `origin`, arrived at `arrival`, resolved at cycle
    /// `completion` (or was shed: then it is neither a completion, a
    /// miss, nor a latency sample).
    #[inline]
    fn resolved(
        &mut self,
        origin: u64,
        arrival: SimTime,
        completion: u64,
        spans: Option<&mut SpanSink>,
    ) {
        if completion == LineageWindow::SHED {
            return;
        }
        let lat = (completion - arrival.cycles()) as f64;
        self.latency.push(lat);
        self.misses += u64::from(lat > self.deadline);
        if let Some(sink) = spans {
            sink.fate(ItemFate {
                origin,
                arrival: arrival.as_f64(),
                completion: Some(completion as f64),
            });
        }
    }

    /// Input `origin` was unresolved at the safety horizon: dropped, and
    /// counted as a miss.
    fn unresolved(
        &mut self,
        origin: u64,
        arrival: SimTime,
        obs: Option<&mut ObsSink>,
        spans: Option<&mut SpanSink>,
    ) {
        self.misses += 1;
        self.dropped += 1;
        if let Some(sink) = obs {
            sink.on_drop();
        }
        if let Some(sink) = spans {
            sink.fate(ItemFate {
                origin,
                arrival: arrival.as_f64(),
                completion: None,
            });
        }
    }
}

/// Full-generality core behind [`simulate`], which has checked its
/// input: aggregate observability (`obs`), causal span tracing
/// (`spans`), fault injection (`stress_spec`), and live metrics (`live`)
/// are independent branch-on-`Option` layers; any `None` costs one
/// untaken branch per hook.
fn simulate_enforced_full(
    topology: &Topology,
    schedule: &WaitSchedule,
    deadline: f64,
    config: &SimConfig,
    samplers: &[GainSampler],
    Hooks {
        mut obs,
        mut spans,
        live,
        faults: stress_spec,
    }: Hooks<'_>,
) -> SimMetrics {
    let n = topology.len();
    let v = topology.vector_width();
    // Stream arrivals feed the source, which no edge reaches.
    let src = topology.source();
    let service: Vec<u64> = topology
        .service_times()
        .iter()
        .map(|&t| (t.round() as u64).max(1))
        .collect();
    // Integer firing periods; never below the service time. Mutable
    // because the escalation mitigation may re-solve them mid-run.
    let mut periods: Vec<u64> = schedule
        .periods
        .iter()
        .zip(&service)
        .map(|(&x, &t)| (x.round() as u64).max(t))
        .collect();

    let master = RngStream::new(config.seed);
    let mut arrival_rng = master.substream(0);
    // One gain substream per *edge*, in declaration order. For a chain
    // built by `Topology::chain`, edge `i` is `i → i+1`, so its label
    // `1 + i` is exactly the label the per-stage implementation used —
    // the draw sequence (and therefore every metric) is unchanged.
    let mut gain_rngs: Vec<RngStream> = (0..topology.edges().len())
        .map(|e| master.substream(1 + e as u64))
        .collect();

    // Precompute arrival times.
    let mut arrivals_f = config
        .arrivals
        .generate(config.stream_length, &mut arrival_rng);
    // Fault-injection layer: arrival faults are applied to the
    // precomputed times from a dedicated substream (the model's own
    // arrival/gain streams are untouched, so intensity 0 reproduces the
    // unperturbed run bit for bit).
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
            items_shed: 0,
            resolves: 0,
            escalation_dead: false,
        }
    });
    let arrivals = round_onto_clock(arrivals_f);
    let last_arrival = arrivals.last().copied().unwrap_or(SimTime::ZERO);
    let safety_horizon =
        last_arrival.saturating_add(SimTime::from_f64_rounded(config.drain_factor * deadline));

    // Arrivals stay in their sorted vector and are merged into the
    // event loop from a cursor; only firings and deliveries go through
    // the calendar. This keeps the heap a handful of entries deep
    // (instead of `stream_length` pre-scheduled arrivals), which was
    // the dominant cost of the scalar event loop.
    let mut next_arrival = 0usize;
    let mut cal: Calendar<Ev> = Calendar::with_capacity(n * 2 + 64);
    for node in 0..n {
        cal.schedule(SimTime::ZERO, Ev::Fire { node });
    }

    // Per-edge routing: the sampler, its largest output count, and the
    // routing-weight thinning threshold (`None` at weight 1, which every
    // chain edge has).
    let routes: Vec<EdgeRoute<'_>> = topology
        .edges()
        .iter()
        .zip(samplers)
        .map(|(e, sampler)| EdgeRoute {
            sampler,
            width: sampler.max_count(),
            thin: (e.weight < 1.0).then(|| unit_threshold(e.weight)),
        })
        .collect();

    // Per-stage input queues in structure-of-arrays form: one flat
    // origin lane per stage (deadlines attach to the ancestral stream
    // input, so origin is the only per-item attribute the hot loop
    // needs — an item's arrival time is `arrivals[origin]`). A firing
    // consumes its `take` oldest items as one contiguous slice.
    let mut queues: Vec<SoaQueue<u64>> = (0..n)
        .map(|_| SoaQueue::with_capacity(v as usize * 2))
        .collect();
    // Free-list of `Deliver` payload buffers: every delivered batch hands
    // its (emptied) Vec back here, and every firing that emits outputs
    // pops one instead of allocating. After warm-up the steady-state hot
    // loop allocates nothing per item.
    let mut vec_pool: Vec<Vec<u64>> = Vec::new();
    // Reusable per-firing output-count lane of one edge (one entry per
    // consumed item).
    let mut gains_buf: Vec<u32> = Vec::with_capacity(v as usize);
    // Reusable keep-bit lane of routing-weight thinning.
    let mut thin_buf: Vec<u32> = Vec::new();
    // Per-item output total over all of a fan-out node's out-edges (an
    // input resolves only when *all* its outputs on every edge are
    // resolved).
    let mut ktot_buf: Vec<u32> = Vec::with_capacity(v as usize);
    // Parallel per-stage enqueue-timestamp lanes for sojourn
    // measurement, plus a reusable batch buffer for the samples;
    // allocated only when the observability layer is on.
    let mut enq_times: Vec<SoaQueue<SimTime>> = if obs.is_some() {
        (0..n).map(|_| SoaQueue::new()).collect()
    } else {
        Vec::new()
    };
    let mut soj_buf: Vec<f64> = Vec::new();
    // Span-tracing state, allocated only when tracing: per-stage queues
    // of (origin, enqueued, eligible) mirroring `queues`, plus each
    // node's next scheduled firing instant. `eligible` — the first
    // firing opportunity at or after enqueue — is exact because at most
    // one Fire event per node is ever pending: strictly periodic
    // refires are scheduled one at a time, and a dormant node's wake
    // fires at the wake instant itself (its stale `next_fire` is in the
    // past, so `max(now, next_fire)` correctly yields `now`).
    let mut span_queue: Vec<VecDeque<(u64, SimTime, SimTime)>> = if spans.is_some() {
        (0..n).map(|_| VecDeque::new()).collect()
    } else {
        Vec::new()
    };
    let mut next_fire: Vec<SimTime> = if spans.is_some() {
        vec![SimTime::ZERO; n]
    } else {
        Vec::new()
    };
    let mut max_depth = vec![0u64; n];
    // Vacation discipline: a dormant node skipped its firing on an
    // empty queue and is waiting for input to wake it.
    let mut dormant = vec![false; n];
    let mut lineage = LineageWindow::new(config.stream_length);
    let mut tally = Tally {
        deadline,
        latency: MomentAccumulator::new(),
        misses: 0,
        dropped: 0,
        may_shed: stress.as_ref().is_some_and(|st| st.policy.shed),
        lane: Vec::new(),
    };
    let mut ledger = ActiveTimeLedger::new(n);
    let mut occupancy: Vec<OccupancyStats> = (0..n).map(|_| OccupancyStats::new()).collect();
    let mut last_completion = SimTime::ZERO;
    let mut truncated = false;

    // Batch of same-timestamp calendar events, processed deliveries →
    // fires for deterministic intra-instant semantics. Arrivals at the
    // same instant are drained from the cursor first (they were class 0
    // when they lived in the calendar), so an item that arrives exactly
    // when a node fires is visible to that firing.
    let mut batch: Vec<Ev> = Vec::new();
    loop {
        let cal_next = cal.peek_time();
        let arr_next = arrivals.get(next_arrival).copied();
        let now = match (arr_next, cal_next) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => break,
        };
        if now > safety_horizon {
            truncated = true;
            break;
        }
        // The arrivals this iteration drains. With a calendar event at
        // `now`, that is the arrivals at `now`, and the events are
        // collected *before* the drain, so a dormant-node wake scheduled
        // by one of these arrivals runs in the next iteration (still at
        // `now`) — the order the all-in-calendar implementation
        // produced. Without one, nothing but arrivals can happen before
        // the next calendar event, so every arrival up to it is drained
        // in one step (the bulk drain; see the module docs).
        let mut end = if cal_next == Some(now) {
            batch.clear();
            while cal.peek_time() == Some(now) {
                batch.push(cal.pop().expect("peeked").payload);
            }
            sort_batch_by_class(&mut batch);
            arrivals_before(&arrivals, next_arrival, now + SimTime::from_cycles(1))
        } else {
            cal_next.map_or(arrivals.len(), |c| {
                arrivals_before(&arrivals, next_arrival, c)
            })
        };

        // Class 0: stream arrivals, in origin (FIFO) order, entering
        // the lineage window and the source queue as origin ranges.
        while next_arrival < end {
            let start = next_arrival;
            let at = arrivals[start];
            // The arrivals `start..stop` join the source as one origin
            // range: all of the drain, unless admission control or a
            // dormant source ends the run sooner.
            let mut stop = end;
            if let Some(st) = stress.as_mut() {
                // During a drain only the source queue and its
                // high-water mark move, so admission is decided once per
                // run of arrivals that see the same state (see the
                // module docs). Escalation re-solves one arrival at a
                // time; `due` says whether the next arrival escalates.
                let mut due = st.escalation_due(&max_depth, v);
                if due {
                    st.escalate(topology, &max_depth, v, &mut periods, &service);
                    due = st.escalation_due(&max_depth, v);
                }
                if st.policy.shed && st.sheds(&queues, src, v, &periods, deadline) {
                    // A shed changes no state, so every arrival left in
                    // the drain is shed too, unless the next escalates.
                    // The item still resolves in the lineage window — as
                    // shed, not completed.
                    let run = if due { 1 } else { end - start };
                    st.items_shed += run as u64;
                    if obs.is_some() || live.is_some() {
                        for _ in 0..run {
                            if let Some(sink) = obs.as_deref_mut() {
                                sink.on_event();
                            }
                            if let Some(l) = live {
                                if l.on_arrival() {
                                    l.tick(&max_depth);
                                }
                                l.on_shed();
                            }
                        }
                    }
                    lineage.arrive_shed_run(run as u64);
                    next_arrival += run;
                    continue;
                }
                let (len, v) = (queues[src].len() as u64, u64::from(v));
                let mut run = if due { 1 } else { (end - start) as u64 };
                if st.policy.shed {
                    run = run.min(same_shed_test(len, v));
                }
                if st.escalation_armed() {
                    run = run.min(same_escalation_test(max_depth[src], len, v));
                }
                stop = start + run as usize;
            }
            if dormant[src] {
                // The arrival wakes the source, whose fire is due at this
                // instant: only the instant's arrivals come first.
                stop = stop.min(arrivals_before(
                    &arrivals,
                    start,
                    at + SimTime::from_cycles(1),
                ));
            }
            let base = queues[src].len();
            lineage.arrive_until(stop as u64);
            queues[src].extend(start as u64..stop as u64);
            if let Some(l) = live {
                l.on_arrival_run((stop - start) as u64, |i| {
                    // The marks as arrival `i` found them.
                    max_depth[src] = max_depth[src].max(base as u64 + i);
                    l.tick(&max_depth);
                });
            }
            if obs.is_some() || spans.is_some() {
                for (i, origin) in (start..stop).enumerate() {
                    let t = arrivals[origin];
                    if let Some(sink) = obs.as_deref_mut() {
                        sink.on_event();
                        sink.on_enqueue(src, 1, base + i + 1);
                        enq_times[src].push_back(t);
                    }
                    if spans.is_some() {
                        span_queue[src].push_back((origin as u64, t, t.max(next_fire[src])));
                    }
                }
            }
            // No queue shrinks during a drain: the range's high-water
            // mark is the queue's length after it.
            max_depth[src] = max_depth[src].max(queues[src].len() as u64);
            next_arrival = stop;
            if dormant[src] {
                // Wake: the mandatory period already elapsed when the
                // node went dormant, so firing now is legal. The drain
                // ends with this instant's arrivals.
                dormant[src] = false;
                cal.schedule(at, Ev::Fire { node: src });
                end = end.min(arrivals_before(
                    &arrivals,
                    next_arrival,
                    at + SimTime::from_cycles(1),
                ));
            }
        }

        // Classes 1–2: this instant's deliveries, then fires.
        for ev in batch.drain(..) {
            if let Some(sink) = obs.as_deref_mut() {
                sink.on_event();
            }
            match ev {
                Ev::Deliver { node, mut origins } => {
                    let delivered = origins.len() as u64;
                    if spans.is_some() {
                        let eligible = now.max(next_fire[node]);
                        for &origin in &origins {
                            span_queue[node].push_back((origin, now, eligible));
                        }
                    }
                    queues[node].extend_from_slice(&origins);
                    // Recycle the emptied payload buffer for a later
                    // firing's outputs.
                    origins.clear();
                    vec_pool.push(origins);
                    max_depth[node] = max_depth[node].max(queues[node].len() as u64);
                    if let Some(sink) = obs.as_deref_mut() {
                        sink.on_enqueue(node, delivered, queues[node].len());
                        enq_times[node].push_n(now, delivered as usize);
                    }
                    if dormant[node] {
                        dormant[node] = false;
                        cal.schedule(now, Ev::Fire { node });
                    }
                }
                Ev::Fire { node } => {
                    if config.discipline == FiringDiscipline::Vacation && queues[node].is_empty() {
                        // Vacation: skip the empty firing entirely; the
                        // next arrival/delivery wakes the node.
                        dormant[node] = true;
                        continue;
                    }
                    let take = (v as usize).min(queues[node].len());
                    // Effective service time of this firing: nominal, or
                    // faulted (inflation / tail spike / stall) under
                    // stress — exactly nominal at intensity 0.
                    let svc = match stress.as_mut() {
                        Some(st) => st.faults.service_cycles(node, service[node]),
                        None => service[node],
                    };
                    occupancy[node].record(take as u32, v);
                    ledger.record_firing(node, svc as f64, take as u32);
                    if let Some(sink) = obs.as_deref_mut() {
                        sink.on_fire(node, take, v as usize);
                        // Sojourns of the whole consumed batch in one
                        // pass over the enqueue-time lane.
                        let waited = enq_times[node].take_front(take);
                        soj_buf.clear();
                        soj_buf.extend(waited.iter().map(|&enq| now.since(enq).as_f64()));
                        sink.on_sojourn_batch(node, &soj_buf);
                    }
                    let completion = now + SimTime::from_cycles(svc);
                    if let Some(sink) = spans.as_deref_mut() {
                        sink.span_detail(
                            Track::stage(node),
                            "fire",
                            "firing",
                            format!("take={take}"),
                            now.as_f64(),
                            completion.as_f64(),
                        );
                        for (origin, enq, eligible) in span_queue[node].drain(..take) {
                            sink.visit(ItemVisit {
                                origin,
                                stage: node as u32,
                                enqueued: enq.as_f64(),
                                eligible: eligible.as_f64(),
                                consumed: now.as_f64(),
                                done: completion.as_f64(),
                            });
                        }
                    }
                    if take > 0 {
                        let consumed = queues[node].take_front(take);
                        let at = completion.cycles();
                        // Route along out-edges, one pass per edge (gain
                        // draws in the order of one `sample` per item —
                        // the scalar reference pins this), each staging
                        // one delivery batch and leaving the items'
                        // output counts in a lane; a fan-out node sums
                        // the edges' lanes. A sink node has no out-edges,
                        // so its outputs exit immediately (no draw,
                        // k = 0). Then one pass settles the consumed
                        // items' lineage from the counts.
                        let edges = topology.out_edges(node);
                        let fan_out = edges.len() > 1;
                        if fan_out {
                            ktot_buf.clear();
                            ktot_buf.resize(take, 0);
                        }
                        if edges.is_empty() {
                            gains_buf.clear();
                            gains_buf.resize(take, 0);
                        }
                        for &e in edges {
                            let edge = topology.edge(e);
                            let mut outs = vec_pool.pop().unwrap_or_default();
                            route_edge(
                                &routes[e],
                                &mut gain_rngs[e],
                                consumed,
                                &mut gains_buf,
                                &mut thin_buf,
                                &mut outs,
                            );
                            if fan_out {
                                for (t, &k) in ktot_buf.iter_mut().zip(&gains_buf) {
                                    *t += k;
                                }
                            }
                            if outs.is_empty() {
                                vec_pool.push(outs);
                            } else {
                                cal.schedule(
                                    completion,
                                    Ev::Deliver {
                                        node: edge.dst,
                                        origins: outs,
                                    },
                                );
                            }
                        }
                        let counts = if fan_out { &ktot_buf } else { &gains_buf };
                        let done: u64 = if node == src {
                            lineage.enter_all(consumed, counts, at)
                        } else {
                            let settle =
                                |(&origin, &k): (&u64, &u32)| lineage.consume(origin, k, at);
                            consumed.iter().zip(counts).map(settle).sum()
                        };
                        if done > 0 {
                            last_completion = last_completion.max(completion);
                            if let Some(sink) = obs.as_deref_mut() {
                                sink.on_completions(done);
                            }
                            if let Some(l) = live {
                                l.on_completions(done);
                            }
                            // Inputs still waiting at the source have
                            // not written their lineage slots yet.
                            let frontier = queues[src].as_slice().first().copied();
                            let (first, resolved) =
                                lineage.take_resolved(frontier.unwrap_or(u64::MAX));
                            tally.resolved_run(first, resolved, &arrivals, spans.as_deref_mut());
                        }
                    }
                    // Periodic refire, but only while there is still work
                    // in flight (once every input is resolved the run is
                    // over and further firings would only extend the
                    // horizon without processing anything).
                    if !lineage.all_resolved() {
                        // A faulted firing can outlast the period; the
                        // node cannot re-fire before it completes. At
                        // intensity 0 (and without stress) the period
                        // already dominates the service time, so the
                        // clamp is exact identity.
                        let refire = (now + SimTime::from_cycles(periods[node])).max(completion);
                        if spans.is_some() {
                            next_fire[node] = refire;
                        }
                        cal.schedule(refire, Ev::Fire { node });
                    }
                }
            }
        }
        if lineage.all_resolved() {
            break;
        }
    }

    // Close the window: the rest of the stream in origin order, inputs
    // still unresolved at the safety horizon counted as dropped.
    let all_resolved = lineage.all_resolved();
    let resolved = lineage.resolved();
    lineage.finish(queues[src].as_slice(), |origin, c| {
        let arrival = arrivals[origin as usize];
        match c {
            Some(c) => tally.resolved(origin, arrival, c, spans.as_deref_mut()),
            None => tally.unresolved(origin, arrival, obs.as_deref_mut(), spans.as_deref_mut()),
        }
    });
    let Tally {
        latency,
        misses,
        dropped,
        ..
    } = tally;

    // Live metrics run-end flush: drop totals are only known after the
    // accounting pass, and the final tick publishes the run's closing
    // queue high-water marks and throughput.
    if let Some(l) = live {
        l.on_drops(dropped);
        l.tick(&max_depth);
    }

    let horizon = if all_resolved {
        last_completion.as_f64()
    } else {
        safety_horizon.as_f64()
    }
    .max(1.0);
    ledger.set_horizon(horizon);

    let items_shed = stress.as_ref().map_or(0, |st| st.items_shed);
    SimMetrics {
        items_arrived: arrivals.len() as u64,
        // Shed items resolve in the lineage window (so the run
        // terminates) but were never processed.
        items_completed: resolved - items_shed,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::simulate_enforced_reference;
    use dataflow_model::{GainModel, Perturbation, PipelineSpec, PipelineSpecBuilder, RtParams};
    use obs_trace::{analyze, ForensicsConfig, TraceConfig, TraceLog};
    use rtsdf_core::EnforcedProblem;

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
    fn run_chain(p: &PipelineSpec, sched: &WaitSchedule, d: f64, cfg: &SimConfig) -> SimMetrics {
        simulate(&Topology::chain(p), sched, d, cfg, Hooks::default()).unwrap()
    }

    /// A chain run with span tracing, and its finished trace.
    fn run_traced(
        p: &PipelineSpec,
        sched: &WaitSchedule,
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

    fn schedule(pipeline: &PipelineSpec, tau0: f64, d: f64) -> WaitSchedule {
        let params = RtParams::new(tau0, d).unwrap();
        EnforcedProblem::new(&Topology::chain(pipeline), params, vec![1.0, 3.0, 9.0, 6.0])
            .solve()
            .unwrap()
    }

    #[test]
    fn round_to_cycles_matches_round_then_cast() {
        let edges = [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            4_503_599_627_370_495.5,
            4_503_599_627_370_497.0,
            9.3e18,
            18_446_744_073_709_551_615.0,
            1e300,
            -0.7,
            -2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = RngStream::new(3);
        let random = (0..10_000).map(|i| {
            let scale = 10f64.powi(i % 16);
            (rng.next_f64() - 0.01) * scale
        });
        for t in edges.into_iter().chain(random) {
            assert_eq!(round_to_cycles(t), t.round() as u64, "t = {t:e}");
        }
    }

    #[test]
    fn arrival_lane_is_rounded_in_place() {
        let times = vec![0.4, 10.5, 9.0, 30.2];
        let lane = times.as_ptr() as usize;
        let cycles = round_onto_clock(times);
        assert_eq!(cycles.as_ptr() as usize, lane, "one arrival lane");
        let got: Vec<u64> = cycles.iter().map(|c| c.cycles()).collect();
        // Rounded, and never moving backwards.
        assert_eq!(got, vec![0, 11, 11, 30]);
    }

    #[test]
    fn arrivals_before_finds_the_first_arrival_at_or_after_a_limit() {
        let short = vec![0u64, 0, 3, 3, 3, 7, 9, 9, 20];
        // Several chunks long, with runs of one instant across chunk ends.
        let long: Vec<u64> = (0..70u64)
            .map(|i| i / 3 * 2 + u64::from(i > 40) * 9)
            .collect();
        for lane in [short, long] {
            let top = lane.last().copied().unwrap_or(0) + 1;
            let lane: Vec<SimTime> = lane.into_iter().map(SimTime::from_cycles).collect();
            for from in 0..=lane.len() {
                for limit in 0..=top {
                    let want = from
                        + lane[from..]
                            .iter()
                            .take_while(|t| t.cycles() < limit)
                            .count();
                    assert_eq!(
                        arrivals_before(&lane, from, SimTime::from_cycles(limit)),
                        want,
                        "from {from}, limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn escalation_fires_on_undersized_design_factors() {
        let p = blast();
        let t = Topology::chain(&p);
        let params = RtParams::new(10.0, 1e5).unwrap();
        // Deliberately undersized factors (calibrated is [1,3,9,6]):
        // real backlog exceeds the design even without faults, which is
        // exactly the model-drift situation escalation exists for.
        let sched = EnforcedProblem::new(&t, params, vec![1.0, 1.0, 1.0, 1.0])
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 0, 1500);
        let perturb = Perturbation::standard(1.0).at_intensity(0.0);
        let policy = MitigationPolicy {
            shed: false,
            escalate: true,
            escalate_headroom: 0.0,
            max_resolves: 8,
        };
        let escalated = |policy: &MitigationPolicy| {
            let faults = Some((&perturb, policy));
            simulate(
                &t,
                &sched,
                1e5,
                &cfg,
                Hooks {
                    faults,
                    ..Hooks::default()
                },
            )
            .unwrap()
        };
        let m = escalated(&policy);
        assert!(
            m.resolves >= 1,
            "undersized factors must trigger a re-solve"
        );
        assert!(m.resolves <= u64::from(policy.max_resolves));
        assert_eq!(m.items_shed, 0);
        assert_eq!(m.items_completed + m.items_dropped, m.items_arrived);

        // The re-solve budget is a hard cap.
        let capped = MitigationPolicy {
            max_resolves: 1,
            ..policy.clone()
        };
        let m1 = escalated(&capped);
        assert_eq!(m1.resolves, 1);

        // Same seed, same escalation trajectory.
        let m2 = escalated(&policy);
        assert_eq!(m.resolves, m2.resolves);
        assert_eq!(m.deadline_misses, m2.deadline_misses);
    }

    #[test]
    fn escalation_due_after_a_re_solve_ends_every_run() {
        // A negative headroom leaves escalation due right after each
        // re-solve, so under a large budget every arrival re-solves,
        // admitted or shed: no run may cover two arrivals. Per-arrival
        // admission (the reference) counts one re-solve per arrival.
        let p = blast();
        let params = RtParams::new(10.0, 6e4).unwrap();
        let sched = EnforcedProblem::new(&Topology::chain(&p), params, vec![1.0, 1.0, 1.0, 1.0])
            .solve()
            .unwrap();
        let cfg = SimConfig::quick(10.0, 3, 600);
        let perturb = Perturbation::standard(1.0);
        let policy = MitigationPolicy {
            escalate_headroom: -1.0,
            max_resolves: 100_000,
            ..MitigationPolicy::full()
        };
        let faults = Some((&perturb, &policy));
        let hooks = Hooks {
            faults,
            ..Hooks::default()
        };
        let m = simulate(&Topology::chain(&p), &sched, 6e4, &cfg, hooks).unwrap();
        let oracle = simulate_enforced_reference(&p, &sched, 6e4, &cfg, None, faults);
        let json = |m: &SimMetrics| serde_json::to_string(m).expect("metrics serialize");
        assert_eq!(json(&m), json(&oracle));
        assert!(m.items_shed > 0, "no arrival was shed");
        assert!(m.resolves > 100, "{} re-solves", m.resolves);
    }

    #[test]
    fn observed_run_matches_plain_and_attaches_report() {
        let p = blast();
        let sched = schedule(&p, 20.0, 2e5);
        let cfg = SimConfig::quick(20.0, 1, 500);
        let plain = run_chain(&p, &sched, 2e5, &cfg);
        let mut sink = ObsSink::new(p.len());
        let hooks = Hooks {
            obs: Some(&mut sink),
            ..Hooks::default()
        };
        let observed = simulate(&Topology::chain(&p), &sched, 2e5, &cfg, hooks).unwrap();
        // Instrumentation must not perturb the simulation.
        assert_eq!(plain.items_completed, observed.items_completed);
        assert_eq!(plain.deadline_misses, observed.deadline_misses);
        assert_eq!(plain.active_fraction, observed.active_fraction);
        assert!(plain.obs.is_none());
        let report = sink.report();
        assert_eq!(report.stages.len(), p.len());
        assert_eq!(report.counters.completions, observed.items_completed);
        assert_eq!(report.counters.drops, observed.items_dropped);
        assert!(report.counters.events > 0);
        assert!(report.counters.firings > 0);
        assert!(report.counters.items_enqueued >= observed.items_arrived);
        // Every arrival is eventually consumed at the head stage, and
        // each consumption produced a sojourn sample.
        assert_eq!(report.stages[0].sojourn.count, observed.items_arrived);
        assert!(report.stages[0].queue_depth.count > 0);
        assert!(report.stages[0].occupancy.count > 0);
    }

    #[test]
    fn traced_run_matches_plain_and_attaches_blame() {
        let p = blast();
        let sched = schedule(&p, 20.0, 2e5);
        let cfg = SimConfig::quick(20.0, 1, 500);
        let plain = run_chain(&p, &sched, 2e5, &cfg);
        let (traced, log) = run_traced(&p, &sched, 2e5, &cfg);
        // Tracing must not perturb the simulation.
        assert_eq!(plain.items_completed, traced.items_completed);
        assert_eq!(plain.deadline_misses, traced.deadline_misses);
        assert_eq!(plain.active_fraction, traced.active_fraction);
        assert_eq!(plain.horizon, traced.horizon);
        // One fate per stream input; visits at least one per input
        // (head-stage consumption); spans for every firing.
        assert_eq!(log.fates.len() as u64, traced.items_arrived);
        assert!(log.visits.len() as u64 >= traced.items_arrived);
        assert!(!log.spans.is_empty());
        assert_eq!(log.dropped_spans, 0);
        assert_eq!(log.dropped_visits, 0);
        let blame = analyze(&log, 2e5, &ForensicsConfig::default());
        assert_eq!(blame.completed_items, traced.items_completed);
        assert_eq!(blame.dropped_items, traced.items_dropped);
        assert_eq!(
            blame.missed_items + blame.dropped_items,
            traced.deadline_misses
        );
    }

    #[test]
    fn traced_misses_blame_accounts_all_overrun() {
        let p = blast();
        // No waits, deadline below one service time: every item misses.
        let sched = WaitSchedule {
            waits: vec![0.0; 4],
            periods: p.service_times(),
            active_fraction: 1.0,
            backlog_factors: vec![1.0; 4],
            latency_bound: 0.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(50.0, 3, 200);
        let (m, log) = run_traced(&p, &sched, 100.0, &cfg);
        assert_eq!(m.deadline_misses, m.items_arrived);
        let blame = analyze(&log, 100.0, &ForensicsConfig::default());
        assert_eq!(blame.analyzed_items, m.items_completed);
        assert!(blame.total_overrun > 0.0);
        assert!(!blame.stages.is_empty());
        assert!(!blame.exemplars.is_empty());
        // The per-stage fractions account for 100 % of the overrun.
        assert!(
            (blame.accounted_fraction() - 1.0).abs() < 1e-9,
            "accounted {}",
            blame.accounted_fraction()
        );
    }

    #[test]
    fn deterministic_pipeline_meets_analysis_exactly() {
        // All-deterministic gains: behaviour is fully predictable.
        let p = PipelineSpecBuilder::new(4)
            .stage("a", 10.0, GainModel::Deterministic { k: 1 })
            .stage("b", 20.0, GainModel::Deterministic { k: 1 })
            .build()
            .unwrap();
        let sched = WaitSchedule {
            waits: vec![30.0, 20.0],
            periods: vec![40.0, 40.0],
            active_fraction: 0.5 * (10.0 / 40.0 + 20.0 / 40.0),
            backlog_factors: vec![1.0, 1.0],
            latency_bound: 80.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(10.0, 1, 400);
        let m = run_chain(&p, &sched, 1e6, &cfg);
        assert_eq!(m.items_arrived, 400);
        assert_eq!(m.items_completed, 400);
        assert_eq!(m.deadline_misses, 0);
        assert!(!m.truncated);
        // Measured active fraction ≈ predicted (boundary effects only).
        assert!(
            (m.active_fraction - sched.active_fraction).abs() < 0.03,
            "measured {} vs predicted {}",
            m.active_fraction,
            sched.active_fraction
        );
    }

    #[test]
    fn arrivals_feed_the_source_whatever_its_index() {
        use dataflow_model::TopologyBuilder;
        // The chain a → b, declared once in order and once with the
        // sink first: the stream must enter at a either way.
        let k1 = || GainModel::Deterministic { k: 1 };
        let ab = TopologyBuilder::new(4)
            .node("a", 10.0)
            .node("b", 20.0)
            .edge(0, 1, k1(), 1.0)
            .build()
            .unwrap();
        let ba = TopologyBuilder::new(4)
            .node("b", 20.0)
            .node("a", 10.0)
            .edge(1, 0, k1(), 1.0)
            .build()
            .unwrap();
        assert_eq!(ba.source(), 1);
        let sched = |periods: Vec<f64>| WaitSchedule {
            waits: vec![0.0; 2],
            periods,
            active_fraction: 0.0,
            backlog_factors: vec![1.0, 1.0],
            latency_bound: 0.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(10.0, 1, 400);
        let run =
            |t: &Topology, s: &WaitSchedule| simulate(t, s, 1e6, &cfg, Hooks::default()).unwrap();
        let want = run(&ab, &sched(vec![40.0, 50.0]));
        let got = run(&ba, &sched(vec![50.0, 40.0]));
        assert_eq!(got.items_completed, 400);
        // Every item visits both nodes: a then b.
        assert!(got.latency.min().unwrap() >= 30.0);
        assert!(got.occupancy.iter().all(|o| o.firings() > 0));
        let reversed = |v: &[u64]| v.iter().rev().copied().collect::<Vec<_>>();
        assert_eq!(got.max_queue_depth, reversed(&want.max_queue_depth));
        let bits = |m: &SimMetrics| {
            let l = &m.latency;
            [
                l.mean(),
                l.variance(),
                l.min().unwrap(),
                l.max().unwrap(),
                m.horizon,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got.deadline_misses, want.deadline_misses);
    }

    #[test]
    fn measured_active_fraction_matches_prediction_on_blast() {
        let p = blast();
        let sched = schedule(&p, 10.0, 1e5);
        let cfg = SimConfig::quick(10.0, 42, 5_000);
        let m = run_chain(&p, &sched, 1e5, &cfg);
        assert!(!m.truncated);
        assert_eq!(m.items_completed, 5_000);
        let rel = (m.active_fraction - sched.active_fraction).abs() / sched.active_fraction;
        assert!(
            rel < 0.05,
            "measured {} vs predicted {} (rel {rel})",
            m.active_fraction,
            sched.active_fraction
        );
    }

    #[test]
    fn miss_rate_low_with_calibrated_backlog_factors() {
        let p = blast();
        let sched = schedule(&p, 10.0, 1e5);
        let cfg = SimConfig::quick(10.0, 7, 10_000);
        let m = run_chain(&p, &sched, 1e5, &cfg);
        assert!(
            m.miss_rate() < 0.01,
            "miss rate {} with paper-calibrated b",
            m.miss_rate()
        );
    }

    #[test]
    fn same_seed_is_reproducible() {
        let p = blast();
        let sched = schedule(&p, 10.0, 1e5);
        let cfg = SimConfig::quick(10.0, 123, 2_000);
        let a = run_chain(&p, &sched, 1e5, &cfg);
        let b = run_chain(&p, &sched, 1e5, &cfg);
        assert_eq!(a.deadline_misses, b.deadline_misses);
        assert_eq!(a.items_completed, b.items_completed);
        assert_eq!(a.active_fraction, b.active_fraction);
        assert_eq!(a.horizon, b.horizon);
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let p = blast();
        let sched = schedule(&p, 10.0, 1e5);
        let a = run_chain(&p, &sched, 1e5, &SimConfig::quick(10.0, 1, 2_000));
        let b = run_chain(&p, &sched, 1e5, &SimConfig::quick(10.0, 2, 2_000));
        // Stochastic gains: latency distributions should not be identical.
        assert!(
            (a.latency.mean() - b.latency.mean()).abs() > 1e-9
                || a.deadline_misses != b.deadline_misses
        );
    }

    #[test]
    fn hopeless_deadline_counts_misses() {
        let p = blast();
        // A "schedule" with huge waits and a tiny deadline: everything
        // must miss.
        let sched = WaitSchedule {
            waits: vec![0.0; 4],
            periods: p.service_times(),
            active_fraction: 1.0,
            backlog_factors: vec![1.0; 4],
            latency_bound: 0.0,
            telemetry: None,
        };
        let cfg = SimConfig::quick(50.0, 3, 200);
        // Deadline below even one service time.
        let m = run_chain(&p, &sched, 100.0, &cfg);
        assert_eq!(m.deadline_misses, m.items_arrived);
    }

    #[test]
    fn unstable_schedule_truncates_not_hangs() {
        let p = blast();
        // Periods far too long for the arrival rate: queues grow, the
        // safety horizon kicks in.
        let sched = WaitSchedule {
            waits: vec![100_000.0; 4],
            periods: p.service_times().iter().map(|t| t + 100_000.0).collect(),
            active_fraction: 0.01,
            backlog_factors: vec![1.0; 4],
            latency_bound: 0.0,
            telemetry: None,
        };
        let mut cfg = SimConfig::quick(1.0, 3, 500);
        cfg.drain_factor = 2.0;
        let m = run_chain(&p, &sched, 1000.0, &cfg);
        assert!(m.truncated);
        assert!(m.deadline_misses > 0);
        // Unresolved inputs are closed out of the lineage window exactly
        // as the whole-stream oracle counts them.
        let bits = |m: &SimMetrics| serde_json::to_string(m).expect("metrics serialize");
        let oracle = simulate_enforced_reference(&p, &sched, 1000.0, &cfg, None, None);
        assert_eq!(bits(&m), bits(&oracle));
        assert!(m.items_dropped > 0);

        // Same schedule with room to drain: all 3,000 inputs are in
        // flight at once, far past the window's starting capacity, so
        // the ring grows mid-run — and the run still matches the oracle.
        let cfg = SimConfig::quick(1.0, 3, 3_000);
        assert!(3_000 > LineageWindow::new(3_000).capacity());
        let m = run_chain(&p, &sched, 1e9, &cfg);
        assert!(!m.truncated);
        assert_eq!(m.items_completed, 3_000);
        let oracle = simulate_enforced_reference(&p, &sched, 1e9, &cfg, None, None);
        assert_eq!(bits(&m), bits(&oracle));
    }

    #[test]
    fn occupancy_improves_with_waits() {
        let p = blast();
        // No waits: head fires every 287 cycles, sees ~29 items at τ0=10.
        let no_waits = WaitSchedule {
            waits: vec![0.0; 4],
            periods: p.service_times(),
            active_fraction: 1.0,
            backlog_factors: vec![1.0; 4],
            latency_bound: 0.0,
            telemetry: None,
        };
        let with_waits = schedule(&p, 10.0, 2e5);
        let cfg = SimConfig::quick(10.0, 9, 3_000);
        let a = run_chain(&p, &no_waits, 1e9, &cfg);
        let b = run_chain(&p, &with_waits, 1e9, &cfg);
        assert!(
            b.occupancy[0].mean_occupancy() > a.occupancy[0].mean_occupancy() * 2.0,
            "waits should raise head occupancy: {} vs {}",
            b.occupancy[0].mean_occupancy(),
            a.occupancy[0].mean_occupancy()
        );
    }

    #[test]
    fn zero_length_stream_is_a_clean_noop() {
        let p = blast();
        let sched = schedule(&p, 10.0, 1e5);
        let cfg = SimConfig::quick(10.0, 1, 0);
        let m = run_chain(&p, &sched, 1e5, &cfg);
        assert_eq!(m.items_arrived, 0);
        assert_eq!(m.items_completed, 0);
        assert_eq!(m.deadline_misses, 0);
        assert!(!m.truncated);
        assert!(m.active_fraction >= 0.0);
    }

    #[test]
    fn single_item_stream() {
        let p = blast();
        let sched = schedule(&p, 10.0, 1e5);
        let cfg = SimConfig::quick(10.0, 1, 1);
        let m = run_chain(&p, &sched, 1e5, &cfg);
        assert_eq!(m.items_arrived, 1);
        assert_eq!(m.items_completed, 1);
        assert_eq!(m.latency.count(), 1);
    }

    #[test]
    fn vacation_discipline_never_fires_empty_and_helps_latency() {
        use crate::config::FiringDiscipline;
        let p = blast();
        // Slow arrivals so strict-periodic firing is mostly empty.
        let sched = schedule(&p, 50.0, 2e5);
        let mut strict_cfg = SimConfig::quick(50.0, 4, 2_000);
        let mut vac_cfg = strict_cfg.clone();
        vac_cfg.discipline = FiringDiscipline::Vacation;
        let strict = run_chain(&p, &sched, 2e5, &strict_cfg);
        let vac = run_chain(&p, &sched, 2e5, &vac_cfg);
        // No empty firings at all under vacations.
        for o in &vac.occupancy {
            assert_eq!(o.empty_firings(), 0);
        }
        // Charged activity drops to the nonempty level.
        assert!(
            vac.active_fraction <= strict.active_fraction + 1e-9,
            "vacation {} vs strict {}",
            vac.active_fraction,
            strict.active_fraction
        );
        // Eager wake-up fires cannot worsen latency.
        assert!(
            vac.latency.mean() <= strict.latency.mean() + 1e-9,
            "vacation latency {} vs strict {}",
            vac.latency.mean(),
            strict.latency.mean()
        );
        assert_eq!(vac.items_completed, vac.items_arrived);
        assert!(vac.miss_free());
        // Inter-fire gaps still respect the enforced period: the number
        // of (nonempty) firings cannot exceed horizon/period + slack.
        for node in 0..p.len() {
            let max_fires = (vac.horizon / sched.periods[node]).ceil() + 2.0;
            assert!(
                (vac.occupancy[node].firings() as f64) <= max_fires,
                "node {node}: {} firings over {} cycles at period {}",
                vac.occupancy[node].firings(),
                vac.horizon,
                sched.periods[node]
            );
        }
        // Both disciplines deliver the same items.
        assert_eq!(strict.items_completed, vac.items_completed);

        strict_cfg.seed = 5;
        vac_cfg.seed = 5;
        let strict2 = run_chain(&p, &sched, 2e5, &strict_cfg);
        let vac2 = run_chain(&p, &sched, 2e5, &vac_cfg);
        assert_eq!(strict2.items_completed, vac2.items_completed);
    }

    #[test]
    fn backlog_vectors_reported() {
        let p = blast();
        let sched = schedule(&p, 10.0, 1e5);
        let cfg = SimConfig::quick(10.0, 5, 3_000);
        let m = run_chain(&p, &sched, 1e5, &cfg);
        assert_eq!(m.max_backlog_vectors.len(), 4);
        // The head queue must have held something.
        assert!(m.max_queue_depth[0] > 0);
        assert!((m.max_backlog_vectors[0] - m.max_queue_depth[0] as f64 / 128.0).abs() < 1e-12);
    }
}
