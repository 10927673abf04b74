//! Measured metrics of one real execution, mirroring
//! [`pipeline_sim::SimMetrics`] so the two backends can be compared
//! quantity by quantity.

use crate::timer::TimerCalibration;
use des::obs::DistSummary;
use des::stats::OnlineStats;
use serde::{Deserialize, Serialize};
use simd_device::OccupancyStats;

/// Per-stage measurements of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecStageReport {
    /// Stage name (from the topology).
    pub name: String,
    /// Total firings (enforced) or block passes (monolithic).
    pub fired: u64,
    /// Firings that consumed zero items.
    pub empty_firings: u64,
    /// Items consumed from the input queue.
    pub items_consumed: u64,
    /// Items emitted along out-edges (after gains and routing).
    pub items_emitted: u64,
    /// Lane occupancy per firing.
    pub occupancy: OccupancyStats,
    /// Queue-wait of consumed items, in cycles.
    pub sojourn_cycles: DistSummary,
    /// Input-queue depth sampled at each firing, in items.
    pub queue_depth: DistSummary,
    /// Input-queue high-water mark, in items.
    pub max_queue_depth: u64,
    /// Fraction of the run horizon this stage spent burning service.
    pub busy_fraction: f64,
    /// Wall nanoseconds spent blocked on full downstream queues
    /// (back-pressure).
    pub send_blocked_ns: u64,
}

/// Measured metrics of one real threaded execution. Field-for-field
/// comparable with [`pipeline_sim::SimMetrics`] where the quantity
/// exists in both backends; the extra fields document the realities a
/// logical clock does not have (wall time, time scale, calibration,
/// pacing error).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecMetrics {
    /// `"enforced"` or `"monolithic"`.
    pub strategy: String,
    /// Stream inputs delivered by the pacer.
    pub items_arrived: u64,
    /// Stream inputs fully resolved (all derived outputs exited).
    pub items_completed: u64,
    /// Stream inputs unresolved at shutdown (a correct run has none).
    pub items_dropped: u64,
    /// Completed items over deadline, plus dropped items.
    pub deadline_misses: u64,
    /// Measured active fraction: Σ busy/(N×horizon) for enforced, total
    /// busy/horizon for monolithic — the simulator's conventions.
    pub active_fraction: f64,
    /// Active fraction excluding empty firings' burns.
    pub active_fraction_nonempty: f64,
    /// End-to-end latency of completed items, in cycles.
    pub latency: OnlineStats,
    /// Per-stage measurements.
    pub stages: Vec<ExecStageReport>,
    /// Logical span of the run in cycles (wall span ÷ time scale).
    pub horizon_cycles: f64,
    /// Wall-clock duration of the run, nanoseconds.
    pub wall_elapsed_ns: u64,
    /// Nanoseconds of wall time per model cycle.
    pub time_scale_ns_per_cycle: f64,
    /// Worst pacer lateness: how far behind its nominal arrival instant
    /// the source delivery fell (back-pressure + timer granularity), ns.
    pub pacer_max_late_ns: u64,
    /// Clock calibration this run was configured with.
    pub calibration: TimerCalibration,
}

impl ExecMetrics {
    /// Deadline misses over arrived items.
    pub fn miss_rate(&self) -> f64 {
        if self.items_arrived == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.items_arrived as f64
        }
    }

    /// Item conservation: completed + dropped == arrived.
    pub fn conservation_holds(&self) -> bool {
        self.items_completed + self.items_dropped == self.items_arrived
    }
}
