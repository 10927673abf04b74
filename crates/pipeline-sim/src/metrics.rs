//! Measurements from one simulation run.

use des::obs::ObsReport;
use des::stats::OnlineStats;
use obs_trace::BlameReport;
use serde::{Deserialize, Serialize};
use simd_device::OccupancyStats;

/// Everything one simulation run measures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Stream inputs that arrived.
    pub items_arrived: u64,
    /// Stream inputs fully resolved (all derived outputs exited).
    pub items_completed: u64,
    /// Stream inputs still unresolved when the run hit its safety
    /// horizon (these also count as deadline misses).
    pub items_dropped: u64,
    /// Stream inputs whose completion exceeded `arrival + D` (including
    /// any still unresolved when the run hit its safety horizon).
    pub deadline_misses: u64,
    /// Stream inputs rejected at admission by the load-shedding
    /// mitigation (distinct from [`SimMetrics::items_dropped`]: shed
    /// items never enter the pipeline and are not deadline misses).
    pub items_shed: u64,
    /// Online wait re-solves performed by the escalation mitigation.
    pub resolves: u64,
    /// Measured active fraction under the paper's convention (empty
    /// firings charged).
    pub active_fraction: f64,
    /// Measured active fraction with empty firings treated as vacations.
    pub active_fraction_nonempty: f64,
    /// Per-input end-to-end latency statistics (cycles).
    pub latency: OnlineStats,
    /// Per-node lane occupancy.
    pub occupancy: Vec<OccupancyStats>,
    /// Per-node maximum input-queue depth observed (items).
    pub max_queue_depth: Vec<u64>,
    /// `max_queue_depth / v`: the empirical counterpart of the paper's
    /// backlog factors `b_i`.
    pub max_backlog_vectors: Vec<f64>,
    /// Simulated horizon (cycles) the run covered.
    pub horizon: f64,
    /// True if the run hit its safety horizon before completing all
    /// inputs (a sign of an unstable or badly mis-calibrated schedule).
    pub truncated: bool,
    /// Structured observability report. The simulators leave it `None`;
    /// a caller that ran with [`crate::Hooks::obs`] may attach the
    /// sink's report here to keep the two together.
    pub obs: Option<ObsReport>,
    /// Deadline-miss forensics. The simulators leave it `None`; a caller
    /// that ran with [`crate::Hooks::spans`] may attach
    /// [`obs_trace::analyze`]'s report here (`rtsdf-cli trace` does).
    pub blame: Option<BlameReport>,
}

impl SimMetrics {
    /// True if no input missed its deadline.
    pub fn miss_free(&self) -> bool {
        self.deadline_misses == 0
    }

    /// Misses as a fraction of arrived inputs.
    pub fn miss_rate(&self) -> f64 {
        if self.items_arrived == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.items_arrived as f64
        }
    }

    /// Inputs actually admitted to the pipeline (arrived minus shed).
    pub fn items_admitted(&self) -> u64 {
        self.items_arrived.saturating_sub(self.items_shed)
    }

    /// Misses as a fraction of *admitted* inputs — the quality metric
    /// the shedding mitigation protects: items it lets in should still
    /// meet their deadlines.
    pub fn admitted_miss_rate(&self) -> f64 {
        let admitted = self.items_admitted();
        if admitted == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / admitted as f64
        }
    }

    /// Shed inputs as a fraction of arrived inputs.
    pub fn shed_rate(&self) -> f64 {
        if self.items_arrived == 0 {
            0.0
        } else {
            self.items_shed as f64 / self.items_arrived as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> SimMetrics {
        SimMetrics {
            items_arrived: 100,
            items_completed: 100,
            items_dropped: 0,
            deadline_misses: 0,
            items_shed: 0,
            resolves: 0,
            active_fraction: 0.5,
            active_fraction_nonempty: 0.4,
            latency: OnlineStats::new(),
            occupancy: vec![],
            max_queue_depth: vec![],
            max_backlog_vectors: vec![],
            horizon: 1000.0,
            truncated: false,
            obs: None,
            blame: None,
        }
    }

    #[test]
    fn miss_accessors() {
        let mut m = blank();
        assert!(m.miss_free());
        assert_eq!(m.miss_rate(), 0.0);
        m.deadline_misses = 5;
        assert!(!m.miss_free());
        assert!((m.miss_rate() - 0.05).abs() < 1e-12);
        m.items_arrived = 0;
        assert_eq!(m.miss_rate(), 0.0);
    }

    #[test]
    fn shed_accessors() {
        let mut m = blank();
        assert_eq!(m.items_admitted(), 100);
        assert_eq!(m.shed_rate(), 0.0);
        assert_eq!(m.admitted_miss_rate(), 0.0);
        m.items_shed = 20;
        m.deadline_misses = 8;
        assert_eq!(m.items_admitted(), 80);
        assert!((m.shed_rate() - 0.2).abs() < 1e-12);
        assert!((m.admitted_miss_rate() - 0.1).abs() < 1e-12);
        // Degenerate: everything shed.
        m.items_shed = 100;
        assert_eq!(m.items_admitted(), 0);
        assert_eq!(m.admitted_miss_rate(), 0.0);
    }

    #[test]
    fn serde_roundtrip_keeps_shed_counters() {
        let mut m = blank();
        m.items_shed = 7;
        m.resolves = 2;
        let json = serde_json::to_string(&m).unwrap();
        let back: SimMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.items_shed, 7);
        assert_eq!(back.resolves, 2);
    }
}
