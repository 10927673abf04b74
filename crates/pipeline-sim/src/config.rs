//! Simulation run configuration.

use dataflow_model::ArrivalProcess;
use serde::{Deserialize, Serialize};

/// How a node behaves when its firing point arrives and its input queue
/// is empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FiringDiscipline {
    /// The paper's analysis model: fire anyway (an empty firing),
    /// strictly every `t_i + w_i` cycles.
    StrictPeriodic,
    /// The paper's practical variant ("in practice they could be
    /// treated as a vacation for the node", §4): a node facing an empty
    /// queue goes dormant instead of firing, and wakes to fire the
    /// moment input next arrives — its mandatory period has already
    /// elapsed, so an immediate fire never violates the enforced-wait
    /// contract (the gap between consecutive fires stays ≥ t_i + w_i).
    Vacation,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Number of stream inputs to process (the paper uses 50 000).
    pub stream_length: usize,
    /// Master RNG seed; every simulated entity derives a substream.
    pub seed: u64,
    /// How items arrive. The paper's model is periodic.
    pub arrivals: ArrivalProcess,
    /// Safety multiplier: the run aborts (counting unfinished inputs as
    /// deadline misses) if simulated time exceeds
    /// `last_arrival + drain_factor × deadline`. Guards against
    /// accidentally simulating an unstable schedule forever.
    pub drain_factor: f64,
    /// Empty-queue firing behaviour (see [`FiringDiscipline`]).
    pub discipline: FiringDiscipline,
}

impl SimConfig {
    /// The paper's §6.2 methodology for one seed: 50 000 periodic
    /// arrivals.
    pub fn paper(tau0: f64, seed: u64) -> Self {
        SimConfig {
            stream_length: 50_000,
            seed,
            arrivals: ArrivalProcess::Periodic { tau0 },
            drain_factor: 50.0,
            discipline: FiringDiscipline::StrictPeriodic,
        }
    }

    /// A shortened variant for fast tests and examples.
    pub fn quick(tau0: f64, seed: u64, stream_length: usize) -> Self {
        SimConfig {
            stream_length,
            seed,
            arrivals: ArrivalProcess::Periodic { tau0 },
            drain_factor: 50.0,
            discipline: FiringDiscipline::StrictPeriodic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper(10.0, 7);
        assert_eq!(c.stream_length, 50_000);
        assert_eq!(c.seed, 7);
        match c.arrivals {
            ArrivalProcess::Periodic { tau0 } => assert_eq!(tau0, 10.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn quick_overrides_length() {
        let c = SimConfig::quick(5.0, 1, 100);
        assert_eq!(c.stream_length, 100);
        assert_eq!(c.discipline, FiringDiscipline::StrictPeriodic);
    }
}
