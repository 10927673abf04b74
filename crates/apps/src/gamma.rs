//! Gamma-ray burst detection pipeline.
//!
//! Modeled after the processing chain of an orbiting gamma-ray
//! telescope (the paper cites the Advanced Particle-astrophysics
//! Telescope): each incoming photon event must be processed within a
//! bounded latency so that a detected burst can be relayed to
//! ground-based instruments while the burst is still observable.
//!
//! Stages:
//!
//! 0. **hit filter** — reject noise hits below an energy threshold
//!    (attenuating, Bernoulli-like);
//! 1. **pair split** — a photon converting in the tracker produces a
//!    variable number of track-segment candidates (expanding);
//! 2. **track cut** — geometric quality cut on candidates (strongly
//!    attenuating);
//! 3. **burst update** — update the burst-significance accumulator
//!    (deterministic).

use dataflow_model::{GainModel, ModelError, PipelineSpec, PipelineSpecBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One detector event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotonEvent {
    /// Deposited energy (MeV).
    pub energy: f64,
    /// Conversion depth in the tracker (layers).
    pub depth: u32,
    /// Incidence angle (radians, 0 = normal).
    pub angle: f64,
}

/// Synthetic-workload and pipeline parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GammaConfig {
    /// Fraction of events that are instrument noise.
    pub noise_fraction: f64,
    /// Energy threshold for the hit filter (MeV).
    pub energy_threshold: f64,
    /// Maximum track-segment candidates one conversion can spawn.
    pub max_segments: u32,
    /// Track quality-cut acceptance steepness.
    pub quality_cut: f64,
    /// Events used to measure the gain distributions.
    pub events: usize,
    /// Per-stage service times (cycles under the 1/N share); these play
    /// the role of the paper's hardware-measured `t_i`.
    pub service_times: [f64; 4],
    /// SIMD width.
    pub vector_width: u32,
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig {
            noise_fraction: 0.55,
            energy_threshold: 5.0,
            max_segments: 8,
            quality_cut: 0.15,
            events: 40_000,
            service_times: [120.0, 640.0, 310.0, 980.0],
            vector_width: 128,
        }
    }
}

/// Generate one synthetic event: a mixture of low-energy noise and
/// power-law-distributed photons.
pub fn synth_event<R: Rng + ?Sized>(config: &GammaConfig, rng: &mut R) -> PhotonEvent {
    let is_noise = rng.gen::<f64>() < config.noise_fraction;
    let energy = if is_noise {
        // Noise: soft exponential spectrum well below threshold.
        -2.0 * rng.gen::<f64>().max(1e-12).ln()
    } else {
        // Photons: E ~ 5 / U (a crude power-law tail).
        5.0 / rng.gen::<f64>().max(1e-3)
    };
    PhotonEvent {
        energy,
        depth: rng.gen_range(0..20),
        angle: rng.gen::<f64>() * 1.2,
    }
}

/// Stage 0: energy threshold. `true` keeps the event.
pub fn hit_filter(config: &GammaConfig, ev: &PhotonEvent) -> bool {
    ev.energy >= config.energy_threshold
}

/// Stage 1: number of track-segment candidates from a conversion.
/// Higher-energy photons converting early in the tracker shower into
/// more candidates.
pub fn pair_split<R: Rng + ?Sized>(config: &GammaConfig, ev: &PhotonEvent, rng: &mut R) -> u32 {
    let expected = 1.0 + (ev.energy / 50.0).min(4.0) + (20 - ev.depth) as f64 / 10.0;
    // Poisson-ish via exponential inter-arrival counting.
    let mut count = 0u32;
    let mut acc = 0.0;
    while count < config.max_segments {
        acc += -rng.gen::<f64>().max(1e-12).ln() / expected;
        if acc > 1.0 {
            break;
        }
        count += 1;
    }
    count.max(1)
}

/// Stage 2: geometric quality cut on a candidate. Steep incidence
/// angles fail more often.
pub fn track_cut<R: Rng + ?Sized>(config: &GammaConfig, ev: &PhotonEvent, rng: &mut R) -> bool {
    let p_pass = config.quality_cut * (1.0 - ev.angle / 1.5).max(0.05);
    rng.gen::<f64>() < p_pass
}

/// Measure the gain distributions over a synthetic event stream and
/// assemble the pipeline.
pub fn synthesize(config: &GammaConfig, seed: u64) -> Result<PipelineSpec, ModelError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept = 0u64;
    let mut split_counts = vec![0u64; config.max_segments as usize + 1];
    let mut split_total = 0u64;
    let mut cut_pass = 0u64;
    let mut cut_total = 0u64;

    for _ in 0..config.events {
        let ev = synth_event(config, &mut rng);
        if !hit_filter(config, &ev) {
            continue;
        }
        kept += 1;
        let segs = pair_split(config, &ev, &mut rng);
        split_counts[segs as usize] += 1;
        split_total += 1;
        for _ in 0..segs {
            cut_total += 1;
            if track_cut(config, &ev, &mut rng) {
                cut_pass += 1;
            }
        }
    }

    let g0 = kept as f64 / config.events.max(1) as f64;
    let pmf: Vec<(u32, f64)> = split_counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(k, &c)| (k as u32, c as f64 / split_total.max(1) as f64))
        .collect();
    let total: f64 = pmf.iter().map(|(_, p)| p).sum();
    let pmf: Vec<(u32, f64)> = pmf.into_iter().map(|(k, p)| (k, p / total)).collect();
    let g2 = if cut_total == 0 {
        0.0
    } else {
        cut_pass as f64 / cut_total as f64
    };

    let [t0, t1, t2, t3] = config.service_times;
    PipelineSpecBuilder::new(config.vector_width)
        .stage("hit-filter", t0, GainModel::Bernoulli { p: g0 })
        .stage("pair-split", t1, GainModel::Empirical { pmf })
        .stage("track-cut", t2, GainModel::Bernoulli { p: g2 })
        .stage("burst-update", t3, GainModel::Deterministic { k: 1 })
        .build()
}

/// Like [`synthesize`], but with service times *measured* by running
/// the stage kernels on the simulated SIMT device over the synthetic
/// event stream (instead of taking `config.service_times` on faith).
pub fn synthesize_measured(config: &GammaConfig, seed: u64) -> Result<PipelineSpec, ModelError> {
    use crate::kernels;
    use simd_device::{LaneValue, Machine};

    // Gains exactly as in `synthesize`, but also collect per-event work
    // amounts for the kernels.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut energies: Vec<Vec<LaneValue>> = Vec::new();
    let mut segment_counts: Vec<Vec<LaneValue>> = Vec::new();
    let mut cut_inputs: Vec<Vec<LaneValue>> = Vec::new();
    for _ in 0..config.events.min(8_192) {
        let ev = synth_event(config, &mut rng);
        energies.push(vec![ev.energy as LaneValue + 1]);
        if hit_filter(config, &ev) {
            let segs = pair_split(config, &ev, &mut rng);
            segment_counts.push(vec![segs as LaneValue]);
            for _ in 0..segs {
                cut_inputs.push(vec![(ev.angle * 100.0) as LaneValue + 1]);
            }
        }
    }
    if segment_counts.is_empty() {
        segment_counts.push(vec![1]);
    }
    if cut_inputs.is_empty() {
        cut_inputs.push(vec![1]);
    }

    let machine = Machine::new(config.vector_width);
    let shares = 4;
    let t = [
        kernels::mean_service_time(&machine, &kernels::hit_filter_kernel(), &energies, shares),
        kernels::mean_service_time(
            &machine,
            &kernels::pair_split_kernel(),
            &segment_counts,
            shares,
        ),
        kernels::mean_service_time(&machine, &kernels::track_cut_kernel(), &cut_inputs, shares),
        kernels::mean_service_time(
            &machine,
            &kernels::burst_update_kernel(),
            &cut_inputs,
            shares,
        ),
    ];
    let measured = GammaConfig {
        service_times: [
            t[0].round().max(1.0),
            t[1].round().max(1.0),
            t[2].round().max(1.0),
            t[3].round().max(1.0),
        ],
        ..config.clone()
    };
    synthesize(&measured, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_pipeline_shape() {
        let p = synthesize(&GammaConfig::default(), 7).unwrap();
        assert_eq!(p.len(), 4);
        let g = p.mean_gains();
        // Noise rejection keeps a minority-to-half of events.
        assert!(g[0] > 0.1 && g[0] < 0.7, "g0 = {}", g[0]);
        // Pair conversion expands.
        assert!(g[1] > 1.0 && g[1] <= 8.0, "g1 = {}", g[1]);
        // Quality cut strongly attenuates.
        assert!(g[2] < 0.3, "g2 = {}", g[2]);
        assert_eq!(p.vector_width(), 128);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = synthesize(&GammaConfig::default(), 3).unwrap();
        let b = synthesize(&GammaConfig::default(), 3).unwrap();
        assert_eq!(a.mean_gains(), b.mean_gains());
        let c = synthesize(&GammaConfig::default(), 4).unwrap();
        assert_ne!(a.mean_gains(), c.mean_gains());
    }

    #[test]
    fn hit_filter_threshold() {
        let cfg = GammaConfig::default();
        assert!(hit_filter(
            &cfg,
            &PhotonEvent {
                energy: 5.0,
                depth: 0,
                angle: 0.0
            }
        ));
        assert!(!hit_filter(
            &cfg,
            &PhotonEvent {
                energy: 4.9,
                depth: 0,
                angle: 0.0
            }
        ));
    }

    #[test]
    fn pair_split_bounds() {
        let cfg = GammaConfig::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2_000 {
            let ev = synth_event(&cfg, &mut rng);
            let s = pair_split(&cfg, &ev, &mut rng);
            assert!(s >= 1 && s <= cfg.max_segments);
        }
    }

    #[test]
    fn energetic_events_split_more() {
        let cfg = GammaConfig::default();
        let mut rng = StdRng::seed_from_u64(2);
        let soft = PhotonEvent {
            energy: 6.0,
            depth: 19,
            angle: 0.1,
        };
        let hard = PhotonEvent {
            energy: 300.0,
            depth: 0,
            angle: 0.1,
        };
        let n = 5_000;
        let mean = |ev: &PhotonEvent, rng: &mut StdRng| {
            (0..n)
                .map(|_| pair_split(&cfg, ev, rng) as f64)
                .sum::<f64>()
                / n as f64
        };
        let m_soft = mean(&soft, &mut rng);
        let m_hard = mean(&hard, &mut rng);
        assert!(m_hard > m_soft + 0.5, "soft {m_soft}, hard {m_hard}");
    }

    #[test]
    fn measured_variant_produces_positive_times_and_schedules() {
        let config = GammaConfig {
            events: 4_000,
            ..GammaConfig::default()
        };
        let p = synthesize_measured(&config, 3).unwrap();
        let t = p.service_times();
        assert!(t.iter().all(|&ti| ti >= 1.0), "{t:?}");
        // The split stage loops over segments; it must cost more than
        // the fixed-cost filter stage.
        assert!(t[1] > t[0], "{t:?}");
        // And the whole thing must be schedulable.
        use dataflow_model::{RtParams, Topology};
        let b: Vec<f64> = p
            .mean_gains()
            .iter()
            .map(|g| (g.ceil() + 1.0).max(2.0))
            .collect();
        let params = RtParams::new(60.0, 1e5).unwrap();
        assert!(
            rtsdf_core::EnforcedProblem::new(&Topology::chain(&p), params, b)
                .solve()
                .is_ok()
        );
    }

    #[test]
    fn schedulable_with_enforced_waits() {
        // The synthesized pipeline must be usable by the core machinery.
        use dataflow_model::{RtParams, Topology};
        let p = synthesize(&GammaConfig::default(), 11).unwrap();
        let b: Vec<f64> = p.mean_gains().iter().map(|g| g.ceil().max(1.0)).collect();
        let params = RtParams::new(20.0, 1e5).unwrap();
        let sched = rtsdf_core::EnforcedProblem::new(&Topology::chain(&p), params, b).solve();
        assert!(sched.is_ok(), "{sched:?}");
    }
}
