//! Fault-injection perturbations: controlled departures from the
//! calibrated model.
//!
//! The paper's real-time guarantee holds while the runtime matches the
//! model the backlog factors `b_i` were calibrated against (§6.2). A
//! [`Perturbation`] describes a *sustained* departure from that model —
//! arrival jitter and bursts, service-time inflation and tail spikes,
//! gain-distribution drift, and transient stage stalls (device
//! preemption) — so the simulators can answer "what happens when
//! reality drifts?".
//!
//! Every component is scaled by a single `intensity` knob. At
//! `intensity = 0` all effective deltas are *exactly* zero (multipliers
//! are exactly `1.0`, probabilities exactly `0.0`, jitter amplitudes
//! exactly `0.0`), so a zero-intensity perturbed run is bit-identical
//! to an unperturbed run — a property the test suite enforces.
//!
//! Determinism: perturbations never draw from the simulator's existing
//! RNG substreams; callers hand them dedicated substreams, so the
//! unperturbed arrival/gain draws are untouched.

use crate::error::ModelError;
use crate::gain::GainModel;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A seed-deterministic, serializable fault-injection specification.
///
/// Component fields describe the departure at `intensity = 1`; the
/// effective values used by the simulators are the component values
/// scaled by [`Perturbation::intensity`] (see the accessor methods).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Perturbation {
    /// Global scaling knob: `0` is an exact identity, `1` applies the
    /// component fields as written, values above `1` overdrive them.
    pub intensity: f64,
    /// Arrival jitter amplitude as a fraction of the mean inter-arrival
    /// time: each arrival moves by up to `±arrival_jitter · intensity ·
    /// τ0` (uniform), order-preserving.
    pub arrival_jitter: f64,
    /// Per-arrival probability (scaled by intensity) that this arrival
    /// starts a burst: the next [`Perturbation::burst_len`] arrivals
    /// clump to the burst head's instant.
    pub burst_prob: f64,
    /// Arrivals pulled into each burst clump.
    pub burst_len: u32,
    /// Sustained service-time inflation: every firing's service time is
    /// multiplied by `1 + service_inflation · intensity`.
    pub service_inflation: f64,
    /// Per-firing probability (scaled by intensity) of a tail spike.
    pub spike_prob: f64,
    /// Service multiplier applied during a tail spike (≥ 1).
    pub spike_factor: f64,
    /// Gain-distribution drift: parametric gain means are multiplied by
    /// `1 + gain_drift · intensity` (Bernoulli `p` clamps at 1; the
    /// censored-Poisson cap is architectural and does not move).
    pub gain_drift: f64,
    /// Per-firing probability (scaled by intensity) of a transient
    /// stall — the device is preempted mid-firing.
    pub stall_prob: f64,
    /// Duration of one stall (cycles).
    pub stall_cycles: f64,
}

impl Perturbation {
    /// The identity perturbation: no departure at any intensity.
    pub fn none() -> Self {
        Perturbation {
            intensity: 0.0,
            arrival_jitter: 0.0,
            burst_prob: 0.0,
            burst_len: 0,
            service_inflation: 0.0,
            spike_prob: 0.0,
            spike_factor: 1.0,
            gain_drift: 0.0,
            stall_prob: 0.0,
            stall_cycles: 0.0,
        }
    }

    /// The canonical stress mix used by the robustness sweep and the
    /// `rtsdf-cli stress` subcommand: moderate jitter and bursts, 30 %
    /// sustained service inflation, rare 4× tail spikes, 25 % gain
    /// drift, and occasional multi-thousand-cycle preemption stalls —
    /// all at the given intensity.
    pub fn standard(intensity: f64) -> Self {
        Perturbation {
            intensity,
            arrival_jitter: 0.5,
            burst_prob: 0.02,
            burst_len: 8,
            service_inflation: 0.3,
            spike_prob: 0.02,
            spike_factor: 4.0,
            gain_drift: 0.25,
            stall_prob: 0.01,
            stall_cycles: 2_000.0,
        }
    }

    /// The same component mix at a different intensity.
    pub fn at_intensity(&self, intensity: f64) -> Self {
        Perturbation {
            intensity,
            ..self.clone()
        }
    }

    /// Validate parameters.
    pub fn validate(&self) -> Result<(), ModelError> {
        let bad = |reason: String| Err(ModelError::InvalidRtParams { reason });
        let nonneg = |v: f64, name: &str| -> Result<(), ModelError> {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(ModelError::InvalidRtParams {
                    reason: format!("perturbation {name} = {v} must be nonnegative and finite"),
                })
            }
        };
        nonneg(self.intensity, "intensity")?;
        nonneg(self.arrival_jitter, "arrival_jitter")?;
        nonneg(self.burst_prob, "burst_prob")?;
        nonneg(self.service_inflation, "service_inflation")?;
        nonneg(self.spike_prob, "spike_prob")?;
        nonneg(self.stall_prob, "stall_prob")?;
        nonneg(self.stall_cycles, "stall_cycles")?;
        if !self.spike_factor.is_finite() || self.spike_factor < 1.0 {
            return bad(format!(
                "perturbation spike_factor = {} must be >= 1",
                self.spike_factor
            ));
        }
        if !self.gain_drift.is_finite() {
            return bad("perturbation gain_drift must be finite".into());
        }
        if self.gain_factor() <= 0.0 {
            return bad(format!(
                "perturbation gain drift {} at intensity {} would zero or negate gains",
                self.gain_drift, self.intensity
            ));
        }
        Ok(())
    }

    /// True if this perturbation has no effect at its intensity.
    pub fn is_noop(&self) -> bool {
        self.jitter_fraction() == 0.0
            && self.burst_p() == 0.0
            && self.service_multiplier() == 1.0
            && self.spike_p() == 0.0
            && self.gain_factor() == 1.0
            && self.stall_p() == 0.0
    }

    /// Effective jitter amplitude as a fraction of `τ0`.
    pub fn jitter_fraction(&self) -> f64 {
        self.arrival_jitter * self.intensity
    }

    /// Effective per-arrival burst probability.
    pub fn burst_p(&self) -> f64 {
        (self.burst_prob * self.intensity).clamp(0.0, 1.0)
    }

    /// Effective sustained service multiplier (`1.0` at intensity 0).
    pub fn service_multiplier(&self) -> f64 {
        1.0 + self.service_inflation * self.intensity
    }

    /// Effective per-firing tail-spike probability.
    pub fn spike_p(&self) -> f64 {
        (self.spike_prob * self.intensity).clamp(0.0, 1.0)
    }

    /// Effective per-firing stall probability.
    pub fn stall_p(&self) -> f64 {
        (self.stall_prob * self.intensity).clamp(0.0, 1.0)
    }

    /// Effective gain-mean multiplier (`1.0` at intensity 0).
    pub fn gain_factor(&self) -> f64 {
        1.0 + self.gain_drift * self.intensity
    }

    /// Apply gain drift to one model. Parametric models (Bernoulli,
    /// censored Poisson) scale their means; deterministic and empirical
    /// models are structural and pass through unchanged. At intensity 0
    /// the returned model is identical to the input (same parameters,
    /// same sampling draws).
    pub fn drift_gain(&self, gain: &GainModel) -> GainModel {
        let f = self.gain_factor();
        match gain {
            GainModel::Bernoulli { p } => GainModel::Bernoulli {
                p: (p * f).clamp(0.0, 1.0),
            },
            GainModel::CensoredPoisson { mean, cap } => GainModel::CensoredPoisson {
                mean: mean * f,
                cap: *cap,
            },
            other => other.clone(),
        }
    }

    /// Perturb precomputed arrival times in place: uniform jitter of up
    /// to `±jitter_fraction() · tau0` per arrival plus burst clumping,
    /// preserving the arrival count, nonnegativity, and nondecreasing
    /// order.
    ///
    /// When the jitter amplitude and the burst probability are both
    /// exactly 0 the outcome is fixed: no draw is made, and only the
    /// order-preserving clamp runs. Otherwise exactly one jitter draw
    /// and one burst draw are consumed per arrival, interleaved (`u₀,
    /// b₀, u₁, b₁, …`), so the draw sequence is the same at every
    /// positive intensity.
    ///
    /// The work goes a block of arrivals at a time: one branch-free pass
    /// draws, jitters and records each arrival's burst test, a serial
    /// pass clumps bursts, and the clamp — a running maximum, which is
    /// one serial chain of float compares — runs only on a block whose
    /// times are not already in order at or above the previous time.
    pub fn perturb_arrivals<R: Rng + ?Sized>(&self, times: &mut [f64], tau0: f64, rng: &mut R) {
        const BLOCK: usize = 256;
        let amp = self.jitter_fraction() * tau0;
        let burst_p = self.burst_p();
        let mut prev = 0.0_f64;
        if amp == 0.0 && burst_p == 0.0 {
            for block in times.chunks_mut(BLOCK) {
                clamp_block(block, &mut prev);
            }
            return;
        }
        let mut clump_remaining = 0u32;
        let mut clump_at = 0.0_f64;
        let mut bursts = [false; BLOCK];
        for block in times.chunks_mut(BLOCK) {
            // Nothing in this loop feeds the next draw, so the jitter
            // and the burst test overlap the generator's serial chain.
            for (t, burst) in block.iter_mut().zip(&mut bursts) {
                let u: f64 = rng.gen();
                let b: f64 = rng.gen();
                *t += (2.0 * u - 1.0) * amp;
                *burst = b < burst_p;
            }
            for (t, &burst) in block.iter_mut().zip(&bursts) {
                if clump_remaining > 0 {
                    clump_remaining -= 1;
                    *t = clump_at;
                } else if burst {
                    clump_remaining = self.burst_len;
                    clump_at = *t;
                }
            }
            clamp_block(block, &mut prev);
        }
    }
}

/// Clamp a block of times onto the running maximum that starts at
/// `*prev` (and at 0), and leave `*prev` at the block's last time.
///
/// A block already nondecreasing from `*prev` on is its own running
/// maximum; checking that is a compare per neighbour pair with no
/// chain between pairs, so only an out-of-order block pays the serial
/// pass. A NaN time fails the check, and the serial pass replaces it by
/// the running maximum.
fn clamp_block(block: &mut [f64], prev: &mut f64) {
    let Some(&first) = block.first() else {
        return;
    };
    let ordered = block
        .windows(2)
        .fold(first >= *prev, |ok, w| ok & (w[1] >= w[0]));
    if ordered {
        *prev = block[block.len() - 1];
        return;
    }
    for t in block.iter_mut() {
        *t = t.max(*prev).max(0.0);
        *prev = *t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::rng::RngStream;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    #[test]
    fn none_is_noop_and_valid() {
        let p = Perturbation::none();
        assert!(p.validate().is_ok());
        assert!(p.is_noop());
        assert_eq!(p.service_multiplier(), 1.0);
        assert_eq!(p.gain_factor(), 1.0);
    }

    #[test]
    fn standard_at_zero_intensity_is_noop() {
        let p = Perturbation::standard(0.0);
        assert!(p.validate().is_ok());
        assert!(p.is_noop());
        assert_eq!(p.spike_p(), 0.0);
        assert_eq!(p.stall_p(), 0.0);
        assert_eq!(p.burst_p(), 0.0);
        assert_eq!(p.jitter_fraction(), 0.0);
    }

    #[test]
    fn standard_at_positive_intensity_is_not_noop() {
        let p = Perturbation::standard(0.5);
        assert!(p.validate().is_ok());
        assert!(!p.is_noop());
        assert!(p.service_multiplier() > 1.0);
        assert!(p.gain_factor() > 1.0);
        let q = p.at_intensity(0.0);
        assert!(q.is_noop());
        assert_eq!(q.arrival_jitter, p.arrival_jitter);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        let mut p = Perturbation::standard(1.0);
        p.spike_factor = 0.5;
        assert!(p.validate().is_err());
        let mut p = Perturbation::standard(1.0);
        p.intensity = -1.0;
        assert!(p.validate().is_err());
        let mut p = Perturbation::standard(1.0);
        p.gain_drift = -1.5; // gain factor would be negative
        assert!(p.validate().is_err());
        let mut p = Perturbation::standard(1.0);
        p.stall_cycles = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn zero_intensity_leaves_arrivals_bit_identical() {
        let p = Perturbation::standard(0.0);
        let original: Vec<f64> = (0..100).map(|k| k as f64 * 10.0).collect();
        let mut times = original.clone();
        p.perturb_arrivals(&mut times, 10.0, &mut rng());
        assert_eq!(times, original);
    }

    #[test]
    fn perturbed_arrivals_stay_sorted_and_nonnegative() {
        let p = Perturbation::standard(1.5);
        let mut times: Vec<f64> = (0..500).map(|k| k as f64 * 10.0).collect();
        let n = times.len();
        p.perturb_arrivals(&mut times, 10.0, &mut rng());
        assert_eq!(times.len(), n);
        assert!(times.iter().all(|&t| t >= 0.0));
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
        // Something actually moved.
        assert!(times.iter().zip(0..).any(|(&t, k)| t != k as f64 * 10.0));
    }

    /// The per-arrival loop `perturb_arrivals` batches, kept as its
    /// oracle: two draws per arrival at every intensity.
    fn perturb_arrivals_per_arrival<R: Rng + ?Sized>(
        p: &Perturbation,
        times: &mut [f64],
        tau0: f64,
        rng: &mut R,
    ) {
        let amp = p.jitter_fraction() * tau0;
        let burst_p = p.burst_p();
        let mut clump_remaining = 0u32;
        let mut clump_at = 0.0_f64;
        let mut prev = 0.0_f64;
        for t in times.iter_mut() {
            let u: f64 = rng.gen();
            let jitter = (2.0 * u - 1.0) * amp;
            let b: f64 = rng.gen();
            let mut shifted = *t + jitter;
            if clump_remaining > 0 {
                clump_remaining -= 1;
                shifted = clump_at;
            } else if b < burst_p {
                clump_remaining = p.burst_len;
                clump_at = shifted;
            }
            let fixed = shifted.max(prev).max(0.0);
            *t = fixed;
            prev = fixed;
        }
    }

    #[test]
    fn batched_arrival_faults_are_the_per_arrival_loop() {
        let mut r = StdRng::seed_from_u64(29);
        for case in 0..600 {
            let n = r.gen_range(0..1_300usize);
            let tau0 = r.gen_range(0.5..200.0);
            let mut p = Perturbation::standard(match case % 4 {
                0 => 0.0,
                _ => r.gen_range(0.0..2.5),
            });
            p.arrival_jitter = match case % 5 {
                0 => 0.0,
                _ => r.gen_range(0.0..1.5),
            };
            p.burst_len = r.gen_range(0..9u32);
            // Effective burst probability 0, 1 (clamped) or in between.
            p.burst_prob = match case % 3 {
                0 => 0.0,
                1 => 1e9,
                _ => r.gen_range(0.0..0.5),
            };
            // Sorted arrivals with some equal neighbours; every seventh
            // case is out of order and may be negative, and every
            // eleventh holds a NaN, so the clamp's serial pass runs too.
            let mut at = 0.0;
            let mut times: Vec<f64> = (0..n)
                .map(|_| {
                    if case % 7 == 0 {
                        return r.gen_range(-50.0..50.0) * tau0;
                    }
                    if r.gen_range(0..4u32) > 0 {
                        at += r.gen_range(0.0..2.0) * tau0;
                    }
                    at
                })
                .collect();
            if case % 11 == 0 && n > 0 {
                times[r.gen_range(0..n)] = f64::NAN;
            }
            let seed = r.gen();
            let (mut batched, mut oracle) = (times.clone(), times);
            let (mut rb, mut ro) = (RngStream::new(seed), RngStream::new(seed));
            p.perturb_arrivals(&mut batched, tau0, &mut rb);
            perturb_arrivals_per_arrival(&p, &mut oracle, tau0, &mut ro);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&batched), bits(&oracle), "case {case}");
            let fixed = p.jitter_fraction() * tau0 == 0.0 && p.burst_p() == 0.0;
            let want = if fixed { 0 } else { ro.draws() };
            assert_eq!(rb.draws(), want, "case {case}");
        }
    }

    #[test]
    fn bursts_create_simultaneous_clumps() {
        let mut p = Perturbation::standard(1.0);
        p.burst_prob = 0.2;
        p.burst_len = 4;
        p.arrival_jitter = 0.0;
        let mut times: Vec<f64> = (0..2_000).map(|k| k as f64 * 10.0).collect();
        p.perturb_arrivals(&mut times, 10.0, &mut rng());
        let dup = times.windows(2).filter(|w| w[1] == w[0]).count();
        assert!(dup > 50, "expected clumped arrivals, got {dup} duplicates");
    }

    #[test]
    fn gain_drift_scales_parametric_means() {
        let p = Perturbation {
            gain_drift: 0.5,
            ..Perturbation::standard(1.0)
        };
        match p.drift_gain(&GainModel::Bernoulli { p: 0.4 }) {
            GainModel::Bernoulli { p } => assert!((p - 0.6).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        // Clamped at 1.
        match p.drift_gain(&GainModel::Bernoulli { p: 0.9 }) {
            GainModel::Bernoulli { p } => assert_eq!(p, 1.0),
            other => panic!("{other:?}"),
        }
        match p.drift_gain(&GainModel::CensoredPoisson { mean: 2.0, cap: 16 }) {
            GainModel::CensoredPoisson { mean, cap } => {
                assert!((mean - 3.0).abs() < 1e-12);
                assert_eq!(cap, 16);
            }
            other => panic!("{other:?}"),
        }
        // Structural models pass through.
        let det = GainModel::Deterministic { k: 3 };
        assert_eq!(p.drift_gain(&det), det);
    }

    #[test]
    fn zero_intensity_gain_drift_is_identity() {
        let p = Perturbation::standard(0.0);
        let g = GainModel::Bernoulli { p: 0.379 };
        assert_eq!(p.drift_gain(&g), g);
        let c = GainModel::CensoredPoisson {
            mean: 1.92,
            cap: 16,
        };
        assert_eq!(p.drift_gain(&c), c);
    }

    #[test]
    fn serde_roundtrip() {
        let p = Perturbation::standard(0.75);
        let json = serde_json::to_string(&p).unwrap();
        let back: Perturbation = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
