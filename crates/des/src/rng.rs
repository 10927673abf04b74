//! Deterministic, splittable random-number streams.
//!
//! Stochastic simulations need reproducibility (same seed → same run) and
//! *stream independence*: each simulated entity draws from its own stream
//! so that adding or reordering entities does not perturb the draws seen
//! by the others. We implement SplitMix64 for seeding and a 4×64-bit
//! xoshiro-style generator ([`RngStream`]) for the streams themselves.
//!
//! The generator implements [`rand::RngCore`] so the `rand`/`rand_distr`
//! distribution machinery works on top of it.

use rand::RngCore;

/// SplitMix64 step: the standard 64-bit finalizer-based generator used to
/// expand a single seed into independent stream seeds.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random stream (xoshiro256** core).
///
/// Streams are created either directly from a seed ([`RngStream::new`]) or
/// derived from a parent stream and a label ([`RngStream::substream`]).
/// Derivation is pure: it does not consume state from the parent, so the
/// set of substreams an entity creates never depends on draw order.
#[derive(Debug, Clone)]
pub struct RngStream {
    s: [u64; 4],
    seed: u64,
    draws: u64,
}

impl RngStream {
    /// Create a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        RngStream { s, seed, draws: 0 }
    }

    /// Derive an independent substream identified by `label`.
    ///
    /// Derivation hashes the parent's seed with the label, so
    /// `parent.substream(l)` is a pure function of `(parent_seed, l)`.
    pub fn substream(&self, label: u64) -> RngStream {
        // Mix seed and label through two SplitMix64 rounds to decorrelate
        // adjacent labels.
        let mut sm = self.seed ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
        let derived = splitmix64(&mut sm) ^ splitmix64(&mut sm).rotate_left(32);
        RngStream::new(derived)
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of 64-bit draws made so far (diagnostic).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64_raw(&mut self) -> u64 {
        // xoshiro256**
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        self.draws += 1;
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits → [0,1) with full double precision.
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    #[inline]
    pub fn uniform_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_below(0)");
        // Lemire-style rejection to remove modulo bias.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64_raw();
            let (hi, lo) = {
                let m = (x as u128) * (n as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }
}

impl RngCore for RngStream {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64_raw() >> 32) as u32
    }
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64_raw().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64_raw().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::new(42);
        let mut b = RngStream::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64_raw(), b.next_u64_raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::new(1);
        let mut b = RngStream::new(2);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert!(same < 2, "streams from different seeds look identical");
    }

    #[test]
    fn substreams_are_pure_functions_of_label() {
        let parent = RngStream::new(7);
        let mut s1 = parent.substream(3);
        let mut s2 = parent.substream(3);
        assert_eq!(s1.next_u64_raw(), s2.next_u64_raw());
    }

    #[test]
    fn substream_derivation_does_not_consume_parent_state() {
        let mut p1 = RngStream::new(9);
        let mut p2 = RngStream::new(9);
        let _ = p1.substream(0);
        let _ = p1.substream(1);
        assert_eq!(p1.next_u64_raw(), p2.next_u64_raw());
    }

    #[test]
    fn adjacent_labels_decorrelated() {
        let parent = RngStream::new(1234);
        let mut a = parent.substream(0);
        let mut b = parent.substream(1);
        let same = (0..64)
            .filter(|_| a.next_u64_raw() == b.next_u64_raw())
            .count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = RngStream::new(5);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = RngStream::new(6);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn uniform_below_in_range_and_roughly_uniform() {
        let mut r = RngStream::new(11);
        let n = 60_000;
        let mut counts = [0u32; 6];
        for _ in 0..n {
            let x = r.uniform_below(6);
            counts[x as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 1.0 / 6.0).abs() < 0.01, "bin freq {f}");
        }
    }

    #[test]
    #[should_panic(expected = "uniform_below(0)")]
    fn uniform_below_zero_panics() {
        RngStream::new(0).uniform_below(0);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = RngStream::new(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        // Extremely unlikely to be all zero.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn draw_counter_increments() {
        let mut r = RngStream::new(1);
        assert_eq!(r.draws(), 0);
        let _ = r.next_u64_raw();
        let _ = r.next_f64();
        assert_eq!(r.draws(), 2);
    }
}
