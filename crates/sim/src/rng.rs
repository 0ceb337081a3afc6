//! Deterministic random numbers for simulations.
//!
//! Experiments in this repository must be bit-reproducible: the paper runs
//! three replicates of every experiment and reports confidence intervals,
//! and we reproduce that protocol with seeds `base`, `base+1`, `base+2`.
//! To guarantee identical streams across platforms and crate versions we
//! implement the generator ourselves rather than depending on `rand`'s
//! unspecified internals: SplitMix64 for seeding, xoshiro256\*\* for the
//! stream (public-domain algorithms by Blackman & Vigna).
//!
//! The distribution helpers cover exactly what the workload models need:
//! uniform ranges, exponential inter-arrival times, and Gaussian timer
//! jitter (Box–Muller).

/// A small, fast, fully deterministic RNG (xoshiro256\*\*).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed. Distinct seeds yield
    /// independent-looking streams; the all-zero internal state is
    /// unreachable by construction.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        // Multiply-shift bounded generation (Lemire); slight modulo bias of
        // the plain approach is irrelevant here but this is just as cheap.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Exponentially distributed value with the given rate (mean `1/rate`).
    /// Used for Poisson inter-arrival times.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        // Avoid ln(0).
        let u = 1.0 - self.next_f64();
        -u.ln() / rate
    }

    /// Standard normal via Box–Muller (cached pair).
    pub(crate) fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(11);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = SimRng::new(13);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(17);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "mean {mean} vs {}",
            1.0 / rate
        );
    }

    #[test]
    fn normal_moments_close() {
        let mut r = SimRng::new(19);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn uniform_stays_in_its_range() {
        let mut r = SimRng::new(23);
        for _ in 0..10_000 {
            let x = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn next_below_one_is_always_zero() {
        let mut r = SimRng::new(29);
        assert!((0..1000).all(|_| r.next_below(1) == 0));
    }

    #[test]
    #[should_panic(expected = "next_below(0)")]
    fn next_below_zero_panics() {
        SimRng::new(1).next_below(0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        SimRng::new(1).exponential(0.0);
    }

    #[test]
    fn normal_pairs_share_one_pair_of_uniform_draws() {
        // Box–Muller yields two normals per two uniforms: after two normal
        // draws the underlying stream has advanced exactly two steps.
        let mut a = SimRng::new(31);
        let mut b = a.clone();
        a.normal(0.0, 1.0);
        a.normal(0.0, 1.0);
        b.next_u64();
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_std_dev_normal_is_its_mean() {
        let mut r = SimRng::new(37);
        for _ in 0..100 {
            assert_eq!(r.normal(3.5, 0.0), 3.5);
        }
    }
}
