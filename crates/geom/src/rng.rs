//! Small deterministic PRNGs.
//!
//! Every random choice in the workspace — workload generation, LOD stratified
//! sampling, benchmark data — must be reproducible across runs and platforms,
//! so we implement SplitMix64 and xoshiro256** from their reference
//! definitions instead of depending on an external RNG whose stream may
//! change between versions.

/// SplitMix64: tiny, fast, passes BigCrush; ideal for seeding and for
/// low-volume sampling decisions.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for n << 2^64 and irrelevant for
        // workload generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// xoshiro256**: the general-purpose generator used by workload generators
/// that draw many values.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64, per the reference implementation's advice.
    pub fn new(seed: u64) -> Xoshiro256 {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 random bits.
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

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal via Box-Muller (one value per call; simple and exact
    /// enough for turbulence/jitter models).
    pub fn normal(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > 1e-300 {
                let u2 = self.next_f64();
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 from the public reference implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220a8397b1dcdaf);
        assert_eq!(r.next_u64(), 0x6e789e6aa1b965f4);
        assert_eq!(r.next_u64(), 0x06c45d188009454f);
    }

    #[test]
    fn deterministic_streams() {
        let mut a = Xoshiro256::new(42);
        let mut b = Xoshiro256::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = Xoshiro256::new(1);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let g = r.next_f32();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = Xoshiro256::new(5);
        for _ in 0..10_000 {
            let v = r.uniform(-3.0, 7.0);
            assert!((-3.0..7.0).contains(&v));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut r = Xoshiro256::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_moments() {
        let mut r = Xoshiro256::new(11);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let v = r.normal();
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
