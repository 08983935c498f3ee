//! Per-hop link latency models for the clique network.

use rand::Rng;

/// Distribution of one-hop transmission delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every hop takes exactly this many microseconds.
    Constant(u64),
    /// Uniform in `[lo, hi]` microseconds.
    Uniform {
        /// Lower bound (inclusive), microseconds.
        lo: u64,
        /// Upper bound (inclusive), microseconds.
        hi: u64,
    },
}

impl LatencyModel {
    /// Samples one hop delay in microseconds.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a `Uniform` model has `lo > hi`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            LatencyModel::Constant(us) => us,
            LatencyModel::Uniform { lo, hi } => {
                debug_assert!(lo <= hi, "uniform bounds out of order");
                rng.gen_range(lo..=hi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Constant(42);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 42);
        }
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::Uniform { lo: 10, hi: 20 };
        let mut sum = 0.0;
        let trials = 20_000;
        for _ in 0..trials {
            let s = m.sample(&mut rng);
            assert!((10..=20).contains(&s));
            sum += s as f64;
        }
        assert!((sum / trials as f64 - 15.0).abs() < 0.2);
    }
}
