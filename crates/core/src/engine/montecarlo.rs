//! Monte-Carlo estimation of the anonymity degree.
//!
//! Samples complete protocol outcomes from the generative model (sender,
//! path length, path), forms the adversary's observation, evaluates the
//! *exact* posterior entropy of that observation, and averages. Because
//! each per-event entropy is exact, the estimator is unbiased for
//! `H*(S) = E[H(·|E)]` and its error shrinks as `1/√samples`.
//!
//! This estimator validates the closed-form engines and is the reference
//! method for configurations without a closed form (it also mirrors what
//! the full discrete-event simulation in `anonroute-sim` measures).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::PathLengthDist;
use crate::engine::fold::FoldWorkspace;
use crate::engine::observation::observe;
use crate::error::Result;
use crate::model::{PathKind, SystemModel};

/// Result of a Monte-Carlo estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloEstimate {
    /// Sample mean of the posterior entropy (the estimate of `H*`).
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: usize,
}

impl MonteCarloEstimate {
    /// Two-sided 95% confidence interval `(lo, hi)` under the normal
    /// approximation.
    pub fn ci95(&self) -> (f64, f64) {
        (
            self.mean - 1.96 * self.std_error,
            self.mean + 1.96 * self.std_error,
        )
    }

    /// Whether `value` lies within the 95% confidence interval.
    pub fn covers(&self, value: f64) -> bool {
        let (lo, hi) = self.ci95();
        (lo..=hi).contains(&value)
    }
}

/// Estimates `H*(S)` by sampling `samples` message transmissions with a
/// deterministic seed.
///
/// # Errors
///
/// Propagates distribution-validation errors.
pub fn estimate_anonymity_degree(
    model: &SystemModel,
    dist: &PathLengthDist,
    samples: usize,
    seed: u64,
) -> Result<MonteCarloEstimate> {
    // validates the distribution and hoists the log-factorial table and
    // hypothesis weights out of the sampling loop
    let workspace = FoldWorkspace::new(model, dist)?;
    let n = model.n();
    let c = model.c();
    let compromised: Vec<bool> = (0..n).map(|i| i < c).collect();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut scratch: Vec<usize> = (0..n).collect();
    let mut path: Vec<usize> = Vec::new();
    for _ in 0..samples {
        let sender = rng.gen_range(0..n);
        let h = if compromised[sender] {
            0.0
        } else {
            let l = dist.sample(&mut rng);
            sample_path_into(model, sender, l, &mut rng, &mut scratch, &mut path);
            let obs = observe(sender, &path, &compromised);
            workspace
                .round(&obs, &compromised)
                .expect("generated observations are consistent by construction")
                .entropy_bits()
        };
        sum += h;
        sum_sq += h * h;
    }
    let mean = sum / samples as f64;
    let var = (sum_sq / samples as f64 - mean * mean).max(0.0);
    let std_error = (var / samples as f64).sqrt();
    Ok(MonteCarloEstimate {
        mean,
        std_error,
        samples,
    })
}

/// Draws a random rerouting path of length `l` for `sender` under the
/// model's path kind. `scratch` must contain `0..n` in any order and is
/// reused across calls to avoid allocation.
pub fn sample_path<R: Rng + ?Sized>(
    model: &SystemModel,
    sender: usize,
    l: usize,
    rng: &mut R,
    scratch: &mut [usize],
) -> Vec<usize> {
    let mut path = Vec::with_capacity(l);
    sample_path_into(model, sender, l, rng, scratch, &mut path);
    path
}

/// [`sample_path`] into a caller-provided buffer, consuming exactly the
/// same random draws — for sampling loops that must not allocate a fresh
/// path per iteration.
pub fn sample_path_into<R: Rng + ?Sized>(
    model: &SystemModel,
    sender: usize,
    l: usize,
    rng: &mut R,
    scratch: &mut [usize],
    out: &mut Vec<usize>,
) {
    out.clear();
    match model.path_kind() {
        PathKind::Simple => {
            // partial Fisher-Yates over the other n-1 nodes
            debug_assert_eq!(scratch.len(), model.n());
            // move sender out of the sampling prefix
            let pos = scratch
                .iter()
                .position(|&x| x == sender)
                .expect("scratch holds 0..n");
            let last = scratch.len() - 1;
            scratch.swap(pos, last);
            let m = last; // candidates live in scratch[..m]
            for k in 0..l {
                let j = rng.gen_range(k..m);
                scratch.swap(k, j);
                out.push(scratch[k]);
            }
        }
        PathKind::Cyclic => out.extend((0..l).map(|_| rng.gen_range(0..model.n()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{cyclic, simple};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_path_simple_produces_distinct_nodes_excluding_sender() {
        let model = SystemModel::new(10, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch: Vec<usize> = (0..10).collect();
        for _ in 0..200 {
            let path = sample_path(&model, 4, 6, &mut rng, &mut scratch);
            assert_eq!(path.len(), 6);
            assert!(!path.contains(&4));
            let mut sorted = path.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 6, "distinct nodes required");
        }
    }

    #[test]
    fn sample_path_simple_is_uniform_over_first_hop() {
        let model = SystemModel::new(5, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch: Vec<usize> = (0..5).collect();
        let mut counts = [0usize; 5];
        let trials = 20_000;
        for _ in 0..trials {
            let path = sample_path(&model, 0, 2, &mut rng, &mut scratch);
            counts[path[0]] += 1;
        }
        assert_eq!(counts[0], 0);
        for &cnt in &counts[1..] {
            let freq = cnt as f64 / trials as f64;
            assert!((freq - 0.25).abs() < 0.02, "freq {freq}");
        }
    }

    #[test]
    fn monte_carlo_agrees_with_exact_simple_engine() {
        let model = SystemModel::new(40, 2).unwrap();
        let dist = PathLengthDist::uniform(1, 8).unwrap();
        let exact = simple::anonymity_degree(&model, &dist).unwrap();
        let est = estimate_anonymity_degree(&model, &dist, 30_000, 42).unwrap();
        assert!(
            est.covers(exact) || (est.mean - exact).abs() < 4.0 * est.std_error,
            "exact={exact} est={est:?}"
        );
    }

    #[test]
    fn monte_carlo_agrees_with_exact_cyclic_engine() {
        let model = SystemModel::with_path_kind(20, 2, PathKind::Cyclic).unwrap();
        let dist = PathLengthDist::geometric(0.6, 12).unwrap();
        let exact = cyclic::anonymity_degree(&model, &dist).unwrap();
        let est = estimate_anonymity_degree(&model, &dist, 30_000, 7).unwrap();
        assert!(
            est.covers(exact) || (est.mean - exact).abs() < 4.0 * est.std_error,
            "exact={exact} est={est:?}"
        );
    }

    #[test]
    fn estimator_is_deterministic_under_a_seed() {
        let model = SystemModel::new(25, 1).unwrap();
        let dist = PathLengthDist::fixed(4);
        let a = estimate_anonymity_degree(&model, &dist, 2_000, 9).unwrap();
        let b = estimate_anonymity_degree(&model, &dist, 2_000, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ci_helpers_behave() {
        let est = MonteCarloEstimate {
            mean: 5.0,
            std_error: 0.1,
            samples: 100,
        };
        let (lo, hi) = est.ci95();
        assert!(lo < 5.0 && hi > 5.0);
        assert!(est.covers(5.1));
        assert!(!est.covers(6.0));
    }
}
