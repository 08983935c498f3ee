//! Brute-force ground truth by exhaustive enumeration.
//!
//! This module computes the anonymity degree *directly from its definition*
//! (eqs. 3–5 of the paper): enumerate every (sender, length, path) outcome,
//! group outcomes by the exact observation they produce for the adversary,
//! and average the posterior entropies. Runtime is exponential — it exists
//! to validate the closed-form engines on tiny systems and is exercised
//! heavily by the test suite.

use std::collections::HashMap;

use crate::dist::PathLengthDist;
use crate::engine::observation::{observe, Observation};
use crate::error::Result;
use crate::mathutil::entropy_bits;
use crate::model::{PathKind, SystemModel};

/// Joint enumeration of all outcomes: maps each distinct observation to the
/// probability mass each sender contributes to it.
///
/// The compromised set is taken to be nodes `0..c` (node identities are
/// exchangeable, so this is without loss of generality).
pub fn enumerate_outcomes(
    model: &SystemModel,
    dist: &PathLengthDist,
) -> Result<HashMap<Observation, Vec<f64>>> {
    model.validate_dist(dist)?;
    let n = model.n();
    let c = model.c();
    let compromised: Vec<bool> = (0..n).map(|i| i < c).collect();
    let mut outcomes: HashMap<Observation, Vec<f64>> = HashMap::new();

    for sender in 0..n {
        for (l, &ql) in dist.pmf().iter().enumerate() {
            if ql == 0.0 {
                continue;
            }
            let mut paths: Vec<Vec<usize>> = Vec::new();
            match model.path_kind() {
                PathKind::Simple => {
                    let others: Vec<usize> = (0..n).filter(|&x| x != sender).collect();
                    let mut used = vec![false; others.len()];
                    let mut path = Vec::with_capacity(l);
                    permutations(&others, l, &mut used, &mut path, &mut paths);
                }
                PathKind::Cyclic => {
                    let mut path = Vec::with_capacity(l);
                    sequences(n, l, &mut path, &mut paths);
                }
            }
            let weight = ql / (n as f64 * paths.len() as f64);
            for path in &paths {
                let obs = observe(sender, path, &compromised);
                outcomes.entry(obs).or_insert_with(|| vec![0.0; n])[sender] += weight;
            }
        }
    }
    Ok(outcomes)
}

fn permutations(
    pool: &[usize],
    remaining: usize,
    used: &mut [bool],
    path: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    if remaining == 0 {
        out.push(path.clone());
        return;
    }
    for i in 0..pool.len() {
        if used[i] {
            continue;
        }
        used[i] = true;
        path.push(pool[i]);
        permutations(pool, remaining - 1, used, path, out);
        path.pop();
        used[i] = false;
    }
}

fn sequences(n: usize, remaining: usize, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if remaining == 0 {
        out.push(path.clone());
        return;
    }
    for v in 0..n {
        path.push(v);
        sequences(n, remaining - 1, path, out);
        path.pop();
    }
}

/// Anonymity degree computed straight from the definition. Its cost
/// grows exponentially; use only for tiny systems (roughly `n ≤ 8`, `lmax ≤ 4`).
///
/// # Errors
///
/// Propagates distribution-validation errors.
pub fn anonymity_degree_brute(model: &SystemModel, dist: &PathLengthDist) -> Result<f64> {
    let outcomes = enumerate_outcomes(model, dist)?;
    let mut h_star = 0.0;
    for masses in outcomes.values() {
        let p_event: f64 = masses.iter().sum();
        h_star += p_event * entropy_bits(masses);
    }
    Ok(h_star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::posterior::sender_posterior;
    use crate::engine::simple;
    use crate::model::PathKind;

    fn dists_for(n: usize) -> Vec<PathLengthDist> {
        let lmax = (n - 1).min(4);
        vec![
            PathLengthDist::fixed(0),
            PathLengthDist::fixed(1),
            PathLengthDist::fixed(2.min(lmax)),
            PathLengthDist::fixed(lmax),
            PathLengthDist::uniform(0, lmax).unwrap(),
            PathLengthDist::uniform(1, lmax).unwrap(),
            PathLengthDist::two_point(1, 0.3, lmax).unwrap(),
            PathLengthDist::geometric(0.6, lmax).unwrap(),
        ]
    }

    #[test]
    fn brute_masses_are_a_probability_distribution() {
        let model = SystemModel::new(5, 2).unwrap();
        let dist = PathLengthDist::uniform(0, 3).unwrap();
        let outcomes = enumerate_outcomes(&model, &dist).unwrap();
        let total: f64 = outcomes.values().flat_map(|v| v.iter()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_simple_engine_matches_brute_force() {
        for n in [4usize, 5, 6] {
            for c in 0..=3.min(n) {
                let model = SystemModel::new(n, c).unwrap();
                for dist in dists_for(n) {
                    let brute = anonymity_degree_brute(&model, &dist).unwrap();
                    let exact = simple::anonymity_degree(&model, &dist).unwrap();
                    assert!(
                        (brute - exact).abs() < 1e-10,
                        "n={n} c={c} dist={dist}: brute={brute} exact={exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_simple_engine_matches_brute_force_larger_c() {
        // heavier compromise ratios, including adjacent-run classes
        let model = SystemModel::new(7, 4).unwrap();
        for dist in [
            PathLengthDist::fixed(4),
            PathLengthDist::uniform(2, 5).unwrap(),
            PathLengthDist::uniform(0, 6).unwrap(),
        ] {
            let brute = anonymity_degree_brute(&model, &dist).unwrap();
            let exact = simple::anonymity_degree(&model, &dist).unwrap();
            assert!(
                (brute - exact).abs() < 1e-10,
                "dist={dist}: brute={brute} exact={exact}"
            );
        }
    }

    #[test]
    fn posterior_matches_brute_force_on_every_observation() {
        for (n, c) in [(5usize, 1usize), (6, 2), (6, 3)] {
            let model = SystemModel::new(n, c).unwrap();
            let compromised: Vec<bool> = (0..n).map(|i| i < c).collect();
            for dist in [
                PathLengthDist::uniform(0, 3).unwrap(),
                PathLengthDist::uniform(1, 4.min(n - 1)).unwrap(),
                PathLengthDist::geometric(0.5, 4.min(n - 1)).unwrap(),
            ] {
                let outcomes = enumerate_outcomes(&model, &dist).unwrap();
                for (obs, masses) in &outcomes {
                    let z: f64 = masses.iter().sum();
                    let expected: Vec<f64> = masses.iter().map(|m| m / z).collect();
                    let got = sender_posterior(&model, &dist, obs, &compromised).unwrap();
                    for i in 0..n {
                        assert!(
                            (expected[i] - got[i]).abs() < 1e-10,
                            "n={n} c={c} dist={dist} obs={obs:?} node {i}: \
                             brute={} engine={}",
                            expected[i],
                            got[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cyclic_brute_force_runs_and_is_bounded() {
        let model = SystemModel::with_path_kind(5, 1, PathKind::Cyclic).unwrap();
        let dist = PathLengthDist::uniform(1, 3).unwrap();
        let h = anonymity_degree_brute(&model, &dist).unwrap();
        assert!(h > 0.0 && h <= 5f64.log2());
    }
}
