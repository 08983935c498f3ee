//! The paper's optimization problem (Section 5.4, eqs. 15–17): choose the
//! path-length distribution that maximizes the anonymity degree.
//!
//! ```text
//! maximize   H*(S)
//! subject to Σ_l P[L = l] = 1,   P[L = l] ≥ 0   for l in 0..=lmax
//! ```
//!
//! and the Figure-6 variant with the additional constraint
//! `E[L] = mean` (equal rerouting overhead). Two solvers are provided:
//!
//! * [`maximize`] / [`maximize_with_mean`] — projected gradient ascent over
//!   the full distribution simplex, from one start;
//! * [`best_uniform_with_mean`] — the paper's own search over the uniform
//!   family `U(L-Δ, L+Δ)` (Section 6.4).
//!
//! # One start
//!
//! `H* = H(S | O)` is concave in the pmf: the joint law of sender and
//! observation is linear in `q`, and conditional entropy is concave in the
//! joint. Every KKT point on the simplex, or on a fixed-mean slice, is
//! therefore a global maximum, and one ascent finds it. [`maximize`] starts
//! from the uniform pmf; [`maximize_with_mean`] from the uniform band of
//! lengths around the mean, projected onto `E[L] = mean`.
//!
//! # The gradient
//!
//! Each iteration takes the exact gradient of `H*`
//! ([`Evaluator::h_star_and_grad`]) rather than finite differences. Every
//! observation class's probability and both of its hypothesis weights are
//! linear in the pmf `q`, and the class's posterior entropy depends only on
//! the ratio of the two weights, so the unnormalized objective is
//! 1-homogeneous and `∂H*/∂q_l = ∂H̃/∂q_l − H*` falls out of the same class
//! pass as `H*`. A solve tabulates every class's per-length coefficients
//! once, so each evaluation in its loop is a few dot products; the table
//! lives only as long as the solve.
//!
//! # The projections
//!
//! A step `q + t·∇H*` is projected back onto the feasible set.
//! [`project_simplex`] finds the simplex threshold exactly by sorting. For
//! the fixed-mean set, [`project_simplex_with_mean`] searches the mean
//! multiplier `β` (each trial takes the exact sort-based `α(β)`) only until
//! the support settles, then solves the 2×2 KKT system on that support,
//! so `Σq = 1` and `E[L] = mean` hold to rounding.

mod projection;

pub use projection::{project_simplex, project_simplex_with_mean};

use crate::dist::PathLengthDist;
use crate::engine::simple::Evaluator;
use crate::error::{Error, Result};
use crate::model::SystemModel;

/// Result of an optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationOutcome {
    /// The optimizing path-length distribution.
    pub dist: PathLengthDist,
    /// Its anonymity degree `H*` in bits.
    pub h_star: f64,
    /// Number of objective evaluations spent.
    pub evaluations: usize,
}

/// Gradient iterations per solve. A solve stops once no step improves `H*`
/// by more than [`TOL`]: the `n = 100, c = 1` solves at `lmax = 60` and at
/// mean 6 over `0..=32` stop after 2,475 and 3,307 iterations. The cap only
/// guards against a bug that keeps the ascent from settling.
const MAX_ITERS: usize = 10_000;
/// An iteration must improve `H*` by more than this to be taken.
const TOL: f64 = 1e-12;
/// First step size of the line search.
const STEP0: f64 = 0.25;
/// The line search gives up below this step size.
const MIN_STEP: f64 = 1e-10;

/// Maximizes `H*` over all distributions on `0..=lmax`
/// (the unconstrained problem, eqs. 15–17).
///
/// # Errors
///
/// Returns an error for cyclic-path models (optimize over the simple-path
/// model the paper analyzes) or `lmax > n - 1`.
pub fn maximize(model: &SystemModel, lmax: usize) -> Result<OptimizationOutcome> {
    let ev = Evaluator::new(model, lmax)?;
    solve(&ev, &vec![1.0 / (lmax + 1) as f64; lmax + 1], None)
}

/// Maximizes `H*` over all distributions on `0..=lmax` with expected path
/// length fixed to `mean` — the equal-overhead comparison of Figure 6.
///
/// # Errors
///
/// Returns an error for infeasible means (`mean ∉ [0, lmax]`) and the
/// conditions of [`maximize`].
pub fn maximize_with_mean(
    model: &SystemModel,
    lmax: usize,
    mean: f64,
) -> Result<OptimizationOutcome> {
    if !(0.0..=lmax as f64).contains(&mean) {
        return Err(Error::Optimization(format!(
            "target mean {mean} is infeasible on support 0..={lmax}"
        )));
    }
    let ev = Evaluator::new(model, lmax)?;
    solve(&ev, &band_start(lmax, mean), Some(mean))
}

/// The paper's Section-6.4 family search: over all uniform distributions
/// `U(mean-Δ, mean+Δ)` with the given integer mean, returns the best
/// spread `Δ` and its outcome.
///
/// # Errors
///
/// Returns an error if `mean > lmax` or the model rejects the support.
pub fn best_uniform_with_mean(
    model: &SystemModel,
    lmax: usize,
    mean: usize,
) -> Result<(usize, OptimizationOutcome)> {
    if mean > lmax {
        return Err(Error::Optimization(format!(
            "mean {mean} exceeds the support bound {lmax}"
        )));
    }
    let ev = Evaluator::new(model, lmax)?;
    let mut best: Option<(usize, OptimizationOutcome)> = None;
    let mut evals = 0;
    for delta in 0..=mean.min(lmax - mean) {
        let dist = PathLengthDist::uniform(mean - delta, mean + delta)
            .expect("bounds are ordered by construction");
        let h = ev.h_star(dist.pmf());
        evals += 1;
        if best.as_ref().is_none_or(|(_, b)| h > b.h_star) {
            best = Some((
                delta,
                OptimizationOutcome {
                    dist,
                    h_star: h,
                    evaluations: evals,
                },
            ));
        }
    }
    let (delta, mut outcome) = best.expect("delta = 0 is always evaluated");
    outcome.evaluations = evals;
    Ok((delta, outcome))
}

/// The fixed-mean start: uniform over the symmetric band of lengths around
/// `mean`, projected onto the slice `E[L] = mean`. Near the ends of the
/// support the band shrinks to `{⌊mean⌋, ⌈mean⌉}`.
fn band_start(lmax: usize, mean: f64) -> Vec<f64> {
    // halfwidth ≤ ⌊mean⌋ and ⌈mean⌉ + halfwidth ≤ lmax, so a..=b fits
    let halfwidth = mean.min(lmax as f64 - mean).floor() as usize;
    let a = mean as usize - halfwidth;
    let b = mean.ceil() as usize + halfwidth;
    let mut band = vec![0.0; lmax + 1];
    let width = (b - a + 1) as f64;
    for slot in &mut band[a..=b] {
        *slot = 1.0 / width;
    }
    project(&band, Some(mean))
}

fn project(y: &[f64], mean: Option<f64>) -> Vec<f64> {
    match mean {
        None => project_simplex(y),
        Some(m) => project_simplex_with_mean(y, m).expect("feasibility was checked before solving"),
    }
}

/// Projected gradient ascent from `start`, until no step improves `H*` by
/// more than [`TOL`]. `H*` is concave on the feasible set, so there is no
/// local maximum for a second start to escape.
fn solve(ev: &Evaluator, start: &[f64], mean: Option<f64>) -> Result<OptimizationOutcome> {
    let forms = ev.class_forms();
    let mut grad = vec![0.0; start.len()];
    let mut q = project(start, mean);
    let mut h = forms.h_star_and_grad(&q, &mut grad);
    let mut evals = 1;
    let mut step = STEP0;
    for _ in 0..MAX_ITERS {
        // line search along the projected gradient direction
        let mut improved = false;
        while step > MIN_STEP {
            let cand_raw: Vec<f64> = q
                .iter()
                .zip(&grad)
                .map(|(&qi, &gi)| qi + step * gi)
                .collect();
            let cand = project(&cand_raw, mean);
            let h_cand = forms.h_star(&cand);
            evals += 1;
            if h_cand > h + TOL {
                q = cand;
                step *= 1.5;
                improved = true;
                break;
            }
            step *= 0.5;
        }
        if !improved {
            break;
        }
        h = forms.h_star_and_grad(&q, &mut grad);
        evals += 1;
    }

    Ok(OptimizationOutcome {
        dist: PathLengthDist::from_pmf(q)?,
        h_star: h,
        evaluations: evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;

    #[test]
    fn unconstrained_optimum_beats_every_fixed_length() {
        let model = SystemModel::new(40, 1).unwrap();
        let lmax = 20;
        let out = maximize(&model, lmax).unwrap();
        for l in 0..=lmax {
            let h = engine::anonymity_degree(&model, &PathLengthDist::fixed(l)).unwrap();
            assert!(
                out.h_star >= h - 1e-9,
                "optimum {} beaten by F({l}) = {h}",
                out.h_star
            );
        }
        // the outcome's reported value matches re-evaluating its distribution
        let recheck = engine::anonymity_degree(&model, &out.dist).unwrap();
        assert!((recheck - out.h_star).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_optimum_beats_uniform_families() {
        let model = SystemModel::new(40, 1).unwrap();
        let lmax = 20;
        let out = maximize(&model, lmax).unwrap();
        for a in 0..=lmax {
            for b in a..=lmax {
                let h = engine::anonymity_degree(&model, &PathLengthDist::uniform(a, b).unwrap())
                    .unwrap();
                assert!(out.h_star >= h - 1e-9, "beaten by U({a},{b}) = {h}");
            }
        }
    }

    #[test]
    fn mean_constrained_optimum_respects_constraint_and_beats_family() {
        let model = SystemModel::new(50, 1).unwrap();
        let lmax = 30;
        let mean = 8.0;
        let out = maximize_with_mean(&model, lmax, mean).unwrap();
        assert!(
            (out.dist.mean() - mean).abs() < 1e-6,
            "mean={}",
            out.dist.mean()
        );
        let (_, family_best) = best_uniform_with_mean(&model, lmax, 8).unwrap();
        assert!(
            out.h_star >= family_best.h_star - 1e-9,
            "solver {} vs family {}",
            out.h_star,
            family_best.h_star
        );
    }

    #[test]
    fn solver_quality_never_drops_below_the_finite_difference_solver() {
        // the H* the multi-start solver reached on the benchmark's two
        // optimal cells (n = 100, c = 1), above the forward-difference
        // solver's 6.547738331915719 and 6.534248732997005
        let model = SystemModel::new(100, 1).unwrap();
        let free = maximize(&model, 60).unwrap();
        assert!(free.h_star >= 6.547747471158516, "{}", free.h_star);
        let fixed_mean = maximize_with_mean(&model, 32, 6.0).unwrap();
        assert!(
            fixed_mean.h_star >= 6.53431070135408,
            "{}",
            fixed_mean.h_star
        );
        assert!((fixed_mean.dist.mean() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_means_start_from_the_two_point_band() {
        // means within 1 of an end of the support leave a zero-width band
        let model = SystemModel::new(30, 1).unwrap();
        let lmax = 10;
        let ev = Evaluator::new(&model, lmax).unwrap();
        for mean in [0.0, 0.5, lmax as f64 - 0.5, lmax as f64] {
            let out = maximize_with_mean(&model, lmax, mean).unwrap();
            let mut pmf = out.dist.pmf().to_vec();
            assert!(pmf.len() <= lmax + 1, "mean {mean}: {pmf:?}");
            assert!(pmf.iter().all(|&p| p >= 0.0), "mean {mean}: {pmf:?}");
            assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12, "mean {mean}");
            assert!((out.dist.mean() - mean).abs() < 1e-12, "mean {mean}");
            pmf.resize(lmax + 1, 0.0);
            assert!((ev.h_star(&pmf) - out.h_star).abs() < 1e-12, "mean {mean}");
            // the best distribution on {⌊mean⌋, ⌈mean⌉}: it is unique
            let (lo, hi) = (mean.floor() as usize, mean.ceil() as usize);
            let mut two_point = vec![0.0; lmax + 1];
            two_point[lo] = 1.0 - (mean - lo as f64);
            two_point[hi] += mean - lo as f64;
            let floor = ev.h_star(&two_point);
            assert!(
                out.h_star >= floor - 1e-12,
                "mean {mean}: {} below the two-point {floor}",
                out.h_star
            );
        }
    }

    #[test]
    fn best_uniform_with_mean_scans_all_spreads() {
        let model = SystemModel::new(100, 1).unwrap();
        let (delta, out) = best_uniform_with_mean(&model, 99, 10).unwrap();
        assert!(delta <= 10);
        // must beat (or tie) the fixed strategy of the same mean
        let fixed = engine::anonymity_degree(&model, &PathLengthDist::fixed(10)).unwrap();
        assert!(out.h_star >= fixed - 1e-12);
        assert!((out.dist.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_inputs_are_rejected() {
        let model = SystemModel::new(30, 1).unwrap();
        assert!(maximize_with_mean(&model, 10, 11.0).is_err());
        assert!(maximize_with_mean(&model, 10, -1.0).is_err());
        assert!(best_uniform_with_mean(&model, 10, 11).is_err());
        assert!(maximize(&model, 30).is_err()); // lmax > n-1
    }

    #[test]
    fn optimum_stays_within_entropy_bound() {
        let model = SystemModel::new(30, 2).unwrap();
        let out = maximize(&model, 15).unwrap();
        assert!(out.h_star <= 30f64.log2());
        assert!(out.evaluations > 0);
    }
}
