//! Euclidean projections onto the feasible sets of the paper's
//! optimization problem: the probability simplex (constraints 16–17) and
//! its intersection with a fixed-mean hyperplane (the Figure-6 variant).

/// Projects `y` onto the probability simplex `{q : q ≥ 0, Σq = 1}` in
/// `O(k log k)` (Held–Wolfe–Crowder / Duchi et al.).
pub fn project_simplex(y: &[f64]) -> Vec<f64> {
    assert!(!y.is_empty(), "cannot project an empty vector");
    let tau = simplex_threshold(y, &mut Vec::with_capacity(y.len()));
    y.iter().map(|&v| (v - tau).max(0.0)).collect()
}

/// The threshold `τ` with `Σ max(0, v - τ) = 1`, found exactly by sorting
/// `v` (into `sorted`, a reusable buffer).
fn simplex_threshold(v: &[f64], sorted: &mut Vec<f64>) -> f64 {
    let k = v.len();
    sorted.clear();
    sorted.extend_from_slice(v);
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite values"));
    let mut cumsum = 0.0;
    for (j, &x) in sorted.iter().enumerate() {
        cumsum += x;
        let t = (cumsum - 1.0) / (j + 1) as f64;
        // the standard stopping rule: v_{j+1} <= tau < v_j
        if j + 1 == k || sorted[j + 1] <= t {
            return t;
        }
    }
    unreachable!("the last index always stops the scan")
}

/// Steps on `β` before [`project_simplex_with_mean`] settles for the last
/// step's simplex projection. Each step at least shrinks the bracket, and
/// a bisection step halves it, so the active set settles long before this
/// on any finite input.
const MAX_BETA_STEPS: usize = 200;

/// Projects `y` onto `{q : q ≥ 0, Σq = 1, Σ l·q_l = mean}` — the simplex
/// intersected with the fixed-expected-length hyperplane.
///
/// The KKT conditions give `q_l = max(0, y_l - α - β·l)`. For a fixed `β`
/// the exact `α(β)` is the simplex threshold of `y_l - β·l`, and the mean of
/// the result is non-increasing in `β`. A bracketed search on `β` runs
/// until its active set `A = {l : q_l > 0}` is the optimal one; then the
/// two equality constraints restricted to `A` form a 2×2 linear system in
/// `(α, β)`, whose solution meets `Σq = 1` and `E[L] = mean` to rounding.
/// While `A` is not yet optimal, that system's `β` is where the mean would
/// meet the target if `A` held (a Newton step on the piecewise-linear
/// mean); the search takes it when it falls inside the bracket and bisects
/// otherwise.
///
/// Returns `None` when the constraints are infeasible
/// (`mean` outside `[0, len-1]`).
pub fn project_simplex_with_mean(y: &[f64], mean: f64) -> Option<Vec<f64>> {
    let k = y.len();
    assert!(k > 0, "cannot project an empty vector");
    let max_idx = (k - 1) as f64;
    if !(0.0..=max_idx).contains(&mean) {
        return None;
    }
    // exact boundary cases: all mass pinned to an endpoint
    if mean == 0.0 || mean == max_idx {
        let mut q = vec![0.0; k];
        q[mean as usize] = 1.0;
        return Some(q);
    }

    let mut shifted = vec![0.0; k];
    let mut sorted = Vec::with_capacity(k);
    // α(β), leaving y_l - β·l in `shifted`
    let mut threshold_at = |beta: f64, shifted: &mut [f64]| -> f64 {
        for (l, (s, &v)) in shifted.iter_mut().zip(y).enumerate() {
            *s = v - beta * l as f64;
        }
        simplex_threshold(shifted, &mut sorted)
    };
    let mean_of = |shifted: &[f64], alpha: f64| -> f64 {
        shifted
            .iter()
            .enumerate()
            .map(|(l, &v)| l as f64 * (v - alpha).max(0.0))
            .sum()
    };

    // bracket β: the mean is non-increasing in β
    let mut lo = -1.0;
    let mut hi = 1.0;
    for _ in 0..=80 {
        let alpha = threshold_at(lo, &mut shifted);
        if mean_of(&shifted, alpha) >= mean {
            break;
        }
        lo *= 2.0;
    }
    for _ in 0..=80 {
        let alpha = threshold_at(hi, &mut shifted);
        if mean_of(&shifted, alpha) <= mean {
            break;
        }
        hi *= 2.0;
    }

    let tol = 64.0 * f64::EPSILON * (1.0 + y.iter().fold(0.0f64, |m, v| m.max(v.abs())));
    let mut alpha = 0.0;
    let mut beta = 0.5 * (lo + hi);
    for _ in 0..MAX_BETA_STEPS {
        alpha = threshold_at(beta, &mut shifted);
        let newton = match solve_on_active_set(y, &shifted, alpha, mean, tol) {
            Ok(q) => return Some(q),
            Err(newton) => newton,
        };
        if mean_of(&shifted, alpha) > mean {
            lo = beta;
        } else {
            hi = beta;
        }
        beta = if lo < newton && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    Some(shifted.iter().map(|&v| (v - alpha).max(0.0)).collect())
}

/// Solves the projection's KKT system on the active set
/// `A = {l : shifted_l > alpha}` of one search step: `q_l = y_l - α - β·l`
/// on `A`, `Σq = 1`, `Σ l·q_l = mean`. Returns the projection if the
/// solution is nonnegative on `A` and the excluded coordinates would be
/// nonpositive (both up to `tol`), i.e. if `A` is the optimal support, and
/// otherwise the solution's `β` (NaN when the system is singular).
fn solve_on_active_set(
    y: &[f64],
    shifted: &[f64],
    alpha: f64,
    mean: f64,
    tol: f64,
) -> Result<Vec<f64>, f64> {
    let active = |l: usize| shifted[l] > alpha;
    let (mut na, mut s1, mut s2, mut sy, mut sly) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (l, &v) in y.iter().enumerate().filter(|&(l, _)| active(l)) {
        let lf = l as f64;
        na += 1.0;
        s1 += lf;
        s2 += lf * lf;
        sy += v;
        sly += lf * v;
    }
    // na·α + s1·β = sy - 1  and  s1·α + s2·β = sly - mean
    let det = na * s2 - s1 * s1;
    let solve = |r1: f64, r2: f64| ((r1 * s2 - s1 * r2) / det, (na * r2 - s1 * r1) / det);
    let (a, b) = if det > 0.0 {
        solve(sy - 1.0, sly - mean)
    } else if na == 1.0 && s1 == mean {
        // a single support point that already has the target mean
        (y[s1 as usize] - 1.0, 0.0)
    } else {
        return Err(f64::NAN);
    };
    let mut q = Vec::with_capacity(y.len());
    for (l, &v) in y.iter().enumerate() {
        let r = v - a - b * l as f64;
        let kkt_holds = if active(l) { r >= -tol } else { r <= tol };
        if !kkt_holds {
            return Err(b);
        }
        q.push(if active(l) { r } else { 0.0 });
    }
    if det > 0.0 {
        // one step of iterative refinement: `q` carries rounding from
        // the size of `y`, its residuals only from the size of `q`
        let (r1, r2) = q
            .iter()
            .enumerate()
            .fold((-1.0, -mean), |(t, m), (l, &v)| (t + v, m + l as f64 * v));
        let (da, db) = solve(r1, r2);
        for (l, v) in q.iter_mut().enumerate().filter(|&(l, _)| active(l)) {
            *v -= da + db * l as f64;
        }
    }
    for v in &mut q {
        *v = v.max(0.0);
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference projection by nested bisection: 200 outer steps on `β`,
    /// each solving `α(β)` by 200 inner steps, then a renormalization of
    /// the leftover drift. The exact projection is checked against it.
    fn nested_bisection_oracle(y: &[f64], mean: f64) -> Option<Vec<f64>> {
        let k = y.len();
        assert!(k > 0, "cannot project an empty vector");
        let max_idx = (k - 1) as f64;
        if !(0.0..=max_idx).contains(&mean) {
            return None;
        }
        // exact boundary cases: all mass pinned to an endpoint
        if mean == 0.0 {
            let mut q = vec![0.0; k];
            q[0] = 1.0;
            return Some(q);
        }
        if mean == max_idx {
            let mut q = vec![0.0; k];
            q[k - 1] = 1.0;
            return Some(q);
        }

        // inner solve: alpha(beta) such that sum max(0, y - alpha - beta l) = 1
        let solve_alpha = |beta: f64| -> f64 {
            let vals: Vec<f64> = y
                .iter()
                .enumerate()
                .map(|(l, &v)| v - beta * l as f64)
                .collect();
            let hi0 = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut lo = hi0 - 1.0;
            // expand until mass(lo) >= 1
            while vals.iter().map(|&v| (v - lo).max(0.0)).sum::<f64>() < 1.0 {
                lo -= 1.0 + (hi0 - lo);
            }
            let mut hi = hi0;
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                let mass: f64 = vals.iter().map(|&v| (v - mid).max(0.0)).sum();
                if mass > 1.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let mean_at = |beta: f64| -> f64 {
            let alpha = solve_alpha(beta);
            y.iter()
                .enumerate()
                .map(|(l, &v)| l as f64 * (v - alpha - beta * l as f64).max(0.0))
                .sum()
        };

        // outer bisection on beta: mean is non-increasing in beta
        let mut lo = -1.0;
        let mut hi = 1.0;
        let mut guard = 0;
        while mean_at(lo) < mean {
            lo *= 2.0;
            guard += 1;
            if guard > 80 {
                return None;
            }
        }
        guard = 0;
        while mean_at(hi) > mean {
            hi *= 2.0;
            guard += 1;
            if guard > 80 {
                return None;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if mean_at(mid) > mean {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let beta = 0.5 * (lo + hi);
        let alpha = solve_alpha(beta);
        let q: Vec<f64> = y
            .iter()
            .enumerate()
            .map(|(l, &v)| (v - alpha - beta * l as f64).max(0.0))
            .collect();
        // final cleanup: renormalize tiny numerical drift
        let total: f64 = q.iter().sum();
        Some(q.into_iter().map(|v| v / total).collect())
    }

    fn assert_simplex(q: &[f64]) {
        assert!(q.iter().all(|&v| v >= -1e-12), "nonnegative: {q:?}");
        let s: f64 = q.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sums to one: {s}");
    }

    fn mean_of(q: &[f64]) -> f64 {
        q.iter().enumerate().map(|(l, &v)| l as f64 * v).sum()
    }

    #[test]
    fn simplex_projection_of_feasible_point_is_identity() {
        let q = vec![0.2, 0.3, 0.5];
        let p = project_simplex(&q);
        for (a, b) in q.iter().zip(&p) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn simplex_projection_basics() {
        let p = project_simplex(&[10.0, 0.0, 0.0]);
        assert_simplex(&p);
        assert!((p[0] - 1.0).abs() < 1e-9);

        let p = project_simplex(&[0.5, 0.5, 0.5]);
        assert_simplex(&p);
        for &v in &p {
            assert!((v - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn simplex_projection_matches_brute_force_qp() {
        // brute-force via dense grid over 3-simplex
        let y = [0.9, -0.3, 0.45, 0.2];
        let p = project_simplex(&y);
        assert_simplex(&p);
        let dist = |q: &[f64]| -> f64 { y.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum() };
        let d_star = dist(&p);
        // random feasible candidates must not beat the projection
        let mut rng_state = 123456789u64;
        let mut rand01 = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for _ in 0..5000 {
            let mut cand: Vec<f64> = (0..4).map(|_| -((1.0 - rand01()).ln())).collect();
            let s: f64 = cand.iter().sum();
            for v in &mut cand {
                *v /= s;
            }
            assert!(dist(&cand) >= d_star - 1e-9);
        }
    }

    #[test]
    fn mean_projection_satisfies_constraints() {
        let y = [0.4, 0.1, 0.9, -0.2, 0.3];
        for target in [0.0, 0.5, 1.7, 2.0, 3.3, 4.0] {
            let q = project_simplex_with_mean(&y, target).unwrap();
            assert_simplex(&q);
            assert!(
                (mean_of(&q) - target).abs() < 1e-12,
                "target {target}: got mean {}",
                mean_of(&q)
            );
        }
    }

    #[test]
    fn mean_projection_rejects_infeasible_targets() {
        let y = [0.5, 0.5];
        assert!(project_simplex_with_mean(&y, -0.1).is_none());
        assert!(project_simplex_with_mean(&y, 1.5).is_none());
    }

    #[test]
    fn mean_projection_of_feasible_point_is_identity() {
        let q = vec![0.25, 0.25, 0.25, 0.25];
        let p = project_simplex_with_mean(&q, 1.5).unwrap();
        for (a, b) in q.iter().zip(&p) {
            assert!((a - b).abs() < 1e-12, "{q:?} vs {p:?}");
        }
    }

    #[test]
    fn mean_projection_is_closest_point() {
        let y = [0.8, -0.1, 0.2, 0.6];
        let target = 1.8;
        let p = project_simplex_with_mean(&y, target).unwrap();
        let dist = |q: &[f64]| -> f64 { y.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum() };
        let d_star = dist(&p);
        // brute force: sample feasible points by projecting random vectors
        let mut rng_state = 987654321u64;
        let mut rand01 = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for _ in 0..2000 {
            let cand_raw: Vec<f64> = (0..4).map(|_| rand01() * 2.0 - 0.5).collect();
            if let Some(cand) = project_simplex_with_mean(&cand_raw, target) {
                assert!(dist(&cand) >= d_star - 1e-6);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn mean_projection_matches_the_oracle_exactly(
            y in proptest::collection::vec(-1.0f64..1.0, 2..=40),
            frac in 0.0f64..1.0,
            scale_pick in 0usize..3,
        ) {
            let scale = [0.1, 0.5, 1.0][scale_pick];
            let y: Vec<f64> = y.iter().map(|v| v * scale).collect();
            let target = frac * (y.len() - 1) as f64;
            let q = project_simplex_with_mean(&y, target).unwrap();
            let oracle = nested_bisection_oracle(&y, target).unwrap();
            let drift = q.iter().zip(&oracle).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            prop_assert!(drift <= 1e-12, "drift {} from the oracle", drift);
            prop_assert!(q.iter().all(|&v| v >= 0.0));
            let total: f64 = q.iter().sum();
            prop_assert!((total - 1.0).abs() <= 1e-12, "total {}", total);
            prop_assert!((mean_of(&q) - target).abs() <= 1e-12, "mean {} vs {}", mean_of(&q), target);
        }

        #[test]
        fn mean_projection_stays_exact_on_wide_inputs(
            y in proptest::collection::vec(-20.0f64..20.0, 2..=40),
            frac in 0.0f64..1.0,
        ) {
            // here the oracle's own bisection drifts past 1e-12, so it
            // only bounds the distance to `y` from above
            let target = frac * (y.len() - 1) as f64;
            let q = project_simplex_with_mean(&y, target).unwrap();
            let oracle = nested_bisection_oracle(&y, target).unwrap();
            let dist = |q: &[f64]| -> f64 { y.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum() };
            prop_assert!(dist(&q) <= dist(&oracle) * (1.0 + 1e-12));
            prop_assert!(q.iter().all(|&v| v >= 0.0));
            let total: f64 = q.iter().sum();
            prop_assert!((total - 1.0).abs() <= 1e-12, "total {}", total);
            prop_assert!((mean_of(&q) - target).abs() <= 1e-12, "mean {} vs {}", mean_of(&q), target);
        }
    }
}
