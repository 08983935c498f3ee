//! Numeric helpers shared by the analysis engines.
//!
//! The exact engines work with ratios of *falling factorials* (numbers of
//! ordered node arrangements). For systems of realistic size these counts
//! overflow `f64` quickly, so everything is carried in log-space and only
//! ratios are exponentiated.

/// Precomputed table of natural-log factorials, `ln(k!)` for `k = 0..=max`.
///
/// # Examples
///
/// ```
/// use anonroute_core::mathutil::LnFact;
/// let lf = LnFact::new(10);
/// assert!((lf.ln_fact(5) - 120f64.ln()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LnFact {
    table: Vec<f64>,
}

impl LnFact {
    /// Builds a table covering `0..=max`.
    pub fn new(max: usize) -> Self {
        let mut table = Vec::with_capacity(max + 1);
        table.push(0.0);
        let mut acc = 0.0f64;
        for k in 1..=max {
            acc += (k as f64).ln();
            table.push(acc);
        }
        LnFact { table }
    }

    /// `ln(k!)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` exceeds the table size chosen at construction.
    #[inline]
    pub fn ln_fact(&self, k: usize) -> f64 {
        self.table[k]
    }

    /// Log of the falling factorial `a · (a-1) ··· (a-k+1)`, i.e. the number
    /// of ordered selections of `k` distinct items from `a`.
    ///
    /// Returns `None` when `k > a` (the count is zero).
    #[inline]
    pub fn ln_falling(&self, a: usize, k: usize) -> Option<f64> {
        if k > a {
            None
        } else {
            Some(self.ln_fact(a) - self.ln_fact(a - k))
        }
    }

    /// Log of the binomial coefficient `C(a, b)`.
    ///
    /// Returns `None` when `b > a` (the count is zero).
    #[inline]
    pub fn ln_binom(&self, a: usize, b: usize) -> Option<f64> {
        if b > a {
            None
        } else {
            Some(self.ln_fact(a) - self.ln_fact(b) - self.ln_fact(a - b))
        }
    }

    /// Log of the number of ways to write `total` as an ordered sum of
    /// `parts` nonnegative integers (stars and bars): `C(total+parts-1,
    /// parts-1)`.
    ///
    /// Returns `None` when the count is zero (`total < 0`, or `parts == 0`
    /// with `total != 0`).
    #[inline]
    pub fn ln_stars_bars(&self, total: i64, parts: usize) -> Option<f64> {
        if total < 0 {
            return None;
        }
        if parts == 0 {
            return if total == 0 { Some(0.0) } else { None };
        }
        self.ln_binom(total as usize + parts - 1, parts - 1)
    }

    /// Largest `k` covered by the table.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.table.len() - 1
    }
}

/// Binary entropy `h(p) = -p·log2(p) - (1-p)·log2(1-p)` in bits.
///
/// Returns `0` at the endpoints `p ∈ {0, 1}`.
///
/// # Panics
///
/// Panics in debug builds if `p` is outside `[0, 1]`.
pub fn binary_entropy_bits(p: f64) -> f64 {
    debug_assert!((-1e-12..=1.0 + 1e-12).contains(&p), "p out of range: {p}");
    let p = p.clamp(0.0, 1.0);
    let mut h = 0.0;
    if p > 0.0 {
        h -= p * p.log2();
    }
    if p < 1.0 {
        h -= (1.0 - p) * (1.0 - p).log2();
    }
    h
}

/// Shannon entropy in bits of a set of *weighted candidate groups*.
///
/// Each `(weight, count)` pair describes `count` candidates that each carry
/// unnormalized probability mass `weight`. The weights are normalized
/// internally; zero-weight or zero-count groups are ignored.
///
/// Returns `0` when the total mass is zero (degenerate observation).
pub fn entropy_bits_grouped(groups: &[(f64, usize)]) -> f64 {
    let z: f64 = groups.iter().map(|&(w, k)| w * k as f64).sum();
    if z <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &(w, k) in groups {
        if w > 0.0 && k > 0 {
            let p = w / z;
            h -= (k as f64) * p * p.log2();
        }
    }
    h
}

/// `k · p · log₂ p`: the entropy term of `k` outcomes of probability `p`
/// each (0 when `p` or `k` is 0). An entropy is minus the sum of these.
pub(crate) fn plogp(p: f64, k: usize) -> f64 {
    if p > 0.0 && k > 0 {
        k as f64 * p * p.log2()
    } else {
        0.0
    }
}

/// Shannon entropy in bits of an unnormalized nonnegative weight vector.
pub fn entropy_bits(weights: &[f64]) -> f64 {
    let z: f64 = weights.iter().sum();
    if z <= 0.0 {
        return 0.0;
    }
    weights
        .iter()
        .filter(|&&w| w > 0.0)
        .map(|&w| {
            let p = w / z;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn ln_fact_small_values() {
        let lf = LnFact::new(12);
        assert!(close(lf.ln_fact(0), 0.0));
        assert!(close(lf.ln_fact(1), 0.0));
        assert!(close(lf.ln_fact(4), 24f64.ln()));
        assert!(close(lf.ln_fact(12), 479_001_600f64.ln()));
    }

    #[test]
    fn ln_falling_matches_direct_product() {
        let lf = LnFact::new(30);
        // 10·9·8 = 720
        assert!(close(lf.ln_falling(10, 3).unwrap(), 720f64.ln()));
        // k = 0 → empty product = 1
        assert!(close(lf.ln_falling(7, 0).unwrap(), 0.0));
        // k = a → a!
        assert!(close(lf.ln_falling(5, 5).unwrap(), 120f64.ln()));
        // k > a → zero count
        assert!(lf.ln_falling(3, 4).is_none());
    }

    #[test]
    fn ln_binom_matches_pascal() {
        let lf = LnFact::new(20);
        assert!(close(lf.ln_binom(10, 3).unwrap(), 120f64.ln()));
        assert!(close(lf.ln_binom(10, 0).unwrap(), 0.0));
        assert!(close(lf.ln_binom(10, 10).unwrap(), 0.0));
        assert!(lf.ln_binom(4, 5).is_none());
    }

    #[test]
    fn stars_bars_counts() {
        let lf = LnFact::new(40);
        // 5 into 3 parts: C(7,2) = 21
        assert!(close(lf.ln_stars_bars(5, 3).unwrap(), 21f64.ln()));
        // 0 into k parts: exactly 1 way
        assert!(close(lf.ln_stars_bars(0, 4).unwrap(), 0.0));
        // 0 into 0 parts: 1 way; n>0 into 0 parts: none
        assert!(close(lf.ln_stars_bars(0, 0).unwrap(), 0.0));
        assert!(lf.ln_stars_bars(3, 0).is_none());
        assert!(lf.ln_stars_bars(-1, 2).is_none());
    }

    #[test]
    fn stars_bars_brute_force_agreement() {
        let lf = LnFact::new(64);
        for parts in 1usize..5 {
            for total in 0i64..8 {
                let mut count = 0u64;
                // enumerate compositions by recursion
                fn rec(remaining: i64, parts_left: usize, count: &mut u64) {
                    if parts_left == 0 {
                        if remaining == 0 {
                            *count += 1;
                        }
                        return;
                    }
                    for x in 0..=remaining {
                        rec(remaining - x, parts_left - 1, count);
                    }
                }
                rec(total, parts, &mut count);
                let got = lf.ln_stars_bars(total, parts).unwrap().exp();
                assert!(
                    (got - count as f64).abs() < 1e-6,
                    "total={total} parts={parts}: got {got}, want {count}"
                );
            }
        }
    }

    #[test]
    fn binary_entropy_endpoints_and_midpoint() {
        assert!(close(binary_entropy_bits(0.0), 0.0));
        assert!(close(binary_entropy_bits(1.0), 0.0));
        assert!(close(binary_entropy_bits(0.5), 1.0));
    }

    #[test]
    fn entropy_grouped_uniform_is_log2() {
        // 8 equal candidates → 3 bits
        assert!(close(entropy_bits_grouped(&[(0.25, 8)]), 3.0));
        // grouping must not matter
        assert!(close(
            entropy_bits_grouped(&[(1.0, 4), (1.0, 4)]),
            entropy_bits_grouped(&[(7.0, 8)])
        ));
    }

    #[test]
    fn entropy_grouped_degenerate() {
        assert!(close(entropy_bits_grouped(&[(0.0, 5)]), 0.0));
        assert!(close(entropy_bits_grouped(&[]), 0.0));
        assert!(close(entropy_bits_grouped(&[(3.0, 1)]), 0.0));
    }

    #[test]
    fn entropy_vec_matches_grouped() {
        let v = [0.5, 0.25, 0.25];
        assert!(close(entropy_bits(&v), 1.5));
        assert!(close(
            entropy_bits(&v),
            entropy_bits_grouped(&[(0.5, 1), (0.25, 2)])
        ));
    }
}
