//! Property-based tests on the analysis engines (proptest).
//!
//! These complement the module unit tests with randomized coverage:
//! random distributions, random system sizes, random concrete paths. The
//! central oracle is the brute-force enumerator, which computes the
//! anonymity degree directly from its definition.

use anonroute_core::engine::brute::anonymity_degree_brute;
use anonroute_core::engine::simple::Evaluator;
use anonroute_core::engine::{self, observe, sender_posterior};
use anonroute_core::mathutil::entropy_bits;
use anonroute_core::{analytic, PathKind, PathLengthDist, SystemModel};
use proptest::prelude::*;

/// Random pmf over `0..=lmax` with at least one positive entry.
fn arb_pmf(lmax: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 1..=lmax + 1)
        .prop_filter("positive mass", |v| v.iter().sum::<f64>() > 1e-6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_brute_force_on_random_simple_configs(
        pmf in arb_pmf(3),
        n in 4usize..7,
        c in 0usize..6,
    ) {
        prop_assume!(c < n);
        let model = SystemModel::new(n, c).unwrap();
        let dist = PathLengthDist::from_pmf(pmf).unwrap();
        prop_assume!(dist.max_len() < n);
        let exact = engine::anonymity_degree(&model, &dist).unwrap();
        let brute = anonymity_degree_brute(&model, &dist).unwrap();
        prop_assert!((exact - brute).abs() < 1e-9, "exact {exact} vs brute {brute}");
    }

    #[test]
    fn engine_matches_brute_force_on_random_cyclic_configs(
        pmf in arb_pmf(3),
        n in 4usize..6,
        c in 1usize..3,
    ) {
        let model = SystemModel::with_path_kind(n, c, PathKind::Cyclic).unwrap();
        let dist = PathLengthDist::from_pmf(pmf).unwrap();
        let exact = engine::anonymity_degree(&model, &dist).unwrap();
        let brute = anonymity_degree_brute(&model, &dist).unwrap();
        prop_assert!((exact - brute).abs() < 1e-9, "exact {exact} vs brute {brute}");
    }

    #[test]
    fn evaluator_agrees_with_one_shot_analysis(pmf in arb_pmf(12)) {
        let model = SystemModel::new(30, 2).unwrap();
        let dist = PathLengthDist::from_pmf(pmf.clone()).unwrap();
        let a = engine::anonymity_degree(&model, &dist).unwrap();
        let ev = Evaluator::new(&model, 12).unwrap();
        let b = ev.h_star(&pmf);
        prop_assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn full_support_evaluator_bit_equals_a_support_sized_one(
        pmf in arb_pmf(12),
        n in 14usize..300,
        c_pick in 0usize..1000,
    ) {
        // c up to n - 2: classes beyond the strategy's support must add
        // nothing, not inf · 0
        let c = c_pick % (n - 1);
        let model = SystemModel::new(n, c).unwrap();
        let dist = PathLengthDist::from_pmf(pmf).unwrap();
        let sized = engine::analysis(&model, &dist).unwrap();
        let full = Evaluator::new(&model, n - 1).unwrap().analyze(dist.pmf());
        prop_assert_eq!(full.h_star.to_bits(), sized.h_star.to_bits());
        prop_assert_eq!(full.p_exposed.to_bits(), sized.p_exposed.to_bits());
        prop_assert_eq!(&full.classes, &sized.classes);
        prop_assert!(full.h_star.is_finite(), "n={} c={}: {}", n, c, full.h_star);
        prop_assert!(full.classes.iter().all(|r| r.probability.is_finite()));
        let total: f64 = full.classes.iter().map(|r| r.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "n={} c={}: classes sum to {}", n, c, total);
    }

    #[test]
    fn gradient_matches_central_differences_and_h_star_bits(
        raw in proptest::collection::vec(0.1f64..1.0, 2..=40),
        n in 10usize..120,
        c_pick in 0usize..3,
        mass in 0.5f64..2.0,
    ) {
        // an unnormalized pmf: the gradient is that of `h_star`, which
        // normalizes its input
        let c = [0, 1, 3][c_pick];
        let mut pmf: Vec<f64> = raw.into_iter().take(n).collect();
        let total: f64 = pmf.iter().sum();
        for v in &mut pmf {
            *v *= mass / total;
        }
        let model = SystemModel::new(n, c).unwrap();
        let ev = Evaluator::new(&model, pmf.len() - 1).unwrap();
        let mut grad = vec![0.0; pmf.len()];
        let h = ev.h_star_and_grad(&pmf, &mut grad);
        prop_assert_eq!(h.to_bits(), ev.h_star(&pmf).to_bits());
        let step = 1e-6;
        for l in 0..pmf.len() {
            let mut up = pmf.clone();
            up[l] += step;
            let mut down = pmf.clone();
            down[l] -= step;
            let fd = (ev.h_star(&up) - ev.h_star(&down)) / (2.0 * step);
            prop_assert!(
                (grad[l] - fd).abs() <= 1e-6 * fd.abs().max(1.0),
                "n={} c={} l={}: exact {} vs central {}", n, c, l, grad[l], fd
            );
        }
    }

    #[test]
    fn c1_closed_form_is_the_engine(pmf in arb_pmf(10), n in 6usize..60) {
        let model = SystemModel::new(n, 1).unwrap();
        let dist = PathLengthDist::from_pmf(pmf).unwrap();
        prop_assume!(dist.max_len() < n);
        prop_assume!(n >= 5);
        let a = engine::anonymity_degree(&model, &dist).unwrap();
        let b = analytic::anonymity_degree_c1(n, &dist).unwrap();
        prop_assert!((a - b).abs() < 1e-10);
    }

    #[test]
    fn posterior_entropy_never_exceeds_prior(
        seed in any::<u64>(),
        n in 5usize..12,
        c in 1usize..4,
        l in 0usize..5,
    ) {
        use rand::{Rng, SeedableRng};
        prop_assume!(c < n && l < n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let sender = rng.gen_range(0..n);
        let mut pool: Vec<usize> = (0..n).filter(|&x| x != sender).collect();
        let mut path = Vec::new();
        for _ in 0..l {
            let k = rng.gen_range(0..pool.len());
            path.push(pool.swap_remove(k));
        }
        let compromised: Vec<bool> = (0..n).map(|i| i < c).collect();
        let model = SystemModel::new(n, c).unwrap();
        let dist = PathLengthDist::uniform(0, (n - 1).min(4)).unwrap();
        let obs = observe(sender, &path, &compromised);
        let post = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
        let h = entropy_bits(&post);
        prop_assert!(h <= (n as f64).log2() + 1e-12);
        prop_assert!(post[sender] > 0.0);
    }

    #[test]
    fn observation_classes_partition_probability(
        pmf in arb_pmf(8),
        c in 0usize..5,
    ) {
        let model = SystemModel::new(20, c).unwrap();
        let dist = PathLengthDist::from_pmf(pmf).unwrap();
        let analysis = engine::analysis(&model, &dist).unwrap();
        let total: f64 = analysis.classes.iter().map(|r| r.probability).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        for report in &analysis.classes {
            prop_assert!(report.probability >= -1e-12);
            prop_assert!(report.entropy_bits >= -1e-12);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&report.suspect_posterior));
        }
        prop_assert!((0.0..=1.0 + 1e-9).contains(&analysis.p_exposed));
    }

    #[test]
    fn monte_carlo_is_consistent_with_exact(
        seed in any::<u64>(),
        c in 0usize..4,
    ) {
        let model = SystemModel::new(15, c).unwrap();
        let dist = PathLengthDist::uniform(1, 5).unwrap();
        let exact = engine::anonymity_degree(&model, &dist).unwrap();
        let est = engine::estimate_anonymity_degree(&model, &dist, 4_000, seed).unwrap();
        // 6 sigma: essentially never fails if the estimator is unbiased
        prop_assert!(
            (est.mean - exact).abs() <= 6.0 * est.std_error + 1e-9,
            "exact {exact}, est {est:?}"
        );
    }

    #[test]
    fn distribution_statistics_are_coherent(pmf in arb_pmf(20)) {
        let dist = PathLengthDist::from_pmf(pmf).unwrap();
        let mean = dist.mean();
        prop_assert!(mean >= dist.min_len() as f64 - 1e-12);
        prop_assert!(mean <= dist.max_len() as f64 + 1e-12);
        prop_assert!(dist.variance() >= -1e-12);
        prop_assert!((dist.tail(0) - 1.0).abs() < 1e-9);
        // E[(L-k)+] identity against tails
        for k in 0..5 {
            let excess = dist.expected_excess(k);
            let via_tails: f64 = (k + 1..=dist.max_len()).map(|j| dist.tail(j)).sum();
            prop_assert!((excess - via_tails).abs() < 1e-9);
        }
    }
}
