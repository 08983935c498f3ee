//! Property-based tests (vendored proptest) for the multi-round
//! dynamics layer: the `IntersectionPosterior` accumulator's invariants,
//! the schedule realizer's determinism, and the sampled decay curve's
//! statistical behavior.
//!
//! The accumulator invariants pinned here:
//!
//! * the cumulative posterior always stays normalized;
//! * dense folds agree with the historical dense accumulator to 1e-12;
//! * a single folded epoch is **bit-identical** to the one-shot
//!   posterior path (no renormalization noise);
//! * the support never grows as epochs fold in (the intersection attack
//!   proper: a candidate excluded once stays excluded);
//! * re-folding the same evidence never increases entropy (escort
//!   sharpening), the per-realization half of the "entropy decays"
//!   claim — the full claim holds in expectation over sessions
//!   (conditioning reduces entropy) and is asserted on sampled decay
//!   curves with a standard-error tolerance.

use anonroute_core::engine::{observe, sender_posterior, FoldWorkspace};
use anonroute_core::epochs::{
    estimate_decay, ChurnModel, EpochSchedule, EpochZeroes, IntersectionPosterior, RotationPolicy,
};
use anonroute_core::mathutil::entropy_bits;
use anonroute_core::{PathLengthDist, SystemModel};
use proptest::prelude::*;

/// Builds a normalized posterior over `n` candidates from raw weights
/// and a kill mask (observation-excluded candidates), always keeping
/// candidate 0 alive so folded sequences never go extinct.
fn posterior_from(raw: &[f64], kill: &[bool], n: usize) -> Vec<f64> {
    let mut post: Vec<f64> = (0..n)
        .map(|i| {
            let w = 0.01 + raw[i % raw.len()].abs().fract();
            if i != 0 && kill[i % kill.len()] {
                0.0
            } else {
                w
            }
        })
        .collect();
    let total: f64 = post.iter().sum();
    for p in &mut post {
        *p /= total;
    }
    post
}

/// A verbatim reimplementation of the historical dense-only accumulator
/// (a `Vec<f64>` over the whole universe, interleaved multiply-accumulate
/// fold) — the reference the structured representation must match to
/// rounding.
struct DenseRef {
    weights: Vec<f64>,
    folds: usize,
}

impl DenseRef {
    fn new(universe: usize) -> Self {
        DenseRef {
            weights: vec![1.0; universe],
            folds: 0,
        }
    }

    fn fold(&mut self, round: &[f64]) -> Result<(), ()> {
        if round.len() != self.weights.len() {
            return Err(());
        }
        if round.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return Err(());
        }
        if self.folds == 0 {
            self.weights.copy_from_slice(round);
        } else {
            let mut total = 0.0;
            for (w, &p) in self.weights.iter_mut().zip(round) {
                *w *= p;
                total += *w;
            }
            if total <= 0.0 {
                return Err(());
            }
            for w in &mut self.weights {
                *w /= total;
            }
        }
        self.folds += 1;
        Ok(())
    }

    fn posterior(&self) -> Vec<f64> {
        if self.folds == 0 {
            return vec![1.0 / self.weights.len() as f64; self.weights.len()];
        }
        self.weights.clone()
    }

    fn entropy_bits(&self) -> f64 {
        if self.folds == 0 {
            return (self.weights.len() as f64).log2();
        }
        entropy_bits(&self.weights)
    }

    fn support(&self) -> usize {
        if self.folds == 0 {
            return self.weights.len();
        }
        self.weights.iter().filter(|&&w| w > 0.0).count()
    }

    fn best_guess(&self) -> (usize, f64) {
        let total: f64 = self.weights.iter().sum();
        self.weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, &w)| (i, w / total))
            .expect("nonempty")
    }
}

/// Like [`posterior_from`] but with a byte-threshold kill rule, so a high
/// `threshold` zeroes almost the whole universe (candidate 0 always
/// survives).
fn thresholded_posterior(raw: &[f64], keep: &[u8], threshold: u8, n: usize) -> Vec<f64> {
    let mut post: Vec<f64> = (0..n)
        .map(|i| {
            let w = 0.01 + raw[i % raw.len()].abs().fract();
            if i != 0 && keep[i % keep.len()] < threshold {
                0.0
            } else {
                w
            }
        })
        .collect();
    let total: f64 = post.iter().sum();
    for p in &mut post {
        *p /= total;
    }
    post
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Relative distance, exact zeros included.
fn rel(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// Asserts every observable of the accumulator matches the dense
/// reference to 1e-12 relative (the two fold in different orders, so
/// their last bits may differ; a guess may differ only on a near-tie).
fn assert_matches_reference(acc: &IntersectionPosterior, reference: &DenseRef) {
    for (a, b) in acc.posterior().iter().zip(&reference.posterior()) {
        assert!(rel(*a, *b) <= 1e-12, "{a} vs {b}");
    }
    assert!(rel(acc.entropy_bits(), reference.entropy_bits()) <= 1e-12);
    assert_eq!(acc.support(), reference.support());
    let (gi, gp) = acc.best_guess();
    let (ri, rp) = reference.best_guess();
    assert!(gi == ri || rel(reference.weights[gi], rp) <= 1e-12);
    assert!(rel(gp, rp) <= 1e-12);
    assert_eq!(acc.folds(), reference.folds);
}

#[test]
fn dense_folds_track_the_reference_and_reject_contradictions_like_it() {
    let n = 40;
    let mut acc = IntersectionPosterior::new(n);
    let mut reference = DenseRef::new(n);
    // a mild first round keeps 3n/4 of the support
    let mild: Vec<u8> = (0..n as u8)
        .map(|i| if i % 4 == 1 { 0 } else { 255 })
        .collect();
    let raw: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let round = thresholded_posterior(&raw, &mild, 128, n);
    acc.fold(&round).unwrap();
    reference.fold(&round).unwrap();
    assert_eq!(
        bits(&acc.posterior()),
        bits(&round),
        "the first fold is verbatim"
    );
    assert_matches_reference(&acc, &reference);
    // a heavy round collapses to <= n/4 survivors
    let heavy: Vec<u8> = (0..n as u8)
        .map(|i| if i % 8 == 0 { 255 } else { 0 })
        .collect();
    let round = thresholded_posterior(&raw, &heavy, 128, n);
    acc.fold(&round).unwrap();
    reference.fold(&round).unwrap();
    assert_matches_reference(&acc, &reference);
    let round = thresholded_posterior(&raw[3..], &mild, 128, n);
    acc.fold(&round).unwrap();
    reference.fold(&round).unwrap();
    assert_matches_reference(&acc, &reference);
    // a contradictory round (mass only where the support is gone) errors
    // in both
    let mut contradiction = vec![0.0; n];
    for (i, slot) in contradiction.iter_mut().enumerate() {
        if i % 8 != 0 && i != 0 {
            *slot = 1.0;
        }
    }
    // survivors are exactly {0, multiples of 8} after the heavy round
    contradiction[0] = 0.0;
    assert!(acc.fold(&contradiction).is_err());
    assert!(reference.fold(&contradiction).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_folds_agree_with_the_dense_reference(
        raw in proptest::collection::vec(0.0f64..1.0, 24..=96),
        keep in proptest::collection::vec(any::<u8>(), 24..=96),
        thresholds in proptest::collection::vec(0u8..=250, 1..8),
    ) {
        let n = 64;
        let mut acc = IntersectionPosterior::new(n);
        let mut reference = DenseRef::new(n);
        // a heavy opening round zeroes most of the universe
        let opener = thresholded_posterior(&raw, &keep, 240, n);
        acc.fold(&opener).unwrap();
        reference.fold(&opener).unwrap();
        for (r, &threshold) in thresholds.iter().enumerate() {
            let round = thresholded_posterior(
                &raw[(r * 7) % raw.len()..],
                &keep[(r * 11) % keep.len()..],
                threshold,
                n,
            );
            // candidate 0 survives every round, so folds cannot go extinct
            acc.fold(&round).unwrap();
            reference.fold(&round).unwrap();
            assert_matches_reference(&acc, &reference);
        }
    }

    #[test]
    fn accumulator_stays_normalized_and_support_never_grows(
        raw in proptest::collection::vec(0.0f64..1.0, 9..=54),
        kill in proptest::collection::vec(any::<bool>(), 9..=54),
        round_count in 1usize..7,
    ) {
        let n = 9;
        let rounds: Vec<Vec<f64>> = (0..round_count)
            .map(|r| posterior_from(&raw[(r * 3) % raw.len()..], &kill[(r * 5) % kill.len()..], n))
            .collect();
        let mut acc = IntersectionPosterior::new(n);
        let mut prev_support = acc.support();
        prop_assert_eq!(prev_support, n);
        for round in &rounds {
            acc.fold(round).unwrap();
            let post = acc.posterior();
            let total: f64 = post.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "sum {}", total);
            prop_assert!(post.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
            // the intersection attack proper: support is monotone
            let support = acc.support();
            prop_assert!(support <= prev_support, "{} > {}", support, prev_support);
            prev_support = support;
            // entropy is bounded by the surviving anonymity-set size
            prop_assert!(acc.entropy_bits() <= (support as f64).log2() + 1e-9);
        }
        prop_assert_eq!(acc.folds(), rounds.len());
    }

    #[test]
    fn single_epoch_fold_is_bit_identical_to_the_one_shot_posterior(
        n in 5usize..10,
        comp in 0usize..5,
        path_seed in any::<u64>(),
    ) {
        // generate a real observation posterior through the one-shot
        // path, fold it once, and demand the identical bits back
        prop_assume!(comp < n);
        let model = SystemModel::new(n, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 2).unwrap();
        let compromised: Vec<bool> = (0..n).map(|i| i == n - 1).collect();
        let sender = (path_seed as usize) % (n - 1); // honest sender
        let mid = comp % (n - 1);
        let path = if mid == sender { vec![n - 1] } else { vec![mid] };
        let obs = observe(sender, &path, &compromised);
        let one_shot = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
        let mut acc = IntersectionPosterior::new(n);
        acc.fold(&one_shot).unwrap();
        prop_assert_eq!(bits(&acc.posterior()), bits(&one_shot));
        // the closed-form path: one fold of the round posterior scores
        // exactly like the round itself — bitwise, not approximately, so
        // the one-shot pipeline and a single-epoch dynamics run render
        // identical artifacts
        let round = FoldWorkspace::new(&model, &dist)
            .unwrap()
            .round(&obs, &compromised)
            .unwrap();
        let mut acc = IntersectionPosterior::new(n);
        acc.fold_round(&round, &EpochZeroes::one_shot(n, &[n - 1])).unwrap();
        prop_assert_eq!(bits(&acc.posterior()), bits(&one_shot));
        prop_assert!(acc.entropy_bits().to_bits() == round.entropy_bits().to_bits());
        prop_assert_eq!(acc.best_guess(), round.best_guess());
        prop_assert_eq!(acc.prob(sender).to_bits(), round.prob(sender).to_bits());
        prop_assert_eq!(acc.support(), round.support());
    }

    #[test]
    fn refolding_the_same_evidence_never_increases_entropy(
        raw in proptest::collection::vec(0.0f64..1.0, 8),
        kill in proptest::collection::vec(any::<bool>(), 8),
        repeats in 1usize..5,
    ) {
        let post = posterior_from(&raw, &kill, 8);
        let mut acc = IntersectionPosterior::new(8);
        acc.fold(&post).unwrap();
        let mut prev = acc.entropy_bits();
        for _ in 0..repeats {
            acc.fold(&post).unwrap();
            let h = acc.entropy_bits();
            prop_assert!(h <= prev + 1e-12, "entropy rose {} -> {}", prev, h);
            prev = h;
        }
    }

    #[test]
    fn schedules_realize_deterministically_with_anchored_first_epochs(
        n in 6usize..20,
        c in 1usize..3,
        epochs in 1usize..6,
        rotation in 0usize..3,
        churn_millis in 0usize..500,
        seed in any::<u64>(),
    ) {
        prop_assume!(c + 2 <= n);
        let schedule = EpochSchedule {
            epochs,
            rotation: match rotation {
                0 => RotationPolicy::Static,
                1 => RotationPolicy::Shift { step: 1 + rotation },
                _ => RotationPolicy::Resample,
            },
            churn: if churn_millis == 0 {
                ChurnModel::None
            } else {
                ChurnModel::Iid { rate: churn_millis as f64 / 1000.0 }
            },
        };
        let Ok(views) = schedule.realize(n, c, seed) else {
            // brutal churn on a small system may legitimately refuse
            return Ok(());
        };
        prop_assert_eq!(views.len(), epochs);
        // epoch 1 is always the one-shot anchor
        prop_assert_eq!(views[0].active.len(), n);
        prop_assert_eq!(views[0].compromised.clone(), (n - c..n).collect::<Vec<_>>());
        for view in &views {
            prop_assert!(view.active.len() >= c + 2);
            prop_assert_eq!(view.compromised.len(), c);
            prop_assert!(view.compromised.iter().all(|&u| view.is_active(u)));
            prop_assert!(view.active.windows(2).all(|w| w[0] < w[1]), "sorted");
        }
        // bit-identical determinism
        prop_assert_eq!(views, schedule.realize(n, c, seed).unwrap());
    }

    #[test]
    fn sampled_decay_curves_shrink_entropy_within_noise(
        epochs in 2usize..5,
        rotation in 0usize..3,
        seed in any::<u64>(),
    ) {
        // mean cumulative entropy is non-increasing in expectation;
        // sampled curves must respect that within standard error
        let model = SystemModel::new(12, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 3).unwrap();
        let schedule = EpochSchedule {
            epochs,
            rotation: match rotation {
                0 => RotationPolicy::Static,
                1 => RotationPolicy::Shift { step: 2 },
                _ => RotationPolicy::Resample,
            },
            churn: ChurnModel::None,
        };
        let curve = estimate_decay(&model, &dist, &schedule, 400, seed, 0).unwrap();
        prop_assert_eq!(curve.per_epoch.len(), epochs);
        for w in curve.per_epoch.windows(2) {
            let slack = 3.0 * (w[0].std_error + w[1].std_error);
            prop_assert!(
                w[1].mean_entropy_bits <= w[0].mean_entropy_bits + slack,
                "entropy rose beyond noise: {:?} -> {:?}",
                w[0],
                w[1]
            );
            // support shrinks per session, so its mean is strictly monotone
            prop_assert!(w[1].mean_support <= w[0].mean_support + 1e-9);
        }
    }
}
