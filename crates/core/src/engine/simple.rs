//! Exact anonymity-degree computation for simple (cycle-free) paths.
//!
//! # How the computation works
//!
//! The paper defines the anonymity degree as the expected posterior entropy
//! over all observations the adversary can make (eq. 5). Because nodes are
//! interchangeable, observations collapse into *classes* described by a
//! node-identity-free [`ObservationClass`]: how many compromised sightings
//! occurred (`s`), in how many maximal runs (`m`), how many of the `m - 1`
//! inter-run gaps consist of exactly one honest node (`unit_gaps`, detected
//! by the adversary because the two runs report the same boundary node),
//! and how far the last run is from the receiver ([`EndGap`]).
//!
//! Crucially, the *leading* gap — the number of honest nodes between the
//! sender and the first compromised run — is invisible: a leading gap of
//! zero (the run's reported predecessor **is** the sender) produces exactly
//! the same observation as a positive leading gap. The posterior therefore
//! splits between the hypothesis "`pred(run₁)` is the sender" and the
//! hypotheses "the sender is one of the unobserved honest nodes", which by
//! symmetry are all equally likely.
//!
//! For a given path length `l` the number of gap compositions consistent
//! with a class is a stars-and-bars binomial and the number of ways to fill
//! the hidden honest slots is a falling factorial, so both class
//! probabilities and class posteriors have closed forms — the engine is
//! exact for **any** number of compromised nodes `c`, not just the paper's
//! `c = 1`.
//!
//! # One class pass
//!
//! Every class's probability and both hypothesis weights are linear in the
//! pmf `q`: a `ClassForm` holds their per-length coefficients, and
//! `ClassForm::score` turns a form and a pmf into the class's probability,
//! weights and entropy. [`Evaluator::analyze`], the optimizer's class table
//! and the fold workspace's per-signature weights all go through those two
//! routines.
//!
//! A class with `s` sightings needs a path of at least `s` intermediates,
//! so it has probability exactly zero once `s` passes the pmf's last
//! positive length. `analyze` stops the class enumeration at that
//! *support* bound, and builds each form only over the lengths between the
//! support's ends. A pass therefore costs O(min(c, support)³ · support),
//! whatever the evaluator's own `lmax`: at `n = 2000, c = 1000` a strategy
//! supported on `1..=6` takes about a tenth of a millisecond.

use std::ops::RangeInclusive;

use crate::dist::PathLengthDist;
use crate::error::Result;
use crate::mathutil::{entropy_bits_grouped, LnFact};
use crate::model::SystemModel;

/// Distance (in honest nodes) from the last compromised run to the
/// receiver, as far as the adversary can resolve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndGap {
    /// The run forwarded directly to the receiver (`g = 0`).
    Touching,
    /// Exactly one honest node separates the run from the receiver: the
    /// run's successor equals the receiver's reported predecessor (`g = 1`).
    One,
    /// At least two honest nodes (`g ≥ 2`); only the two boundary nodes
    /// are observed.
    TwoPlus,
}

impl EndGap {
    /// Honest nodes of the end gap whose identity the adversary observes.
    #[inline]
    fn observed(self) -> usize {
        match self {
            EndGap::Touching => 0,
            EndGap::One => 1,
            EndGap::TwoPlus => 2,
        }
    }

    /// Whether the gap has unbounded extra (hidden) honest nodes.
    #[inline]
    fn is_free(self) -> bool {
        matches!(self, EndGap::TwoPlus)
    }

    pub(crate) const ALL: [EndGap; 3] = [EndGap::Touching, EndGap::One, EndGap::TwoPlus];
}

/// Node-identity-free description of one adversary observation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObservationClass {
    /// The sender itself is compromised: its agent watched the message
    /// originate. Posterior entropy is zero.
    SenderCompromised,
    /// No compromised node lay on the path; the adversary only knows the
    /// receiver's predecessor (which *is* the sender if the path length
    /// was zero — the short-path effect of Figure 4(d)).
    Clean,
    /// At least one compromised run on the path.
    Runs {
        /// Total compromised sightings `s ≥ 1`.
        on_path: usize,
        /// Number of maximal runs `m`, `1 ≤ m ≤ s`.
        runs: usize,
        /// Inter-run gaps of exactly one honest node (`0 ≤ unit_gaps ≤ m-1`).
        unit_gaps: usize,
        /// End-gap class.
        end: EndGap,
    },
}

/// Probability, entropy and posterior shape of one observation class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassReport {
    /// Which class this row describes.
    pub class: ObservationClass,
    /// Probability that the adversary observes this class.
    pub probability: f64,
    /// Posterior sender entropy `H(·|E)` in bits, identical for every
    /// observation in the class.
    pub entropy_bits: f64,
    /// Posterior probability assigned to the *reported predecessor* of the
    /// first run (or of the receiver, for [`ObservationClass::Clean`]) —
    /// the node the adversary suspects most or least depending on the
    /// strategy. `1.0` for [`ObservationClass::SenderCompromised`].
    pub suspect_posterior: f64,
}

/// Full decomposition of the anonymity degree of a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymityAnalysis {
    /// The anonymity degree `H*(S)` in bits (eq. 5 of the paper).
    pub h_star: f64,
    /// Probability that the adversary identifies the sender outright
    /// (posterior is a point mass): compromised senders plus
    /// zero-entropy observation classes.
    pub p_exposed: f64,
    /// Per-class breakdown; probabilities sum to 1.
    pub classes: Vec<ClassReport>,
}

impl AnonymityAnalysis {
    /// Normalized anonymity degree `H*(S) / log2(n) ∈ [0, 1]`.
    pub fn normalized(&self, model: &SystemModel) -> f64 {
        if model.n() == 1 {
            return 0.0;
        }
        self.h_star / model.max_entropy_bits()
    }
}

/// Computes the anonymity degree `H*(S)` for simple paths.
///
/// # Errors
///
/// Returns an error when the distribution places mass on lengths a simple
/// path cannot realize (`l > n - 1`).
pub fn anonymity_degree(model: &SystemModel, dist: &PathLengthDist) -> Result<f64> {
    Ok(analysis(model, dist)?.h_star)
}

/// Computes the full class-by-class decomposition of `H*(S)` for simple
/// paths. See the module documentation for the derivation.
///
/// # Errors
///
/// Returns an error when the distribution places mass on lengths a simple
/// path cannot realize (`l > n - 1`).
pub fn analysis(model: &SystemModel, dist: &PathLengthDist) -> Result<AnonymityAnalysis> {
    model.validate_dist(dist)?;
    let lmax = dist.max_len().min(model.n().saturating_sub(1));
    let ev = Evaluator::new(model, lmax)?;
    Ok(ev.analyze(dist.pmf()))
}

/// Reusable exact evaluator for simple paths.
///
/// Precomputes the log-factorial tables for a `(model, lmax)` pair so that
/// many distributions over the same support can be scored cheaply — the hot
/// loop of [`crate::optimize`]. `lmax` only caps the lengths it accepts:
/// [`Evaluator::analyze`] and [`Evaluator::h_star`] cost what the pmf's own
/// support needs, so one `0..=n-1` evaluator serves every strategy on a
/// model.
///
/// # Examples
///
/// ```
/// use anonroute_core::engine::simple::Evaluator;
/// use anonroute_core::{PathLengthDist, SystemModel};
///
/// let model = SystemModel::new(100, 1)?;
/// let ev = Evaluator::new(&model, 10)?;
/// let h = ev.h_star(PathLengthDist::fixed(5).pmf());
/// assert!(h > 6.0);
/// # Ok::<(), anonroute_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    n: usize,
    c: usize,
    nh: usize,
    lmax: usize,
    lf: LnFact,
}

impl Evaluator {
    /// Builds an evaluator for distributions supported on `0..=lmax`.
    ///
    /// # Errors
    ///
    /// Returns an error if the model uses cyclic paths or if
    /// `lmax > n - 1`.
    pub fn new(model: &SystemModel, lmax: usize) -> Result<Self> {
        if model.path_kind() != crate::model::PathKind::Simple {
            return Err(crate::error::Error::InvalidModel(
                "the simple-path evaluator requires PathKind::Simple".into(),
            ));
        }
        if lmax > model.n() - 1 {
            return Err(crate::error::Error::InvalidDistribution(format!(
                "simple paths support at most n-1={} intermediate nodes",
                model.n() - 1
            )));
        }
        Ok(Evaluator {
            n: model.n(),
            c: model.c(),
            nh: model.honest(),
            lmax,
            lf: LnFact::new(model.n() + lmax + 4),
        })
    }

    /// Exact `H*` of an (unnormalized) pmf over `0..=lmax`; mass beyond
    /// `lmax` is ignored.
    pub fn h_star(&self, pmf: &[f64]) -> f64 {
        self.analyze(pmf).h_star
    }

    /// [`Evaluator::h_star`] together with its gradient: writes
    /// `∂H*/∂pmf[l]` into `grad[l]` and returns the same `H*`, bit for bit,
    /// as `h_star(pmf)`. Entries beyond `lmax` get a zero gradient.
    ///
    /// Every class probability and both hypothesis weights of a class are
    /// linear in the pmf, and a class's posterior entropy depends only on
    /// the ratio of its weights. The unnormalized objective `H̃(q)` is
    /// therefore 1-homogeneous, and since `h_star(q) = H̃(q) / Σq` its
    /// gradient is `(∂H̃/∂q_l − H*) / Σq`, computed in the same class pass
    /// as `H*`. Where a hypothesis weight is zero but `q_l` would raise it,
    /// the one-sided slope is `+∞`; the posterior surprisal is then capped
    /// at 64 bits (a weight ratio of `2⁻⁶⁴`).
    ///
    /// # Panics
    ///
    /// Panics if `grad` and `pmf` differ in length. The pmf must carry
    /// positive mass.
    ///
    /// Each call tabulates every class's per-length coefficients
    /// (O(classes × lmax) memory) and drops the table on return; the
    /// optimizer keeps one such table for a whole solve.
    ///
    /// # Examples
    ///
    /// ```
    /// use anonroute_core::engine::simple::Evaluator;
    /// use anonroute_core::{PathLengthDist, SystemModel};
    ///
    /// let model = SystemModel::new(100, 1)?;
    /// let ev = Evaluator::new(&model, 10)?;
    /// let pmf = PathLengthDist::uniform(0, 10)?.pmf().to_vec();
    /// let mut grad = vec![0.0; pmf.len()];
    /// let h = ev.h_star_and_grad(&pmf, &mut grad);
    /// assert_eq!(h.to_bits(), ev.h_star(&pmf).to_bits());
    /// // a small step along the gradient raises H*
    /// let up: Vec<f64> = pmf.iter().zip(&grad).map(|(q, g)| q + 1e-4 * g).collect();
    /// assert!(ev.h_star(&up) > h);
    /// # Ok::<(), anonroute_core::Error>(())
    /// ```
    pub fn h_star_and_grad(&self, pmf: &[f64], grad: &mut [f64]) -> f64 {
        self.class_forms().h_star_and_grad(pmf, grad)
    }

    /// Every observation class but the zero-entropy compromised-sender one
    /// as linear forms in the pmf over all of `0..=lmax` (the optimizer can
    /// move mass into any length), for scoring many pmfs (and gradients)
    /// without recomputing a single `exp`. Takes O(classes × lmax) memory,
    /// so callers build one per batch of evaluations rather than one per
    /// evaluator.
    pub(crate) fn class_forms(&self) -> ClassForms {
        ClassForms {
            lmax: self.lmax,
            classes: observation_classes(self.c, self.nh, self.lmax)
                .map(|class| self.form(class, 0..=self.lmax))
                .collect(),
        }
    }

    /// Full class decomposition for an (unnormalized) pmf over `0..=lmax`.
    ///
    /// Streams one class at a time through the shared class scoring, bounded
    /// by the pmf's support: classes with more sightings than its last
    /// positive length have probability exactly zero and are not
    /// enumerated, and each form spans only the support's lengths. Classes
    /// of zero probability are left out of the report, except the clean
    /// class.
    pub fn analyze(&self, pmf: &[f64]) -> AnonymityAnalysis {
        let q = normalized(pmf, self.lmax).0;
        let mut classes = Vec::new();
        let mut h_star = 0.0;
        let mut p_exposed = 0.0;

        // the sender itself is compromised (local-eavesdropper case)
        if self.c > 0 {
            let p = self.c as f64 / self.n as f64;
            p_exposed += p;
            classes.push(ClassReport {
                class: ObservationClass::SenderCompromised,
                probability: p,
                entropy_bits: 0.0,
                suspect_posterior: 1.0,
            });
        }

        let lo = q.iter().position(|&ql| ql > 0.0).unwrap_or(0);
        let hi = q.iter().rposition(|&ql| ql > 0.0).unwrap_or(0);
        for class in observation_classes(self.c, self.nh, hi) {
            let form = self.form(class, lo..=hi);
            let (p, w_a, w_b, entropy) = form.score(&q);
            if p <= 0.0 && class != ObservationClass::Clean {
                continue;
            }
            h_star += p * entropy;
            if entropy == 0.0 {
                p_exposed += p;
            }
            let z = w_a + w_b * form.n_hidden as f64;
            classes.push(ClassReport {
                class,
                probability: p,
                entropy_bits: entropy,
                suspect_posterior: if z > 0.0 { w_a / z } else { 0.0 },
            });
        }

        AnonymityAnalysis {
            h_star,
            p_exposed,
            classes,
        }
    }

    /// `class`'s linear form over the path lengths in `lengths`.
    fn form(&self, class: ObservationClass, lengths: RangeInclusive<usize>) -> ClassForm {
        ClassForm::new(&self.lf, self.n, self.c, self.nh, class, lengths)
    }
}

/// The pmf's first `lmax + 1` entries, scaled to unit mass, and their
/// original total.
fn normalized(pmf: &[f64], lmax: usize) -> (Vec<f64>, f64) {
    let mut q: Vec<f64> = pmf.iter().take(lmax + 1).copied().collect();
    let total: f64 = q.iter().sum();
    if total > 0.0 && (total - 1.0).abs() > 1e-15 {
        for v in &mut q {
            *v /= total;
        }
    }
    (q, total)
}

/// Every observation class of an `(n, c)` system with `nh` honest nodes
/// but [`ObservationClass::SenderCompromised`], up to `bound` sightings,
/// in report order: the clean class, then the run classes by sightings,
/// runs, unit gaps and end gap. A system without honest nodes has none.
fn observation_classes(
    c: usize,
    nh: usize,
    bound: usize,
) -> impl Iterator<Item = ObservationClass> {
    let runs = (1..=c.min(bound)).flat_map(|s| {
        (1..=s).flat_map(move |m| {
            (0..m).flat_map(move |unit_gaps| {
                EndGap::ALL
                    .into_iter()
                    .map(move |end| ObservationClass::Runs {
                        on_path: s,
                        runs: m,
                        unit_gaps,
                        end,
                    })
            })
        })
    });
    (nh > 0)
        .then(|| std::iter::once(ObservationClass::Clean).chain(runs))
        .into_iter()
        .flatten()
}

/// The observation classes of an [`Evaluator`] as linear forms in the pmf
/// (see [`Evaluator::class_forms`]). Each class is scored by the same
/// [`ClassForm::score`] as in [`Evaluator::h_star`], in the same order; the
/// classes `h_star` leaves out add exact zeros here, so wherever every form
/// is finite the two agree bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct ClassForms {
    lmax: usize,
    classes: Vec<ClassForm>,
}

/// One class: probability `mult · Σ q_l·pc_l`, weight `w_a = Σ q_l·a_l` of
/// the single suspect and `w_b = Σ q_l·b_l` of each of `n_hidden` hidden
/// candidates, with `coefs[l - from] = [pc_l, a_l, b_l]`.
#[derive(Debug, Clone)]
pub(crate) struct ClassForm {
    from: usize,
    mult: f64,
    n_hidden: usize,
    coefs: Vec<[f64; 3]>,
}

impl ClassForm {
    /// The form of `class` (anything but the compromised-sender class) in
    /// an `(n, c)` system with `nh` honest nodes, over the path lengths in
    /// `lengths` that can produce it.
    ///
    /// A class is fixed by its sightings `s`, the honest nodes `obs0` the
    /// adversary observes by identity besides the suspect (the first run's
    /// predecessor, or the receiver's), and the gaps `k0` besides the
    /// leading one that can hide extra honest nodes. The clean class is
    /// the case `s = obs0 = k0 = 0`: a direct send is its suspect
    /// hypothesis, and every longer path hides the sender behind the
    /// receiver's predecessor.
    ///
    /// # Panics
    ///
    /// Panics for [`ObservationClass::SenderCompromised`], whose
    /// probability does not depend on the pmf.
    pub(crate) fn new(
        lf: &LnFact,
        n: usize,
        c: usize,
        nh: usize,
        class: ObservationClass,
        lengths: RangeInclusive<usize>,
    ) -> Self {
        let (s, obs0, k0, ln_count) = match class {
            ObservationClass::Clean => (0, 0, 0, 0.0),
            ObservationClass::Runs {
                on_path: s,
                runs: m,
                unit_gaps,
                end,
            } => (
                s,
                // each unit gap shows 1 node, each wide gap its 2
                // boundaries, the end gap per its class
                unit_gaps + 2 * (m - 1 - unit_gaps) + end.observed(),
                (m - 1 - unit_gaps) + usize::from(end.is_free()),
                // ways to split s sightings into m runs, times ways to
                // pick which inter-run gaps are unit gaps
                lf.ln_binom(s - 1, m - 1)
                    .expect("m <= s implies the binomial exists")
                    + lf.ln_binom(m - 1, unit_gaps)
                        .expect("unit_gaps <= m-1 implies the binomial exists"),
            ),
            ObservationClass::SenderCompromised => {
                panic!("the compromised-sender class has no linear form")
            }
        };
        let from = s.max(*lengths.start());
        let coefs = (from..=*lengths.end())
            .map(|l| {
                let den = lf.ln_falling(n - 1, l).expect("l <= n-1 by validation");
                let h_a = l as i64 - s as i64 - obs0 as i64;
                // probability: gap layouts (leading gap free from 0) x
                // compromised and honest id assignments
                let pc = match (
                    lf.ln_stars_bars(h_a, k0 + 1),
                    lf.ln_falling(c, s),
                    nh.checked_sub(1).and_then(|h| lf.ln_falling(h, l - s)),
                ) {
                    (Some(lay), Some(fc), Some(fh)) => (lay + fc + fh - den).exp(),
                    _ => 0.0,
                };
                // hypothesis A: leading gap = 0, the suspect is the sender
                let mut a = 0.0;
                if h_a >= 0 && nh > obs0 {
                    if let (Some(sb), Some(fall)) = (
                        lf.ln_stars_bars(h_a, k0),
                        lf.ln_falling(nh - obs0 - 1, h_a as usize),
                    ) {
                        a = (sb + fall - den).exp();
                    }
                }
                // hypothesis B: leading gap >= 1; the suspect is one more
                // observed honest intermediate and the sender is hidden
                let h_b = h_a - 1;
                let mut b = 0.0;
                if h_b >= 0 && nh >= obs0 + 2 {
                    if let (Some(sb), Some(fall)) = (
                        lf.ln_stars_bars(h_b, k0 + 1),
                        lf.ln_falling(nh - obs0 - 2, h_b as usize),
                    ) {
                        b = (sb + fall - den).exp();
                    }
                }
                [pc, a, b]
            })
            .collect();
        ClassForm {
            from,
            mult: (nh as f64 / n as f64) * ln_count.exp(),
            n_hidden: nh.saturating_sub(obs0 + 1),
            coefs,
        }
    }

    /// `(p, w_a, w_b, entropy)` of this class at the pmf `q`: the sums skip
    /// lengths with `q_l == 0` and run in increasing `l`.
    #[inline]
    pub(crate) fn score(&self, q: &[f64]) -> (f64, f64, f64, f64) {
        let (mut p, mut w_a, mut w_b) = (0.0, 0.0, 0.0);
        for (&ql, &[pc, a, b]) in q.iter().skip(self.from).zip(&self.coefs) {
            if ql == 0.0 {
                continue;
            }
            p += ql * pc;
            w_a += ql * a;
            w_b += ql * b;
        }
        p *= self.mult;
        let entropy = entropy_bits_grouped(&[(w_a, 1), (w_b, self.n_hidden)]);
        (p, w_a, w_b, entropy)
    }
}

impl ClassForms {
    /// Exact `H*`, equal to [`Evaluator::h_star`].
    pub(crate) fn h_star(&self, pmf: &[f64]) -> f64 {
        self.pass(&normalized(pmf, self.lmax).0, None)
    }

    /// [`Evaluator::h_star_and_grad`].
    pub(crate) fn h_star_and_grad(&self, pmf: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(grad.len(), pmf.len(), "one gradient slot per pmf entry");
        grad.fill(0.0);
        let k = pmf.len().min(self.lmax + 1);
        let (q, total) = normalized(pmf, self.lmax);
        let h = self.pass(&q, Some(&mut grad[..k]));
        for g in &mut grad[..k] {
            *g = (*g - h) / total;
        }
        h
    }

    /// `H̃(q)` of a normalized pmf; with `grad`, also adds the partials
    /// `∂H̃/∂q_l` into it.
    fn pass(&self, q: &[f64], mut grad: Option<&mut [f64]>) -> f64 {
        let mut h_star = 0.0;
        for form in &self.classes {
            let (p, w_a, w_b, entropy) = form.score(q);
            if let Some(d) = grad.as_deref_mut() {
                form.add_gradient(d, p, w_a, w_b, entropy);
            }
            h_star += p * entropy;
        }
        h_star
    }
}

/// Surprisal, in bits, charged to a posterior hypothesis whose weight is
/// exactly zero, where the gradient asks how fast adding mass would raise
/// it. The true one-sided slope of `-p·log2(p)` at `p = 0` is `+∞`, which
/// no step could follow; the surprisal of a weight ratio of `2⁻⁶⁴` still
/// points the gradient firmly into that coordinate and leaves the amount
/// to the line search. Positive weights keep their exact surprisal.
const ZERO_WEIGHT_SURPRISAL_BITS: f64 = 64.0;

/// `-log2(p)`, or [`ZERO_WEIGHT_SURPRISAL_BITS`] at `p = 0`.
fn surprisal_bits(p: f64) -> f64 {
    if p > 0.0 {
        -p.log2()
    } else {
        ZERO_WEIGHT_SURPRISAL_BITS
    }
}

impl ClassForm {
    /// Adds `∂(p·E)/∂q_l` to `d[l]`, given the class's probability `p`,
    /// weights and entropy `E` at `q`.
    ///
    /// With `z = w_a + n_hidden·w_b`, the entropy's partials are
    /// `∂E/∂w_a = (−log2(w_a/z) − E)/z` and
    /// `∂E/∂w_b = n_hidden·(−log2(w_b/z) − E)/z`. A class absent at `q`
    /// (`z = 0`) grows along `e_l` as `mult·pc_l·E(a_l, b_l)`: its
    /// probability's slope times the entropy of the weights `q_l` brings.
    fn add_gradient(&self, d: &mut [f64], p: f64, w_a: f64, w_b: f64, entropy: f64) {
        let hidden = self.n_hidden as f64;
        let z = w_a + w_b * hidden;
        let terms = d.iter_mut().skip(self.from).zip(&self.coefs);
        if z > 0.0 {
            let de_da = (surprisal_bits(w_a / z) - entropy) / z;
            let de_db = hidden * (surprisal_bits(w_b / z) - entropy) / z;
            for (dl, &[pc, a, b]) in terms {
                *dl += self.mult * pc * entropy + p * (a * de_da + b * de_db);
            }
        } else {
            for (dl, &[pc, a, b]) in terms {
                *dl += self.mult * pc * entropy_bits_grouped(&[(a, 1), (b, self.n_hidden)]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::PathLengthDist;
    use crate::mathutil::binary_entropy_bits;
    use crate::model::SystemModel;

    fn h_of(n: usize, c: usize, dist: &PathLengthDist) -> f64 {
        let model = SystemModel::new(n, c).unwrap();
        anonymity_degree(&model, dist).unwrap()
    }

    #[test]
    fn class_probabilities_sum_to_one() {
        for (n, c) in [(10, 0), (10, 1), (10, 3), (25, 5), (100, 1)] {
            for dist in [
                PathLengthDist::fixed(0),
                PathLengthDist::fixed(3),
                PathLengthDist::uniform(0, 6).unwrap(),
                PathLengthDist::uniform(2, 8).unwrap(),
                PathLengthDist::geometric(0.7, 9).unwrap(),
            ] {
                let model = SystemModel::new(n, c).unwrap();
                let a = analysis(&model, &dist).unwrap();
                let total: f64 = a.classes.iter().map(|r| r.probability).sum();
                assert!(
                    (total - 1.0).abs() < 1e-10,
                    "n={n} c={c} dist={dist}: classes sum to {total}"
                );
            }
        }
    }

    #[test]
    fn entropy_bounded_by_log2_n() {
        for (n, c) in [(8, 0), (8, 2), (50, 5), (100, 1)] {
            for dist in [
                PathLengthDist::fixed(1),
                PathLengthDist::fixed(5),
                PathLengthDist::uniform(1, 7).unwrap(),
            ] {
                let h = h_of(n, c, &dist);
                assert!(
                    h >= 0.0 && h <= (n as f64).log2() + 1e-12,
                    "n={n} c={c}: {h}"
                );
            }
        }
    }

    #[test]
    fn no_compromised_nodes_still_leaks_via_receiver() {
        // With c = 0 and l >= 1 fixed, the receiver sees its predecessor,
        // which cannot be the sender on a simple path: H* = log2(n-1).
        let h = h_of(20, 0, &PathLengthDist::fixed(3));
        assert!((h - 19f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn direct_send_exposes_sender() {
        // l = 0: the receiver's predecessor IS the sender.
        for c in [0, 1, 4] {
            let h = h_of(30, c, &PathLengthDist::fixed(0));
            assert!(h.abs() < 1e-12, "c={c}: {h}");
        }
        let model = SystemModel::new(30, 1).unwrap();
        let a = analysis(&model, &PathLengthDist::fixed(0)).unwrap();
        assert!((a.p_exposed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_anchor_fixed_one_and_two_coincide() {
        // Paper Section 6.1 / Theorem 1: H*(F(1)) = H*(F(2)) = (n-2)/n log2(n-2).
        let n = 100;
        let expect = (98.0 / 100.0) * 98f64.log2();
        let h1 = h_of(n, 1, &PathLengthDist::fixed(1));
        let h2 = h_of(n, 1, &PathLengthDist::fixed(2));
        assert!((h1 - expect).abs() < 1e-12, "F(1): {h1} vs {expect}");
        assert!((h2 - expect).abs() < 1e-12, "F(2): {h2} vs {expect}");
        // ... and the value the paper plots in Figure 3(b): about 6.4824.
        assert!((h1 - 6.4824).abs() < 5e-4);
    }

    #[test]
    fn paper_anchor_fixed_three_slightly_worse() {
        // Paper Figure 3(b) bullet 3: F(3) is (slightly) worse than F(1)=F(2).
        let n = 100;
        let h2 = h_of(n, 1, &PathLengthDist::fixed(2));
        let h3 = h_of(n, 1, &PathLengthDist::fixed(3));
        assert!(h3 < h2);
        assert!(h2 - h3 < 1e-3, "the gap is tiny: {}", h2 - h3);
        // closed form: (1/n) log2(n-3) + ((n-3)/n) log2(n-2)
        let expect = (1.0 / 100.0) * 97f64.log2() + (97.0 / 100.0) * 98f64.log2();
        assert!((h3 - expect).abs() < 1e-12);
    }

    #[test]
    fn paper_anchor_fixed_four_jumps_up() {
        // Paper Figure 3(b) bullet 1: F(4) beats F(1..3) because the
        // adversary can no longer locate a mid-path compromised node.
        let n = 100;
        let h3 = h_of(n, 1, &PathLengthDist::fixed(3));
        let h4 = h_of(n, 1, &PathLengthDist::fixed(4));
        assert!(h4 > h3 + 0.01, "h4={h4} h3={h3}");
        // closed form for F(4), c=1:
        let expect = (2.0 / 100.0) * (1.0 + 0.5 * 96f64.log2())
            + (1.0 / 100.0) * 97f64.log2()
            + (96.0 / 100.0) * 98f64.log2();
        assert!((h4 - expect).abs() < 1e-12, "F(4): {h4} vs {expect}");
    }

    #[test]
    fn paper_anchor_long_path_effect() {
        // Paper Figure 3(a): H* rises, peaks, then declines for long paths.
        let n = 100;
        let h10 = h_of(n, 1, &PathLengthDist::fixed(10));
        let h50 = h_of(n, 1, &PathLengthDist::fixed(50));
        let h99 = h_of(n, 1, &PathLengthDist::fixed(99));
        assert!(h50 > h10, "rising region");
        assert!(h99 < h50, "falling region (long-path effect)");
    }

    #[test]
    fn paper_anchor_theorem3_mean_only_dependence() {
        // Theorem 3: for uniform distributions with lower bound >= 3 the
        // anonymity degree depends only on the mean.
        let n = 100;
        let model = SystemModel::new(n, 1).unwrap();
        let h_f6 = anonymity_degree(&model, &PathLengthDist::fixed(6)).unwrap();
        let h_u39 = anonymity_degree(&model, &PathLengthDist::uniform(3, 9).unwrap()).unwrap();
        let h_u48 = anonymity_degree(&model, &PathLengthDist::uniform(4, 8).unwrap()).unwrap();
        let h_u57 = anonymity_degree(&model, &PathLengthDist::uniform(5, 7).unwrap()).unwrap();
        assert!((h_f6 - h_u39).abs() < 1e-12);
        assert!((h_f6 - h_u48).abs() < 1e-12);
        assert!((h_f6 - h_u57).abs() < 1e-12);
    }

    #[test]
    fn mean_only_dependence_fails_below_three() {
        // The equivalence breaks when mass reaches lengths <= 2.
        let n = 100;
        let model = SystemModel::new(n, 1).unwrap();
        let h_f5 = anonymity_degree(&model, &PathLengthDist::fixed(5)).unwrap();
        let h_u19 = anonymity_degree(&model, &PathLengthDist::uniform(1, 9).unwrap()).unwrap();
        assert!((h_f5 - h_u19).abs() > 1e-4);
    }

    #[test]
    fn variable_length_beats_fixed_at_small_mean() {
        // Paper conclusion 4 (after optimization; already visible for
        // uniform spreads at small expected length).
        let n = 100;
        let h_f5 = h_of(n, 1, &PathLengthDist::fixed(5));
        let h_u28 = h_of(n, 1, &PathLengthDist::uniform(2, 8).unwrap());
        assert!(h_u28 > h_f5);
    }

    #[test]
    fn more_compromised_nodes_never_help() {
        let n = 40;
        let dist = PathLengthDist::uniform(2, 10).unwrap();
        let mut prev = f64::INFINITY;
        for c in 0..10 {
            let h = h_of(n, c, &dist);
            assert!(h <= prev + 1e-12, "c={c}: {h} > {prev}");
            prev = h;
        }
    }

    #[test]
    fn all_compromised_yields_zero() {
        let h = h_of(12, 12, &PathLengthDist::fixed(4));
        assert_eq!(h, 0.0);
    }

    #[test]
    fn single_node_system_has_no_anonymity() {
        let h = h_of(1, 0, &PathLengthDist::fixed(0));
        assert_eq!(h, 0.0);
    }

    #[test]
    fn suspect_posterior_matches_closed_form_for_last_hop_class() {
        // For c=1, the class "run touches receiver" has
        // P(sender = pred(run)) = q(1) / P[L >= 1].
        let model = SystemModel::new(50, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 5).unwrap();
        let a = analysis(&model, &dist).unwrap();
        let touching = a
            .classes
            .iter()
            .find(|r| {
                matches!(
                    r.class,
                    ObservationClass::Runs {
                        on_path: 1,
                        runs: 1,
                        end: EndGap::Touching,
                        ..
                    }
                )
            })
            .expect("class present");
        let expect = dist.prob(1) / dist.tail(1);
        assert!((touching.suspect_posterior - expect).abs() < 1e-12);
        // and its entropy is h(alpha) + (1-alpha) log2(n-2)
        let h_expect = binary_entropy_bits(expect) + (1.0 - expect) * 48f64.log2();
        assert!((touching.entropy_bits - h_expect).abs() < 1e-12);
    }

    #[test]
    fn gradient_is_finite_at_point_masses_and_without_direct_sends() {
        for (n, c) in [(10, 0), (30, 1), (40, 3), (100, 1)] {
            let model = SystemModel::new(n, c).unwrap();
            let lmax = (n - 1).min(25);
            let ev = Evaluator::new(&model, lmax).unwrap();
            let mut pmfs: Vec<Vec<f64>> = (0..=lmax)
                .map(|l| {
                    let mut q = vec![0.0; lmax + 1];
                    q[l] = 1.0;
                    q
                })
                .collect();
            // q[0] = 0: the clean class's direct-send weight `w_a` is zero
            let mut no_direct = vec![1.0 / lmax as f64; lmax + 1];
            no_direct[0] = 0.0;
            pmfs.push(no_direct);
            for pmf in pmfs {
                let mut grad = vec![f64::NAN; lmax + 1];
                let h = ev.h_star_and_grad(&pmf, &mut grad);
                assert_eq!(h.to_bits(), ev.h_star(&pmf).to_bits());
                assert!(
                    grad.iter().all(|g| g.is_finite()),
                    "n={n} c={c} pmf={pmf:?}: {grad:?}"
                );
            }
        }
    }

    #[test]
    fn gradient_is_zero_beyond_lmax() {
        let model = SystemModel::new(20, 1).unwrap();
        let ev = Evaluator::new(&model, 4).unwrap();
        let pmf = [0.2, 0.2, 0.2, 0.2, 0.2, 0.7];
        let mut grad = [f64::NAN; 6];
        let h = ev.h_star_and_grad(&pmf, &mut grad);
        assert_eq!(h.to_bits(), ev.h_star(&pmf).to_bits());
        assert_eq!(grad[5], 0.0);
        assert!(grad[..5].iter().all(|g| g.is_finite()));
    }

    #[test]
    fn analysis_rejects_unrealizable_support() {
        let model = SystemModel::new(5, 1).unwrap();
        let dist = PathLengthDist::fixed(7);
        assert!(analysis(&model, &dist).is_err());
    }

    #[test]
    fn normalized_degree_in_unit_interval() {
        let model = SystemModel::new(64, 3).unwrap();
        let a = analysis(&model, &PathLengthDist::uniform(2, 9).unwrap()).unwrap();
        let nd = a.normalized(&model);
        assert!((0.0..=1.0).contains(&nd));
        assert!((a.h_star / 6.0 - nd).abs() < 1e-12);
    }
}
