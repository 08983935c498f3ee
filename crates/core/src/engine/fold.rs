//! Epoch-incremental posterior evaluation: a reusable fold workspace and
//! the closed-form round posterior it builds.
//!
//! [`crate::engine::sender_posterior`] is mathematically a table lookup —
//! the posterior depends on the observation only through its identity-free
//! *signature* `(sightings, runs, unit_gaps, end-gap)` plus a handful of
//! observed identities — but the one-shot entry point rebuilds the
//! log-factorial table and re-derives the hypothesis weights on every
//! call. Over a multi-epoch intersection attack (thousands of sessions
//! against one `(model, strategy)` pair) that is almost all of the cost.
//!
//! [`FoldWorkspace`] hoists everything observation-independent out of the
//! loop: it is built once per `(model, path-length distribution)` pair,
//! owns the log-factorial table and the clean-class weights, and memoizes
//! per-signature run weights as the attack discovers them.
//!
//! ## Closed-form round posteriors
//!
//! One observation's posterior takes at most three values over the `n`
//! members: zero for compromised nodes and for honest nodes seen on a
//! simple path, one weight for the *suspect* (the honest node just before
//! the first compromised sighting, or the receiver's predecessor), and one
//! shared weight for every other honest node. [`FoldWorkspace::round`]
//! builds that shape as a [`RoundPosterior`] in `O(observed ids)`; its
//! entropy (`-Σ k·p·log₂p` over the two groups), argmax and per-node
//! probability are closed form, so scoring a message costs the same at
//! `n = 10³` and `n = 10⁶`. [`FoldWorkspace::posterior_into`] expands it
//! into a dense vector for callers that want one.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::dist::PathLengthDist;
use crate::engine::cyclic::{cyclic_clean_weights, cyclic_run_weights};
use crate::engine::observation::{Observation, Succ};
use crate::engine::posterior::{signature_of, validate_structure};
use crate::engine::simple::{ClassForm, EndGap, ObservationClass};
use crate::error::{Error, Result};
use crate::mathutil::{plogp, LnFact};
use crate::model::{PathKind, SystemModel};

/// Precomputed, reusable state for evaluating many sender posteriors
/// against one `(model, strategy)` pair. See the module docs.
///
/// The workspace is immutable after construction apart from an interior
/// memo of per-signature hypothesis weights, so shared references can be
/// used from many threads at once. A racing pair of threads may derive
/// the same signature's weights twice; the derivation is a pure function
/// of the key, so whichever insert wins the results are bit-identical.
#[derive(Debug)]
pub struct FoldWorkspace {
    n: usize,
    c: usize,
    nh: usize,
    path_kind: PathKind,
    lmax: usize,
    q: Vec<f64>,
    lf: LnFact,
    ln_n: f64,
    ln_nh: f64,
    /// `(w_suspect, w_hidden)` of the run-free observation class.
    clean: (f64, f64),
    /// Memoized `(w_suspect, w_hidden)` per run signature.
    runs: Mutex<RunMemo>,
}

/// Interior memo: `(w_suspect, w_hidden)` keyed by run signature
/// `(runs, unit_gaps, receiver_pred, end_gap)`.
type RunMemo = HashMap<(usize, usize, usize, EndGap), (f64, f64)>;

impl FoldWorkspace {
    /// Builds the workspace: validates the distribution against the model
    /// and precomputes the log-factorial table and clean-class weights.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDistribution`] for distributions the model
    /// rejects (e.g. simple paths longer than `n - 1`).
    pub fn new(model: &SystemModel, dist: &PathLengthDist) -> Result<Self> {
        model.validate_dist(dist)?;
        let n = model.n();
        let nh = model.honest();
        let q = dist.pmf().to_vec();
        let ln_n = (n as f64).ln();
        let ln_nh = if nh > 0 {
            (nh as f64).ln()
        } else {
            f64::NEG_INFINITY
        };
        let (lmax, lf) = match model.path_kind() {
            PathKind::Simple => {
                let lmax = dist.max_len().min(n - 1);
                (lmax, LnFact::new(n + lmax + 4))
            }
            PathKind::Cyclic => {
                let lmax = dist.max_len();
                (lmax, LnFact::new(2 * lmax + 8))
            }
        };
        let mut ws = FoldWorkspace {
            n,
            c: model.c(),
            nh,
            path_kind: model.path_kind(),
            lmax,
            q,
            lf,
            ln_n,
            ln_nh,
            clean: (0.0, 0.0),
            runs: Mutex::new(HashMap::new()),
        };
        ws.clean = match ws.path_kind {
            PathKind::Simple => ws.simple_weights(ObservationClass::Clean),
            PathKind::Cyclic => cyclic_clean_weights(&ws.q, lmax, ln_n, ln_nh),
        };
        Ok(ws)
    }

    /// `(w_suspect, w_hidden)` of a simple-path class, from the class's
    /// linear form over the strategy's lengths.
    fn simple_weights(&self, class: ObservationClass) -> (f64, f64) {
        let form = ClassForm::new(&self.lf, self.n, self.c, self.nh, class, 0..=self.lmax);
        let (_, w_a, w_b, _) = form.score(&self.q);
        (w_a, w_b)
    }

    /// Number of member nodes of the underlying model.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of compromised nodes of the underlying model.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Path kind of the underlying model.
    pub fn path_kind(&self) -> PathKind {
        self.path_kind
    }

    /// Number of distinct run signatures memoized so far.
    pub fn memoized_signatures(&self) -> usize {
        self.runs.lock().expect("workspace lock").len()
    }

    /// `(w_suspect, w_hidden)` for a run signature, derived on first use.
    fn run_weights_for(&self, sig: (usize, usize, usize, EndGap)) -> (f64, f64) {
        if let Some(&w) = self.runs.lock().expect("workspace lock").get(&sig) {
            return w;
        }
        // derive outside the lock: a pure function of the key, so a racing
        // duplicate derivation produces the same bits
        let (s, m, unit_gaps, end) = sig;
        let w = match self.path_kind {
            PathKind::Simple => self.simple_weights(ObservationClass::Runs {
                on_path: s,
                runs: m,
                unit_gaps,
                end,
            }),
            PathKind::Cyclic => cyclic_run_weights(
                &self.lf, &self.q, self.lmax, self.ln_n, self.ln_nh, self.nh, s, m, unit_gaps, end,
            ),
        };
        *self
            .runs
            .lock()
            .expect("workspace lock")
            .entry(sig)
            .or_insert(w)
    }

    /// The closed-form posterior of one observation, in `O(observed ids)`.
    ///
    /// `compromised` must mark exactly the model's `c` nodes; only its
    /// length is checked here (debug builds also count it), because
    /// counting is `O(n)` per call — [`FoldWorkspace::posterior_into`] checks
    /// it in full.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidObservation`] for a mask of the wrong
    /// length, a structurally inconsistent observation, or one of zero
    /// likelihood under the strategy.
    pub fn round<'a>(
        &self,
        obs: &Observation,
        compromised: &'a [bool],
    ) -> Result<RoundPosterior<'a>> {
        if compromised.len() != self.n {
            return Err(Error::InvalidObservation(format!(
                "compromised vector has length {}, model has n={}",
                compromised.len(),
                self.n
            )));
        }
        debug_assert_eq!(
            compromised.iter().filter(|&&b| b).count(),
            self.c,
            "the compromised mask must mark the model's c nodes"
        );
        validate_structure(self.n, obs, compromised)?;
        // a compromised sender: the origin agent saw everything
        if let Some(s) = obs.origin {
            return Ok(RoundPosterior::sender_reported(compromised, s));
        }
        let (w_suspect, w_hidden, suspect) = if obs.runs.is_empty() {
            (self.clean.0, self.clean.1, obs.receiver_pred)
        } else {
            let (a, b) = self.run_weights_for(signature_of(obs));
            (a, b, obs.runs[0].pred)
        };
        // the suspect can only be compromised in an inconsistent
        // observation; it then carries no mass, like any compromised node
        let suspect = (!compromised[suspect]).then_some(suspect);
        let mut zeroed = Vec::new();
        let w_suspect = match self.path_kind {
            PathKind::Simple => {
                // an observed honest intermediate cannot be the sender on
                // a simple path; the suspect keeps its weight even when
                // observed
                let runs = obs.runs.iter();
                let seen = runs.flat_map(|run| {
                    let succ = match run.succ {
                        Succ::Node(v) => Some(v),
                        Succ::Receiver => None,
                    };
                    std::iter::once(run.pred).chain(succ)
                });
                zeroed.extend(
                    std::iter::once(obs.receiver_pred)
                        .chain(seen)
                        .filter(|&id| !compromised[id] && Some(id) != suspect),
                );
                zeroed.sort_unstable();
                zeroed.dedup();
                w_suspect
            }
            // everyone honest stays a candidate — the sender may reappear
            // as an intermediate on a cyclic path
            PathKind::Cyclic => w_suspect + w_hidden,
        };
        let hidden = self
            .nh
            .checked_sub(zeroed.len() + usize::from(suspect.is_some()))
            .ok_or_else(|| {
                Error::InvalidObservation(
                    "observation names more honest nodes than the model has".into(),
                )
            })?;
        let w_suspect = if suspect.is_some() { w_suspect } else { 0.0 };
        let z = w_suspect + w_hidden * hidden as f64;
        if z.is_nan() || z <= 0.0 {
            return Err(Error::InvalidObservation(
                "observation has zero likelihood under the strategy".into(),
            ));
        }
        Ok(RoundPosterior {
            compromised,
            suspect: suspect.map(|s| (s, w_suspect / z)),
            p_hidden: w_hidden / z,
            hidden,
            zeroed,
        })
    }

    /// Computes the sender posterior for one observation into `out`
    /// (resized to `n`): the dense expansion of [`FoldWorkspace::round`],
    /// bit-identical to [`crate::engine::sender_posterior`] on the same
    /// inputs but without per-call table construction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::engine::sender_posterior`].
    pub fn posterior_into(
        &self,
        obs: &Observation,
        compromised: &[bool],
        out: &mut Vec<f64>,
    ) -> Result<()> {
        if compromised.len() == self.n {
            check_compromised_count(compromised, self.c)?;
        }
        self.round(obs, compromised)?.posterior_into(out);
        Ok(())
    }

    /// Convenience wrapper around [`FoldWorkspace::posterior_into`]
    /// returning a fresh vector.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FoldWorkspace::posterior_into`].
    pub fn posterior(&self, obs: &Observation, compromised: &[bool]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.posterior_into(obs, compromised, &mut out)?;
        Ok(out)
    }

    /// The dense fill — weights, an ordered normalizer over all `n`
    /// entries, divide — as the reference the closed form is checked
    /// against. Assumes a validated observation without an origin report.
    #[cfg(test)]
    pub(crate) fn dense_posterior(&self, obs: &Observation, compromised: &[bool]) -> Vec<f64> {
        let (w_suspect, w_hidden, suspect) = if obs.runs.is_empty() {
            (self.clean.0, self.clean.1, obs.receiver_pred)
        } else {
            let (a, b) = self.run_weights_for(signature_of(obs));
            (a, b, obs.runs[0].pred)
        };
        let mut out: Vec<f64> = compromised
            .iter()
            .map(|&bad| if bad { 0.0 } else { w_hidden })
            .collect();
        match self.path_kind {
            PathKind::Simple => {
                let mut mark = |id: usize| {
                    if !compromised[id] {
                        out[id] = 0.0;
                    }
                };
                mark(obs.receiver_pred);
                for run in &obs.runs {
                    mark(run.pred);
                    if let Succ::Node(v) = run.succ {
                        mark(v);
                    }
                }
                if !compromised[suspect] {
                    out[suspect] = w_suspect;
                }
            }
            PathKind::Cyclic => {
                if !compromised[suspect] {
                    out[suspect] = w_suspect + w_hidden;
                }
            }
        }
        let mut z = 0.0;
        for &w in &out {
            z += w;
        }
        for w in &mut out {
            *w /= z;
        }
        out
    }
}

/// Checks that `compromised` marks exactly `c` nodes (`O(n)`).
pub(crate) fn check_compromised_count(compromised: &[bool], c: usize) -> Result<()> {
    let c_actual = compromised.iter().filter(|&&b| b).count();
    if c_actual != c {
        return Err(Error::InvalidObservation(format!(
            "compromised vector marks {c_actual} nodes, model says c={c}"
        )));
    }
    Ok(())
}

/// One round's sender posterior in closed form: the suspect's
/// probability, one probability shared by every other candidate, and the
/// honest nodes the observation excluded; compromised nodes carry zero
/// through the borrowed mask. See the module docs.
///
/// Built by [`FoldWorkspace::round`]; the intersection accumulator folds
/// it with [`crate::epochs::IntersectionPosterior::fold_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPosterior<'a> {
    compromised: &'a [bool],
    /// The one node whose probability differs from the shared one: the
    /// suspect, or a compromised sender that reported itself.
    suspect: Option<(usize, f64)>,
    /// Probability of each of the `hidden` other candidates.
    p_hidden: f64,
    hidden: usize,
    /// Honest nodes the observation excluded, ascending.
    zeroed: Vec<usize>,
}

impl<'a> RoundPosterior<'a> {
    /// The posterior when compromised node `sender` reports that it
    /// originated the message: all mass on `sender`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range or not compromised.
    pub fn sender_reported(compromised: &'a [bool], sender: usize) -> Self {
        assert!(
            compromised[sender],
            "only a compromised sender reports itself"
        );
        RoundPosterior {
            compromised,
            suspect: Some((sender, 1.0)),
            p_hidden: 0.0,
            hidden: 0,
            zeroed: Vec::new(),
        }
    }

    /// Number of member nodes.
    pub fn n(&self) -> usize {
        self.compromised.len()
    }

    /// Whether a compromised sender reported itself (a point mass).
    pub(crate) fn is_sender_reported(&self) -> bool {
        self.suspect.is_some_and(|(s, _)| self.compromised[s])
    }

    /// The suspect and its probability, when there is one.
    pub(crate) fn suspect(&self) -> Option<(usize, f64)> {
        self.suspect
    }

    /// The probability every other candidate shares.
    pub(crate) fn hidden_prob(&self) -> f64 {
        self.p_hidden
    }

    /// Honest nodes this observation excluded, ascending.
    pub(crate) fn zeroed(&self) -> &[usize] {
        &self.zeroed
    }

    /// Posterior probability that node `id` sent the message.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn prob(&self, id: usize) -> f64 {
        match self.suspect {
            Some((s, p)) if s == id => p,
            _ if self.compromised[id] || self.zeroed.binary_search(&id).is_ok() => 0.0,
            _ => self.p_hidden,
        }
    }

    /// Shannon entropy in bits, `-Σ k·p·log₂p` over the suspect and the
    /// shared group.
    pub fn entropy_bits(&self) -> f64 {
        let mut h = 0.0;
        if let Some((_, p)) = self.suspect {
            h -= plogp(p, 1);
        }
        h - plogp(self.p_hidden, self.hidden)
    }

    /// Number of nodes with positive probability.
    pub fn support(&self) -> usize {
        let suspect = self.suspect.is_some_and(|(_, p)| p > 0.0);
        usize::from(suspect) + if self.p_hidden > 0.0 { self.hidden } else { 0 }
    }

    /// The most likely sender and its probability. Ties resolve to the
    /// highest node id, as a scan over the dense posterior would.
    pub fn best_guess(&self) -> (usize, f64) {
        let shared = (self.hidden > 0).then(|| (self.top_hidden(), self.p_hidden));
        match (self.suspect, shared) {
            (Some(a), Some(b)) => better(a, b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => unreachable!("a round posterior has positive mass"),
        }
    }

    /// The highest node id carrying the shared probability, found by
    /// skipping the few excluded ids below `n`.
    fn top_hidden(&self) -> usize {
        (0..self.n())
            .rev()
            .find(|&id| {
                !self.compromised[id]
                    && self.suspect.is_none_or(|(s, _)| s != id)
                    && self.zeroed.binary_search(&id).is_err()
            })
            .expect("hidden > 0 leaves a candidate")
    }

    /// The dense expansion into `out` (resized to `n`).
    pub(crate) fn posterior_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.compromised
                .iter()
                .map(|&bad| if bad { 0.0 } else { self.p_hidden }),
        );
        for &id in &self.zeroed {
            out[id] = 0.0;
        }
        if let Some((s, p)) = self.suspect {
            out[s] = p;
        }
    }

    /// The dense expansion as a fresh vector of length `n`.
    pub fn posterior(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.posterior_into(&mut out);
        out
    }
}

/// The more probable of two `(id, probability)` candidates, the higher id
/// on a tie — the dense `max_by` scan's rule.
pub(crate) fn better(a: (usize, f64), b: (usize, f64)) -> (usize, f64) {
    match a.1.partial_cmp(&b.1).expect("probabilities are finite") {
        std::cmp::Ordering::Greater => a,
        std::cmp::Ordering::Less => b,
        std::cmp::Ordering::Equal => {
            if a.0 > b.0 {
                a
            } else {
                b
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::observation::observe;
    use crate::engine::posterior::sender_posterior;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn comp(n: usize, ids: &[usize]) -> Vec<bool> {
        let mut v = vec![false; n];
        for &i in ids {
            v[i] = true;
        }
        v
    }

    #[test]
    fn workspace_matches_one_shot_posterior_bitwise() {
        for kind in [PathKind::Simple, PathKind::Cyclic] {
            let model = SystemModel::with_path_kind(12, 2, kind).unwrap();
            let dist = PathLengthDist::uniform(0, 5).unwrap();
            let compromised = comp(12, &[3, 9]);
            let ws = FoldWorkspace::new(&model, &dist).unwrap();
            let mut rng = StdRng::seed_from_u64(17);
            let mut scratch: Vec<usize> = (0..12).collect();
            let mut buf = Vec::new();
            for _ in 0..200 {
                let sender = rng.gen_range(0..12);
                let l = dist.sample(&mut rng);
                let path = crate::engine::montecarlo::sample_path(
                    &model,
                    sender,
                    l,
                    &mut rng,
                    &mut scratch,
                );
                let obs = observe(sender, &path, &compromised);
                let expect = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
                ws.posterior_into(&obs, &compromised, &mut buf).unwrap();
                assert_eq!(
                    buf.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expect.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "kind={kind:?} obs={obs:?}"
                );
            }
            assert!(ws.memoized_signatures() > 0 || kind == PathKind::Cyclic);
        }
    }

    /// Relative distance, exact zeros included.
    fn rel(a: f64, b: f64) -> f64 {
        if a == b {
            0.0
        } else {
            (a - b).abs() / a.abs().max(b.abs())
        }
    }

    /// The dense oracle's posterior, with a compromised sender's point
    /// mass built the way the dense path always built it.
    fn oracle(ws: &FoldWorkspace, obs: &Observation, compromised: &[bool]) -> Vec<f64> {
        match obs.origin {
            Some(s) => (0..compromised.len())
                .map(|i| f64::from(u8::from(i == s)))
                .collect(),
            None => ws.dense_posterior(obs, compromised),
        }
    }

    /// The dense scan's argmax: the last maximal entry.
    fn dense_best(post: &[f64]) -> (usize, f64) {
        post.iter()
            .copied()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn closed_form_rounds_agree_with_the_dense_oracle(
            n in 4usize..40,
            c in 1usize..4,
            cyclic in proptest::prelude::any::<bool>(),
            strategy in 0usize..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            proptest::prop_assume!(c + 2 <= n);
            let kind = if cyclic { PathKind::Cyclic } else { PathKind::Simple };
            let model = SystemModel::with_path_kind(n, c, kind).unwrap();
            let top = (n - 1).min(6);
            let dist = match strategy {
                0 => PathLengthDist::uniform(0, top).unwrap(),
                1 => PathLengthDist::uniform(1, top).unwrap(),
                2 => PathLengthDist::fixed(top),
                _ => PathLengthDist::geometric(0.5, top).unwrap(),
            };
            let ws = FoldWorkspace::new(&model, &dist).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            // compromised ids anywhere, so the top of the id range is
            // sometimes compromised and sometimes not
            let mut ids: Vec<usize> = (0..n).collect();
            for k in 0..c {
                let j = rng.gen_range(k..n);
                ids.swap(k, j);
            }
            let compromised = comp(n, &ids[..c]);
            let mut scratch: Vec<usize> = (0..n).collect();
            for _ in 0..24 {
                // compromised senders included
                let sender = rng.gen_range(0..n);
                let l = dist.sample(&mut rng);
                let path = crate::engine::montecarlo::sample_path(
                    &model, sender, l, &mut rng, &mut scratch,
                );
                let obs = observe(sender, &path, &compromised);
                let round = ws.round(&obs, &compromised).unwrap();
                let dense = oracle(&ws, &obs, &compromised);
                let h_dense = crate::mathutil::entropy_bits(&dense);
                proptest::prop_assert!(
                    rel(round.entropy_bits(), h_dense) <= 1e-12,
                    "entropy {} vs {}", round.entropy_bits(), h_dense
                );
                proptest::prop_assert!(rel(round.prob(sender), dense[sender]) <= 1e-12);
                let (guess, p) = round.best_guess();
                let (dense_guess, dense_p) = dense_best(&dense);
                proptest::prop_assert_eq!(guess, dense_guess, "obs {:?}", obs);
                proptest::prop_assert_eq!(
                    guess == sender && p > 0.999_999,
                    dense_guess == sender && dense_p > 0.999_999
                );
                proptest::prop_assert_eq!(
                    round.support(),
                    dense.iter().filter(|&&p| p > 0.0).count()
                );
                let expanded = round.posterior();
                for (a, b) in expanded.iter().zip(&dense) {
                    proptest::prop_assert!(rel(*a, *b) <= 1e-12);
                }
            }
        }
    }

    #[test]
    fn best_guess_ties_resolve_to_the_highest_id_like_the_dense_scan() {
        // fixed(3): the receiver's predecessor on a clean path cannot be
        // the sender, so every other honest node ties and the highest
        // one not excluded wins — past compromised ids at the top
        let model = SystemModel::new(10, 2).unwrap();
        let dist = PathLengthDist::fixed(3);
        let ws = FoldWorkspace::new(&model, &dist).unwrap();
        let compromised = comp(10, &[9, 7]);
        for (sender, path, want) in [
            (0, vec![1, 2, 3], 8),
            (0, vec![1, 2, 8], 6),
            (2, vec![8, 9, 5], 6),
        ] {
            let obs = observe(sender, &path, &compromised);
            let round = ws.round(&obs, &compromised).unwrap();
            let dense = ws.dense_posterior(&obs, &compromised);
            assert_eq!(round.best_guess().0, want, "{obs:?}");
            assert_eq!(dense_best(&dense).0, want, "{obs:?}");
        }
    }

    #[test]
    fn workspace_validates_like_the_one_shot_entry_point() {
        let model = SystemModel::new(8, 1).unwrap();
        let dist = PathLengthDist::fixed(2);
        let compromised = comp(8, &[7]);
        let ws = FoldWorkspace::new(&model, &dist).unwrap();
        let obs = observe(0, &[1, 2], &compromised);
        // wrong length and wrong count fail with the same errors
        assert!(ws.posterior(&obs, &comp(9, &[7])).is_err());
        assert!(ws.posterior(&obs, &comp(8, &[1, 2])).is_err());
        // infeasible strategy is rejected at construction, like validate_dist
        assert!(FoldWorkspace::new(&model, &PathLengthDist::fixed(8)).is_err());
    }

    #[test]
    fn workspace_is_shareable_across_threads() {
        let model = SystemModel::new(16, 2).unwrap();
        let dist = PathLengthDist::uniform(1, 6).unwrap();
        let compromised = comp(16, &[0, 8]);
        let ws = FoldWorkspace::new(&model, &dist).unwrap();
        let expected = {
            let obs = observe(3, &[1, 0, 5, 2], &compromised);
            sender_posterior(&model, &dist, &obs, &compromised).unwrap()
        };
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ws = &ws;
                let compromised = &compromised;
                let expected = &expected;
                s.spawn(move || {
                    let obs = observe(3, &[1, 0, 5, 2], compromised);
                    let mut buf = Vec::new();
                    for _ in 0..50 {
                        ws.posterior_into(&obs, compromised, &mut buf).unwrap();
                        assert_eq!(&buf, expected);
                    }
                });
            }
        });
    }
}
