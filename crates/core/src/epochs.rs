//! Multi-round dynamics: epochs, churn, compromised-set rotation, and the
//! intersection adversary's posterior accumulator.
//!
//! The paper's `H*(S)` guarantee is a *single-round* statement: one
//! message, one observation, one posterior. The classic failure mode of
//! rerouting systems is the **long-term intersection attack** (Ando et
//! al.; Mödinger et al.): a persistent sender keeps talking to the same
//! receiver across rounds while the network changes — nodes churn in and
//! out, the compromised set rotates — and the adversary folds every
//! round's posterior into one cumulative posterior that only sharpens
//! with time.
//!
//! This module provides the engine-agnostic dynamics vocabulary:
//!
//! * [`EpochSchedule`] — how many rounds, how the compromised set rotates
//!   ([`RotationPolicy`]), and how membership churns ([`ChurnModel`]);
//! * [`EpochView`] — one realized epoch: the active node set and the
//!   compromised subset, in *universe* node ids, plus the local↔universe
//!   mapping every engine uses to express per-epoch posteriors in one
//!   shared space;
//! * [`IntersectionPosterior`] — the adversary's cumulative sender
//!   posterior, folded one round at a time from closed-form
//!   [`RoundPosterior`]s, with the zeroes each epoch imposes on every
//!   session ([`EpochZeroes`]) derived once per epoch;
//! * [`DecayCurve`] / [`EpochStat`] — anonymity-decay reporting
//!   (`H*` per epoch, rounds-to-identification);
//! * [`estimate_decay`] — a seeded session sampler with *exact* per-round
//!   posteriors, the analytic engines' multi-round estimator.
//!
//! ## Epoch semantics and the determinism contract
//!
//! Epoch 1 (index 0) is always the one-shot threat model: every node
//! active, the last `c` nodes compromised — so multi-round results anchor
//! exactly to the single-round `H*(S)` and dynamics begin at epoch 2.
//! Every realized quantity (churn draws, rotation resampling, session
//! senders, path draws) is a pure function of the schedule, the model,
//! and a caller-provided seed, so any two engines given the same seed
//! agree on *which* network each epoch sees.
//!
//! ## Why cumulative entropy decays (and when it may not)
//!
//! Folding rounds can only help the adversary **in expectation**:
//! `H(X | E_1..E_k) ≤ H(X | E_1..E_{k-1})` (conditioning reduces
//! entropy), so the *mean* cumulative entropy over many sessions is
//! non-increasing. A single session's entropy may transiently rise — two
//! confident rounds that suspect different nodes multiply into a flatter
//! posterior — which is why [`DecayCurve`] aggregates over sessions. Two
//! per-realization guarantees do hold and are property-tested: the
//! cumulative *support* never grows (a node excluded once stays
//! excluded — the intersection attack proper), and folding the same
//! evidence again never increases entropy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

use crate::dist::PathLengthDist;
use crate::engine::fold::better;
use crate::engine::{observe, sample_path_into, EvaluatorCache, RoundPosterior};
use crate::error::{Error, Result};
use crate::mathutil::plogp;
use crate::model::SystemModel;

/// How the compromised set changes from epoch to epoch.
///
/// Whatever the policy, epoch 1 always compromises the last `c` active
/// nodes — the workspace-wide one-shot convention — so single-round
/// anchors hold exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RotationPolicy {
    /// The last `c` active nodes in every epoch.
    Static,
    /// A window of `c` consecutive positions over the sorted active set,
    /// sliding by `step` positions per epoch.
    Shift {
        /// Positions the window advances each epoch.
        step: usize,
    },
    /// A fresh seeded uniform `c`-subset of the active set each epoch
    /// (from epoch 2 on).
    Resample,
}

impl RotationPolicy {
    /// Parses `static`, `shift:K`, or `resample`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s.split_once(':') {
            None if s == "static" => Ok(RotationPolicy::Static),
            None if s == "resample" => Ok(RotationPolicy::Resample),
            Some(("shift", step)) => step
                .parse::<usize>()
                .map(|step| RotationPolicy::Shift { step })
                .map_err(|_| format!("rotation `{s}`: bad shift step `{step}`")),
            _ => Err(format!(
                "rotation `{s}`: expected static | shift:K | resample"
            )),
        }
    }
}

impl std::fmt::Display for RotationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RotationPolicy::Static => write!(f, "static"),
            RotationPolicy::Shift { step } => write!(f, "shift:{step}"),
            RotationPolicy::Resample => write!(f, "resample"),
        }
    }
}

/// How membership changes from epoch to epoch.
///
/// Churn never touches epoch 1 (the one-shot anchor), and a session's
/// persistent sender simply stays silent in an epoch it sits out — the
/// adversary folds nothing for it that round (no traffic-absence
/// inference).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnModel {
    /// Every node is active in every epoch.
    None,
    /// From epoch 2 on, each node is independently offline with
    /// probability `rate` per epoch (an i.i.d. membership draw per
    /// `(epoch, node)` — nodes may leave and rejoin).
    Iid {
        /// Per-epoch offline probability in `[0, 1)`.
        rate: f64,
    },
}

impl ChurnModel {
    /// Parses `none`, `iid:R`, or a bare rate `R` (shorthand for
    /// `iid:R`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms or the invalid rate.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let rate = match s.split_once(':') {
            None if s == "none" => return Ok(ChurnModel::None),
            None => s
                .parse::<f64>()
                .map_err(|_| format!("churn `{s}`: expected none | iid:R | a rate in [0, 1)"))?,
            Some(("iid", r)) => r
                .parse::<f64>()
                .map_err(|_| format!("churn `{s}`: bad rate `{r}`"))?,
            Some(_) => return Err(format!("churn `{s}`: expected none | iid:R")),
        };
        if !(0.0..1.0).contains(&rate) {
            return Err(format!("churn `{s}`: rate must lie in [0, 1)"));
        }
        Ok(ChurnModel::Iid { rate })
    }
}

impl std::fmt::Display for ChurnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnModel::None => write!(f, "none"),
            ChurnModel::Iid { rate } => write!(f, "iid:{rate}"),
        }
    }
}

/// A full multi-round scenario description: round count, rotation, and
/// churn. [`EpochSchedule::one_shot`] (one epoch, static, no churn) is
/// the classic single-round evaluation every existing pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSchedule {
    /// Number of rounds (`>= 1`).
    pub epochs: usize,
    /// Compromised-set rotation policy.
    pub rotation: RotationPolicy,
    /// Membership churn model.
    pub churn: ChurnModel,
}

impl Default for EpochSchedule {
    fn default() -> Self {
        Self::one_shot()
    }
}

impl EpochSchedule {
    /// The single-round schedule (the pre-dynamics behavior).
    pub fn one_shot() -> Self {
        EpochSchedule {
            epochs: 1,
            rotation: RotationPolicy::Static,
            churn: ChurnModel::None,
        }
    }

    /// `epochs` static rounds without churn.
    pub fn rounds(epochs: usize) -> Self {
        EpochSchedule {
            epochs,
            ..Self::one_shot()
        }
    }

    /// Whether this is the plain single-round evaluation.
    pub fn is_one_shot(&self) -> bool {
        self.epochs == 1
            && self.rotation == RotationPolicy::Static
            && self.churn == ChurnModel::None
    }

    /// Parses the compact token form: `epochs=E` optionally followed by
    /// `;rotation=POLICY` and/or `;churn=MODEL`
    /// (e.g. `epochs=4;rotation=shift:2;churn=iid:0.25`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        let mut schedule = EpochSchedule::one_shot();
        let mut saw_epochs = false;
        for part in s.split(';') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("dynamics `{s}`: expected `key=value`, got `{part}`"))?;
            match key {
                "epochs" => {
                    schedule.epochs = value
                        .parse::<usize>()
                        .ok()
                        .filter(|&e| e >= 1)
                        .ok_or_else(|| format!("dynamics `{s}`: bad epoch count `{value}`"))?;
                    saw_epochs = true;
                }
                "rotation" => schedule.rotation = RotationPolicy::parse(value)?,
                "churn" => schedule.churn = ChurnModel::parse(value)?,
                other => {
                    return Err(format!(
                        "dynamics `{s}`: unknown field `{other}` (expected epochs/rotation/churn)"
                    ))
                }
            }
        }
        if !saw_epochs {
            return Err(format!("dynamics `{s}`: missing `epochs=`"));
        }
        Ok(schedule)
    }

    /// Realizes the schedule into per-epoch views: who is active and who
    /// is compromised each round, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] when `epochs == 0`, `c >= n`, or
    /// churn leaves some epoch with fewer than `c + 2` active nodes (the
    /// smallest system with a nontrivial posterior).
    pub fn realize(&self, n: usize, c: usize, seed: u64) -> Result<Vec<EpochView>> {
        if self.epochs == 0 {
            return Err(Error::InvalidModel(
                "a schedule needs at least one epoch".into(),
            ));
        }
        if c + 2 > n {
            return Err(Error::InvalidModel(format!(
                "multi-round dynamics need n >= c + 2 (got n={n}, c={c})"
            )));
        }
        let mut views = Vec::with_capacity(self.epochs);
        for epoch in 0..self.epochs {
            // epoch 1 is always the one-shot anchor: full membership
            let active: Vec<usize> = if epoch == 0 {
                (0..n).collect()
            } else {
                match self.churn {
                    ChurnModel::None => (0..n).collect(),
                    ChurnModel::Iid { rate } => (0..n)
                        .filter(|&u| hash01(seed, epoch as u64, u as u64) >= rate)
                        .collect(),
                }
            };
            if active.len() < c + 2 {
                return Err(Error::InvalidModel(format!(
                    "churn left epoch {} with {} active nodes (need >= c + 2 = {})",
                    epoch + 1,
                    active.len(),
                    c + 2
                )));
            }
            let compromised = self.compromised_for(epoch, &active, c, seed);
            views.push(EpochView {
                epoch,
                active,
                compromised,
            });
        }
        Ok(views)
    }

    /// The compromised subset of `active` for one epoch under this
    /// schedule's rotation policy.
    fn compromised_for(&self, epoch: usize, active: &[usize], c: usize, seed: u64) -> Vec<usize> {
        let ne = active.len();
        match (epoch, self.rotation) {
            // the anchor epoch and the static policy: the last c
            // active nodes, matching the one-shot convention
            (0, _) | (_, RotationPolicy::Static) => active[ne - c..].to_vec(),
            (_, RotationPolicy::Shift { step }) => {
                let start = (ne - c + epoch * step) % ne;
                let mut chosen: Vec<usize> = (0..c).map(|k| active[(start + k) % ne]).collect();
                // a wrapped window is still a set: keep the documented
                // sorted-subset invariant
                chosen.sort_unstable();
                chosen
            }
            (_, RotationPolicy::Resample) => {
                let mut pool = active.to_vec();
                let mut rng = StdRng::seed_from_u64(mix64(seed ^ ROTATION_SALT, epoch as u64));
                for k in 0..c {
                    let j = rng.gen_range(k..pool.len());
                    pool.swap(k, j);
                }
                let mut chosen = pool[..c].to_vec();
                chosen.sort_unstable();
                chosen
            }
        }
    }
}

impl std::fmt::Display for EpochSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epochs={}", self.epochs)?;
        if self.rotation != RotationPolicy::Static {
            write!(f, ";rotation={}", self.rotation)?;
        }
        if self.churn != ChurnModel::None {
            write!(f, ";churn={}", self.churn)?;
        }
        Ok(())
    }
}

/// One realized epoch: the active membership and the compromised subset,
/// both in sorted *universe* node ids. Engines evaluate the epoch over
/// the compacted local id space `0..n()` and use [`EpochView::lift`] to
/// express posteriors back in universe space for intersection folding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochView {
    /// Zero-based epoch index (epoch 1 of the schedule is index 0).
    pub epoch: usize,
    /// Active universe node ids, sorted ascending. Local id `i` is
    /// `active[i]`.
    pub active: Vec<usize>,
    /// Compromised universe node ids (a sorted subset of `active`).
    pub compromised: Vec<usize>,
}

impl EpochView {
    /// Number of active nodes this epoch (the local system size).
    pub fn n(&self) -> usize {
        self.active.len()
    }

    /// Whether universe node `u` is active this epoch.
    pub fn is_active(&self, u: usize) -> bool {
        self.active.binary_search(&u).is_ok()
    }

    /// The local id of universe node `u`, when active.
    pub fn local_of(&self, u: usize) -> Option<usize> {
        self.active.binary_search(&u).ok()
    }

    /// The compromised mask over local ids (length [`EpochView::n`]).
    pub fn local_compromised_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.n()];
        for &u in &self.compromised {
            mask[self.local_of(u).expect("compromised nodes are active")] = true;
        }
        mask
    }

    /// The compromised ids in local space.
    pub fn local_compromised_ids(&self) -> Vec<usize> {
        self.compromised
            .iter()
            .map(|&u| self.local_of(u).expect("compromised nodes are active"))
            .collect()
    }

    /// Lifts a local-space posterior (length [`EpochView::n`]) into
    /// universe space (length `universe`): inactive nodes get zero mass —
    /// the adversary knows the membership roster, so an offline node
    /// cannot have sent this epoch's message.
    ///
    /// # Panics
    ///
    /// Panics if `local.len() != self.n()` or an active id is out of
    /// `universe` range.
    pub fn lift(&self, local: &[f64], universe: usize) -> Vec<f64> {
        assert_eq!(
            local.len(),
            self.n(),
            "posterior length must match epoch size"
        );
        let mut out = vec![0.0; universe];
        for (i, &p) in local.iter().enumerate() {
            out[self.active[i]] = p;
        }
        out
    }
}

/// The intersection adversary's cumulative sender posterior.
///
/// Rounds fold multiplicatively (Bayes with a uniform prior and
/// conditionally independent observations given the sender); the first
/// fold is a verbatim copy, so single-epoch results are **bit-identical**
/// to the one-shot [`RoundPosterior`] scores. Later folds renormalize,
/// keeping the accumulator stable over arbitrarily many rounds.
///
/// ## Structured representation
///
/// Every round posterior gives one shared probability to all candidates
/// it does not single out, so the product of rounds does too. The
/// accumulator keeps:
///
/// * one *common* weight, carried by every candidate no folded round
///   singled out;
/// * a per-session *exception* list: the candidates some round singled
///   out (a suspect, or an honest node an observation excluded, at
///   weight zero), ascending by id;
/// * the *zeroes* every session that folded the same epochs shares: the
///   union of those epochs' offline and compromised nodes
///   ([`EpochZeroes`]), derived once per epoch as a bitset and united once
///   per distinct epoch history.
///
/// A fold, [`IntersectionPosterior::entropy_bits`] and
/// [`IntersectionPosterior::support`] cost `O(exceptions)`, whatever the
/// universe size; [`IntersectionPosterior::best_guess`] adds a skip over
/// the zeroed ids at the top of the id range. The dense
/// [`IntersectionPosterior::fold`] compresses a universe-length vector
/// into the same form in `O(universe)`.
///
/// After a `fold` error the accumulator state is unspecified; callers
/// are expected to discard it (every error is terminal for the session).
#[derive(Debug, Clone)]
pub struct IntersectionPosterior {
    universe: usize,
    folds: usize,
    /// Weight of each of the `common_count` candidates outside
    /// `exceptions` and `zeroes`.
    common: f64,
    common_count: usize,
    /// Singled-out candidates, ascending by id; disjoint from `zeroes`.
    exceptions: Vec<(usize, f64)>,
    zeroes: Option<Arc<ZeroSet>>,
}

impl IntersectionPosterior {
    /// A fresh accumulator over `universe` candidate senders (uniform
    /// prior).
    pub fn new(universe: usize) -> Self {
        IntersectionPosterior {
            universe,
            folds: 0,
            common: 1.0 / universe as f64,
            common_count: universe,
            exceptions: Vec::new(),
            zeroes: None,
        }
    }

    /// Number of rounds folded in so far.
    pub fn folds(&self) -> usize {
        self.folds
    }

    /// Number of candidate senders (the universe size).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Always `true`: the accumulator keeps one shared weight plus its
    /// exceptions and never a universe-length vector. Kept for callers
    /// that report the dense/sparse split of earlier versions.
    pub fn is_sparse(&self) -> bool {
        true
    }

    /// Folds one round's closed-form posterior, computed in `epoch`'s
    /// local id space, into the accumulator in `O(exceptions + observed
    /// ids)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidObservation`] if the round and the epoch
    /// disagree on the number of nodes or the epoch's universe differs
    /// from the accumulator's, or if the round is inconsistent with every
    /// surviving candidate (zero total mass after the fold).
    pub fn fold_round(
        &mut self,
        round: &RoundPosterior<'_>,
        epoch: &EpochZeroes<'_>,
    ) -> Result<()> {
        if round.n() != epoch.local_n() || epoch.zeroes.universe != self.universe {
            return Err(Error::InvalidObservation(format!(
                "round over {} nodes, epoch over {} of {}, accumulator universe is {}",
                round.n(),
                epoch.local_n(),
                epoch.zeroes.universe,
                self.universe
            )));
        }
        if round.is_sender_reported() {
            // a point mass on a compromised node: the epoch's zeroes would
            // remove the one candidate the round keeps
            let (s, p) = round.suspect().expect("a reported sender");
            return self.fold_parts(0.0, &[(epoch.lift(s), p)], None);
        }
        // the lift is monotone, so ascending local ids stay ascending
        let mut singled: Vec<(usize, f64)> = round
            .zeroed()
            .iter()
            .map(|&id| (epoch.lift(id), 0.0))
            .collect();
        if let Some((s, p)) = round.suspect() {
            let at = singled.partition_point(|&(id, _)| id < epoch.lift(s));
            singled.insert(at, (epoch.lift(s), p));
        }
        self.fold_parts(round.hidden_prob(), &singled, Some(&epoch.zeroes))
    }

    /// Folds one round's posterior, given as a dense universe-length
    /// vector. One scan validates it, collects its zeroes into a zero set,
    /// and picks its most frequent positive value as the shared weight;
    /// every other positive entry becomes an exception.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidObservation`] if the posterior has the
    /// wrong length, a non-finite or negative entry, or is inconsistent
    /// with every surviving candidate (zero total mass after the fold).
    pub fn fold(&mut self, round_posterior: &[f64]) -> Result<()> {
        if round_posterior.len() != self.universe {
            return Err(Error::InvalidObservation(format!(
                "round posterior has length {}, accumulator universe is {}",
                round_posterior.len(),
                self.universe
            )));
        }
        // one scan: validate, collect the zeroes, and vote (Boyer–Moore)
        // for the shared positive weight
        let mut zero_bits = vec![0u64; self.universe.div_ceil(64)];
        let (mut common, mut votes) = (0.0f64, 0usize);
        for (i, &p) in round_posterior.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(Error::InvalidObservation(
                    "round posterior has a negative or non-finite entry".into(),
                ));
            }
            if p == 0.0 {
                zero_bits[i / 64] |= 1u64 << (i % 64);
            } else if votes == 0 {
                (common, votes) = (p, 1);
            } else if p.to_bits() == common.to_bits() {
                votes += 1;
            } else {
                votes -= 1;
            }
        }
        let singled: Vec<(usize, f64)> = round_posterior
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != 0.0 && p.to_bits() != common.to_bits())
            .map(|(i, &p)| (i, p))
            .collect();
        let zeroes = Arc::new(ZeroSet::new(self.universe, zero_bits));
        self.fold_parts(common, &singled, Some(&zeroes))
    }

    /// The fold proper: the round gives `common` to every candidate not
    /// in `singled` (ascending universe ids) or `zeroes`.
    fn fold_parts(
        &mut self,
        common: f64,
        singled: &[(usize, f64)],
        zeroes: Option<&Arc<ZeroSet>>,
    ) -> Result<()> {
        let zeroes = match (self.zeroes.take(), zeroes) {
            (Some(held), Some(round)) => Some(held.union(round)),
            (held, round) => held.or_else(|| round.cloned()),
        };
        let alive = |id: usize| zeroes.as_ref().is_none_or(|z| !z.contains(id));
        let first = self.folds == 0;
        // merge the held exceptions with the round's, both ascending
        let mut merged = Vec::with_capacity(self.exceptions.len() + singled.len());
        let (mut held, mut round) = (self.exceptions.iter().peekable(), singled.iter().peekable());
        loop {
            let (id, w) = match (held.peek(), round.peek()) {
                (Some(&&(a, wa)), Some(&&(b, wb))) if a == b => {
                    held.next();
                    round.next();
                    (a, wa * wb)
                }
                (Some(&&(a, wa)), Some(&&(b, _))) if a < b => {
                    held.next();
                    (a, wa * common)
                }
                (Some(&&(a, wa)), None) => {
                    held.next();
                    (a, wa * common)
                }
                (_, Some(&&(b, wb))) => {
                    round.next();
                    // the verbatim first fold copies the round's value
                    (b, if first { wb } else { self.common * wb })
                }
                (None, None) => break,
            };
            if alive(id) {
                merged.push((id, w));
            }
        }
        self.common = if first { common } else { self.common * common };
        self.exceptions = merged;
        self.common_count =
            self.universe - zeroes.as_ref().map_or(0, |z| z.count) - self.exceptions.len();
        self.zeroes = zeroes;
        if !first {
            // exceptions first, ascending, then the shared group
            let mut total = 0.0;
            for &(_, w) in &self.exceptions {
                total += w;
            }
            total += self.common * self.common_count as f64;
            if total.is_nan() || total <= 0.0 {
                return Err(Error::InvalidObservation(
                    "intersection fold eliminated every candidate sender".into(),
                ));
            }
            for (_, w) in &mut self.exceptions {
                *w /= total;
            }
            self.common /= total;
        }
        self.folds += 1;
        Ok(())
    }

    /// Posterior probability of candidate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn prob(&self, id: usize) -> f64 {
        assert!(id < self.universe, "candidate {id} outside the universe");
        if self.zeroes.as_ref().is_some_and(|z| z.contains(id)) {
            return 0.0;
        }
        match self.exceptions.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(k) => self.exceptions[k].1,
            Err(_) => self.common,
        }
    }

    /// The cumulative posterior, normalized to sum 1, as a dense
    /// universe-length vector. Before any fold this is the uniform prior.
    pub fn posterior(&self) -> Vec<f64> {
        let mut out = vec![self.common; self.universe];
        if let Some(z) = &self.zeroes {
            for (id, p) in out.iter_mut().enumerate() {
                if z.contains(id) {
                    *p = 0.0;
                }
            }
        }
        for &(id, w) in &self.exceptions {
            out[id] = w;
        }
        out
    }

    /// Shannon entropy of the cumulative posterior, in bits: `-Σ p·log₂p`
    /// over the exceptions, then `k·p·log₂p` for the shared group.
    pub fn entropy_bits(&self) -> f64 {
        if self.folds == 0 {
            return (self.universe as f64).log2();
        }
        let mut h = 0.0;
        for &(_, w) in &self.exceptions {
            h -= plogp(w, 1);
        }
        h - plogp(self.common, self.common_count)
    }

    /// Number of candidates still carrying positive mass. Monotonically
    /// non-increasing as rounds fold in — the intersection attack proper.
    pub fn support(&self) -> usize {
        let singled = self.exceptions.iter().filter(|&&(_, w)| w > 0.0).count();
        singled
            + if self.common > 0.0 {
                self.common_count
            } else {
                0
            }
    }

    /// The most likely sender and its normalized cumulative posterior
    /// probability. Ties resolve to the highest index, as a scan over the
    /// dense posterior would.
    pub fn best_guess(&self) -> (usize, f64) {
        let singled = self.exceptions.iter().copied().reduce(better);
        let shared = self.top_common().map(|id| (id, self.common));
        match (singled, shared) {
            (Some(a), Some(b)) => better(a, b),
            (Some(a), None) | (None, Some(a)) => a,
            (None, None) => (self.universe - 1, f64::NAN),
        }
    }

    /// The highest candidate carrying the common weight, if any.
    fn top_common(&self) -> Option<usize> {
        if self.common_count == 0 {
            return None;
        }
        let mut id = self.universe - 1;
        loop {
            if let Some(z) = &self.zeroes {
                id = z.last_clear_at_or_below(id)?;
            }
            if self
                .exceptions
                .binary_search_by_key(&id, |&(i, _)| i)
                .is_err()
            {
                return Some(id);
            }
            id = id.checked_sub(1)?;
        }
    }
}

/// Representation-agnostic equality: two accumulators are equal when
/// they agree on the universe, the fold count, and every candidate's
/// probability (an `O(universe)` comparison).
impl PartialEq for IntersectionPosterior {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.folds == other.folds
            && self.posterior() == other.posterior()
    }
}

/// A set of universe ids with zero mass for every session that folded the
/// same epochs: a bitset, its size, and the memoized unions with later
/// epochs' sets, so sessions with one history share one set.
struct ZeroSet {
    key: u64,
    universe: usize,
    bits: Vec<u64>,
    count: usize,
    /// `self ∪ other` by `other.key`; `None` when that union is `self`.
    unions: Mutex<HashMap<u64, Option<Arc<ZeroSet>>>>,
}

impl std::fmt::Debug for ZeroSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // the bitset is universe-sized: show its size, not its words
        f.debug_struct("ZeroSet")
            .field("universe", &self.universe)
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

impl ZeroSet {
    fn new(universe: usize, bits: Vec<u64>) -> Self {
        static NEXT_KEY: AtomicU64 = AtomicU64::new(0);
        ZeroSet {
            key: NEXT_KEY.fetch_add(1, AtomicOrdering::Relaxed),
            universe,
            count: bits.iter().map(|w| w.count_ones() as usize).sum(),
            bits,
            unions: Mutex::new(HashMap::new()),
        }
    }

    fn contains(&self, id: usize) -> bool {
        self.bits[id / 64] >> (id % 64) & 1 == 1
    }

    /// The highest id `<= id` outside the set.
    fn last_clear_at_or_below(&self, id: usize) -> Option<usize> {
        let mut word = id / 64;
        // keep bits 0..=id%64 of the first word
        let mut clear = !self.bits[word] & (u64::MAX >> (63 - id % 64));
        loop {
            if clear != 0 {
                return Some(word * 64 + 63 - clear.leading_zeros() as usize);
            }
            word = word.checked_sub(1)?;
            clear = !self.bits[word];
        }
    }

    /// `self ∪ other`, memoized per pair.
    fn union(self: &Arc<Self>, other: &Arc<ZeroSet>) -> Arc<ZeroSet> {
        if Arc::ptr_eq(self, other) {
            return Arc::clone(self);
        }
        let mut unions = self.unions.lock().expect("zero-set memo lock");
        let united = unions.entry(other.key).or_insert_with(|| {
            let bits: Vec<u64> = self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a | b)
                .collect();
            let united = ZeroSet::new(self.universe, bits);
            // a union no larger than `self` is `self`: keep one set
            (united.count != self.count).then(|| Arc::new(united))
        });
        united.as_ref().map_or_else(|| Arc::clone(self), Arc::clone)
    }
}

/// One epoch's zeroes, shared by every session folding a round of that
/// epoch: the offline and compromised universe ids as a bitset, built
/// once in `O(universe / 64 + n_e)`, plus the epoch's local-to-universe
/// lift.
#[derive(Debug, Clone)]
pub struct EpochZeroes<'a> {
    /// Local id `i` is universe id `active[i]`; `None` is the identity.
    active: Option<&'a [usize]>,
    zeroes: Arc<ZeroSet>,
}

impl<'a> EpochZeroes<'a> {
    /// The zeroes of `view` over a universe of `universe` ids.
    ///
    /// # Panics
    ///
    /// Panics if an active id lies outside the universe.
    pub fn new(view: &'a EpochView, universe: usize) -> Self {
        assert!(
            view.active.last().is_none_or(|&u| u < universe),
            "active ids must lie inside the universe"
        );
        let mut bits = vec![u64::MAX; universe.div_ceil(64)];
        if !universe.is_multiple_of(64) {
            *bits.last_mut().expect("universe > 0") = (1u64 << (universe % 64)) - 1;
        }
        for &u in &view.active {
            bits[u / 64] &= !(1u64 << (u % 64));
        }
        for &u in &view.compromised {
            bits[u / 64] |= 1u64 << (u % 64);
        }
        EpochZeroes {
            active: Some(&view.active),
            zeroes: Arc::new(ZeroSet::new(universe, bits)),
        }
    }

    /// The zeroes of a single round over `n` members: the `compromised`
    /// ids, with the identity lift. Costs `O(n / 64 + c)`.
    ///
    /// # Panics
    ///
    /// Panics if a compromised id is not below `n`.
    pub fn one_shot(n: usize, compromised: &[usize]) -> EpochZeroes<'static> {
        let mut bits = vec![0u64; n.div_ceil(64)];
        for &u in compromised {
            assert!(u < n, "compromised id {u} outside n={n}");
            bits[u / 64] |= 1u64 << (u % 64);
        }
        EpochZeroes {
            active: None,
            zeroes: Arc::new(ZeroSet::new(n, bits)),
        }
    }

    /// Number of nodes in the epoch's local id space.
    fn local_n(&self) -> usize {
        self.active.map_or(self.zeroes.universe, <[usize]>::len)
    }

    /// The universe id of local id `local`.
    fn lift(&self, local: usize) -> usize {
        self.active.map_or(local, |active| active[local])
    }
}

/// A reusable universe-sized buffer for lifting dense local-space
/// posteriors into universe space without a fresh `O(universe)`
/// allocation per fold (the per-round `Vec` churn [`EpochView::lift`]
/// pays), for callers that fold dense vectors with
/// [`IntersectionPosterior::fold`].
///
/// The buffer holds zeroes between calls; [`LiftScratch::lifted`]
/// scatters the local posterior onto the active indices, hands the dense
/// view to the callback, and re-zeroes exactly the written positions —
/// `O(n_e)` maintenance instead of `O(universe)` allocate-and-zero.
#[derive(Debug)]
pub struct LiftScratch {
    buf: Vec<f64>,
}

impl LiftScratch {
    /// A zeroed scratch buffer over `universe` candidates.
    pub fn new(universe: usize) -> Self {
        LiftScratch {
            buf: vec![0.0; universe],
        }
    }

    /// Runs `f` on the universe-space lift of `local` at the sorted
    /// `active` indices — bit-identical to `f(&view.lift(local, u))` —
    /// then restores the scratch to all zeroes.
    ///
    /// # Panics
    ///
    /// Panics if `active.len() != local.len()` or an active index is out
    /// of universe range (the same contract as [`EpochView::lift`]).
    pub fn lifted<R>(&mut self, active: &[usize], local: &[f64], f: impl FnOnce(&[f64]) -> R) -> R {
        assert_eq!(
            local.len(),
            active.len(),
            "posterior length must match epoch size"
        );
        for (&u, &p) in active.iter().zip(local) {
            self.buf[u] = p;
        }
        let out = f(&self.buf);
        for &u in active {
            self.buf[u] = 0.0;
        }
        out
    }
}

/// Aggregate anonymity statistics after folding a given number of
/// epochs, over many persistent sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStat {
    /// One-based epoch number (epoch 1 is the one-shot anchor).
    pub epoch: usize,
    /// Mean cumulative posterior entropy over sessions, in bits — the
    /// multi-round analogue of `H*(S)`.
    pub mean_entropy_bits: f64,
    /// Standard error of that mean.
    pub std_error: f64,
    /// Fraction of sessions whose sender the cumulative posterior
    /// identifies outright (argmax correct with probability ≈ 1).
    pub identification_rate: f64,
    /// Mean number of candidate senders still carrying mass.
    pub mean_support: f64,
    /// Number of sessions aggregated.
    pub sessions: usize,
}

/// The anonymity-decay curve of a multi-round scenario: one
/// [`EpochStat`] per epoch, in epoch order.
#[derive(Debug, Clone, PartialEq)]
pub struct DecayCurve {
    /// Per-epoch cumulative statistics, `per_epoch[e]` covering epochs
    /// `1..=e+1`.
    pub per_epoch: Vec<EpochStat>,
}

impl DecayCurve {
    /// The final epoch's cumulative statistics.
    pub fn last(&self) -> &EpochStat {
        self.per_epoch
            .last()
            .expect("a curve has at least one epoch")
    }

    /// The first (anchor) epoch's statistics — comparable to the
    /// single-round `H*(S)`.
    pub fn first(&self) -> &EpochStat {
        self.per_epoch
            .first()
            .expect("a curve has at least one epoch")
    }

    /// Whether the mean cumulative entropy is non-increasing across
    /// epochs, allowing `slack` bits of upward noise per step (use 0.0
    /// for strict monotonicity).
    pub fn entropy_non_increasing(&self, slack: f64) -> bool {
        self.per_epoch
            .windows(2)
            .all(|w| w[1].mean_entropy_bits <= w[0].mean_entropy_bits + slack)
    }
}

/// Estimates the anonymity-decay curve of `schedule` under `model` and
/// `dist` by sampling `sessions` persistent sender sessions, each
/// scored with the *exact* per-round Bayesian posterior and folded by
/// the intersection accumulator.
///
/// Each session draws its sender uniformly from the universe (the
/// paper's a-priori model) and sends one message per epoch it is active
/// in. All randomness flows from `seed`: equal arguments produce equal
/// curves, bit for bit. The realized epochs (churn, rotation) depend on
/// `seed` alone; `stream` separates only the *session* randomness, so
/// two estimators sharing a seed — e.g. independent exact and
/// Monte-Carlo sweep cells — observe the same per-epoch networks while
/// drawing independent sessions.
///
/// # Errors
///
/// Propagates schedule-realization errors and per-epoch
/// distribution-infeasibility errors (e.g. a fixed length exceeding a
/// churned epoch's `n_e - 1` on simple paths).
pub fn estimate_decay(
    model: &SystemModel,
    dist: &PathLengthDist,
    schedule: &EpochSchedule,
    sessions: usize,
    seed: u64,
    stream: u64,
) -> Result<DecayCurve> {
    estimate_decay_with(
        model,
        dist,
        schedule,
        sessions,
        seed,
        stream,
        &EvaluatorCache::new(),
    )
}

/// [`estimate_decay`] sharing fold workspaces through an external
/// [`EvaluatorCache`], so repeated estimations over the same epoch models
/// (e.g. a campaign's exact and Monte-Carlo cells sweeping strategies)
/// amortize the per-epoch table builds. Bit-identical to
/// [`estimate_decay`] on equal arguments.
///
/// # Errors
///
/// Same conditions as [`estimate_decay`].
pub fn estimate_decay_with(
    model: &SystemModel,
    dist: &PathLengthDist,
    schedule: &EpochSchedule,
    sessions: usize,
    seed: u64,
    stream: u64,
    cache: &EvaluatorCache,
) -> Result<DecayCurve> {
    if sessions == 0 {
        return Err(Error::InvalidModel("need at least one session".into()));
    }
    let n = model.n();
    let c = model.c();
    let views = schedule.realize(n, c, seed)?;
    // per-epoch local models, shared fold workspaces, compromised masks
    // and zeroes, validated up front
    let mut epochs = Vec::with_capacity(views.len());
    for view in &views {
        let local_model = SystemModel::with_path_kind(view.n(), c, model.path_kind())?;
        let workspace = cache
            .workspace(&local_model, dist)
            .map_err(|e| Error::InvalidDistribution(format!("epoch {}: {e}", view.epoch + 1)))?;
        let zeroes = EpochZeroes::new(view, n);
        epochs.push((
            view,
            local_model,
            workspace,
            view.local_compromised_mask(),
            zeroes,
        ));
    }

    let mut rng = StdRng::seed_from_u64(mix64(mix64(seed, SESSION_SALT), stream));
    let mut sums = vec![0.0; views.len()];
    let mut sq_sums = vec![0.0; views.len()];
    let mut supports = vec![0.0; views.len()];
    let mut identified = vec![0usize; views.len()];
    let mut scratch: Vec<usize> = Vec::new();
    let mut path: Vec<usize> = Vec::new();

    for _ in 0..sessions {
        let sender = rng.gen_range(0..n);
        let mut acc = IntersectionPosterior::new(n);
        for (e, (view, local_model, workspace, mask, zeroes)) in epochs.iter().enumerate() {
            if let Some(local_sender) = view.local_of(sender) {
                let round = if mask[local_sender] {
                    // a compromised sender reports itself
                    RoundPosterior::sender_reported(mask, local_sender)
                } else {
                    let l = dist.sample(&mut rng);
                    scratch.clear();
                    scratch.extend(0..view.n());
                    sample_path_into(
                        local_model,
                        local_sender,
                        l,
                        &mut rng,
                        &mut scratch,
                        &mut path,
                    );
                    let obs = observe(local_sender, &path, mask);
                    workspace
                        .round(&obs, mask)
                        .expect("generated observations are consistent by construction")
                };
                acc.fold_round(&round, zeroes)?;
            }
            // an inactive sender stays silent: the round folds nothing
            // and the cumulative state carries forward
            let h = acc.entropy_bits();
            sums[e] += h;
            sq_sums[e] += h * h;
            supports[e] += acc.support() as f64;
            let (guess, p) = acc.best_guess();
            if guess == sender && p > 0.999_999 {
                identified[e] += 1;
            }
        }
    }

    let k = sessions as f64;
    let per_epoch = (0..views.len())
        .map(|e| {
            let mean = sums[e] / k;
            let var = (sq_sums[e] / k - mean * mean).max(0.0);
            EpochStat {
                epoch: e + 1,
                mean_entropy_bits: mean,
                std_error: (var / k).sqrt(),
                identification_rate: identified[e] as f64 / k,
                mean_support: supports[e] / k,
                sessions,
            }
        })
        .collect();
    Ok(DecayCurve { per_epoch })
}

/// Stream separator for rotation resampling draws.
const ROTATION_SALT: u64 = 0xB07A_7E5E_7C0A_11ED;

/// Stream separator for session sampling (senders, lengths, paths).
const SESSION_SALT: u64 = 0x5E55_10FF_DECA_F001;

/// SplitMix64-style mix of two words — the module's one deterministic
/// hashing primitive (churn draws, rotation streams, session streams all
/// derive from it).
fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic uniform draw in `[0, 1)` for `(seed, epoch, node)` —
/// the churn coin.
fn hash01(seed: u64, epoch: u64, node: u64) -> f64 {
    (mix64(mix64(seed, epoch ^ 0xC4E1_24D1_57B0_77AB), node) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_parse_display_round_trips() {
        for s in [
            "epochs=1",
            "epochs=4",
            "epochs=3;rotation=shift:2",
            "epochs=5;rotation=resample",
            "epochs=2;churn=iid:0.25",
            "epochs=6;rotation=shift:1;churn=iid:0.1",
        ] {
            let schedule = EpochSchedule::parse(s).unwrap();
            assert_eq!(schedule.to_string(), s);
        }
        assert!(EpochSchedule::parse("epochs=0").is_err());
        assert!(EpochSchedule::parse("rounds=3").is_err());
        assert!(EpochSchedule::parse("epochs=3;churn=iid:1.5").is_err());
        assert!(EpochSchedule::parse("epochs=3;rotation=spin").is_err());
        assert!(
            EpochSchedule::parse("churn=iid:0.5").is_err(),
            "epochs is mandatory"
        );
        // churn shorthand: a bare rate means iid
        assert_eq!(
            EpochSchedule::parse("epochs=2;churn=0.3").unwrap().churn,
            ChurnModel::Iid { rate: 0.3 }
        );
    }

    #[test]
    fn one_shot_is_the_default_and_detects_itself() {
        assert!(EpochSchedule::default().is_one_shot());
        assert!(!EpochSchedule::rounds(3).is_one_shot());
        assert!(!EpochSchedule {
            epochs: 1,
            rotation: RotationPolicy::Resample,
            churn: ChurnModel::None,
        }
        .is_one_shot());
    }

    #[test]
    fn epoch_one_is_always_the_one_shot_anchor() {
        for rotation in [
            RotationPolicy::Static,
            RotationPolicy::Shift { step: 3 },
            RotationPolicy::Resample,
        ] {
            for churn in [ChurnModel::None, ChurnModel::Iid { rate: 0.4 }] {
                let schedule = EpochSchedule {
                    epochs: 4,
                    rotation,
                    churn,
                };
                let views = schedule.realize(10, 2, 99).unwrap();
                assert_eq!(views.len(), 4);
                assert_eq!(views[0].active, (0..10).collect::<Vec<_>>());
                assert_eq!(views[0].compromised, vec![8, 9], "last c convention");
            }
        }
    }

    #[test]
    fn realize_is_deterministic_and_seed_sensitive() {
        let schedule = EpochSchedule {
            epochs: 5,
            rotation: RotationPolicy::Resample,
            churn: ChurnModel::Iid { rate: 0.3 },
        };
        let a = schedule.realize(20, 3, 7).unwrap();
        let b = schedule.realize(20, 3, 7).unwrap();
        assert_eq!(a, b);
        let c = schedule.realize(20, 3, 8).unwrap();
        assert_ne!(a, c, "a different seed draws different churn/rotation");
    }

    #[test]
    fn shift_rotation_slides_a_window() {
        let schedule = EpochSchedule {
            epochs: 3,
            rotation: RotationPolicy::Shift { step: 1 },
            churn: ChurnModel::None,
        };
        let views = schedule.realize(6, 2, 1).unwrap();
        assert_eq!(views[0].compromised, vec![4, 5]);
        assert_eq!(views[1].compromised, vec![0, 5], "wrapped window, sorted");
        assert_eq!(views[2].compromised, vec![0, 1]);
    }

    #[test]
    fn compromised_nodes_are_always_active() {
        let schedule = EpochSchedule {
            epochs: 6,
            rotation: RotationPolicy::Resample,
            churn: ChurnModel::Iid { rate: 0.5 },
        };
        for view in schedule.realize(16, 3, 42).unwrap() {
            assert_eq!(view.compromised.len(), 3);
            for &u in &view.compromised {
                assert!(view.is_active(u));
            }
            let mask = view.local_compromised_mask();
            assert_eq!(mask.iter().filter(|&&b| b).count(), 3);
        }
    }

    #[test]
    fn realize_rejects_degenerate_systems() {
        assert!(EpochSchedule::rounds(2).realize(3, 2, 1).is_err());
        // a brutal churn rate empties some epoch of a tiny system
        let schedule = EpochSchedule {
            epochs: 8,
            rotation: RotationPolicy::Static,
            churn: ChurnModel::Iid { rate: 0.95 },
        };
        assert!(schedule.realize(5, 1, 3).is_err());
    }

    #[test]
    fn lift_places_mass_on_active_universe_ids() {
        let view = EpochView {
            epoch: 1,
            active: vec![0, 2, 5],
            compromised: vec![5],
        };
        let lifted = view.lift(&[0.5, 0.25, 0.25], 6);
        assert_eq!(lifted, vec![0.5, 0.0, 0.25, 0.0, 0.0, 0.25]);
        assert_eq!(view.local_of(2), Some(1));
        assert_eq!(view.local_of(3), None);
    }

    #[test]
    fn first_fold_is_a_verbatim_copy() {
        let p = vec![0.125, 0.5, 0.375, 0.0];
        let mut acc = IntersectionPosterior::new(4);
        assert_eq!(acc.support(), 4);
        assert_eq!(acc.entropy_bits(), 2.0);
        acc.fold(&p).unwrap();
        assert_eq!(acc.posterior(), p, "bit-identical to the one-shot path");
        let dense = crate::mathutil::entropy_bits(&p);
        assert!((acc.entropy_bits() - dense).abs() <= 1e-15 * dense);
        assert_eq!(acc.support(), 3);
    }

    #[test]
    fn folding_shrinks_support_and_never_resurrects_candidates() {
        let mut acc = IntersectionPosterior::new(4);
        acc.fold(&[0.25, 0.25, 0.5, 0.0]).unwrap();
        acc.fold(&[0.0, 0.5, 0.25, 0.25]).unwrap();
        let post = acc.posterior();
        assert_eq!(post[0], 0.0);
        assert_eq!(post[3], 0.0, "a node excluded once stays excluded");
        assert_eq!(acc.support(), 2);
        let total: f64 = post.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contradictory_rounds_are_rejected() {
        let mut acc = IntersectionPosterior::new(3);
        acc.fold(&[1.0, 0.0, 0.0]).unwrap();
        assert!(acc.fold(&[0.0, 1.0, 0.0]).is_err());
        assert!(acc.fold(&[0.5, 0.5]).is_err(), "length mismatch");
        assert!(acc.fold(&[0.5, -0.1, 0.6]).is_err(), "negative mass");
    }

    #[test]
    fn best_guess_tracks_the_cumulative_argmax() {
        let mut acc = IntersectionPosterior::new(3);
        acc.fold(&[0.5, 0.3, 0.2]).unwrap();
        acc.fold(&[0.2, 0.5, 0.3]).unwrap();
        // cumulative weights: 0.10, 0.15, 0.06 -> node 1 leads
        let (guess, p) = acc.best_guess();
        assert_eq!(guess, 1);
        assert!(p > 0.4 && p < 0.6);
    }

    /// The dense accumulator the structured one replaced: a universe-length
    /// vector, verbatim first fold, then multiply, ordered sum, divide.
    struct DenseRef {
        weights: Vec<f64>,
        folds: usize,
    }

    impl DenseRef {
        fn fold(&mut self, round: &[f64]) {
            if self.folds == 0 {
                self.weights = round.to_vec();
            } else {
                let mut total = 0.0;
                for (w, &p) in self.weights.iter_mut().zip(round) {
                    *w *= p;
                    total += *w;
                }
                for w in &mut self.weights {
                    *w /= total;
                }
            }
            self.folds += 1;
        }

        fn best_guess(&self) -> (usize, f64) {
            self.weights
                .iter()
                .copied()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
        }
    }

    fn rel(a: f64, b: f64) -> f64 {
        if a == b {
            0.0
        } else {
            (a - b).abs() / a.abs().max(b.abs())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn structured_folds_agree_with_the_dense_accumulator(
            n in 8usize..40,
            c in 1usize..3,
            epochs in 2usize..6,
            rotation in 0usize..3,
            churn_pct in 0usize..40,
            strategy in 0usize..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let schedule = EpochSchedule {
                epochs,
                rotation: match rotation {
                    0 => RotationPolicy::Static,
                    1 => RotationPolicy::Shift { step: 2 },
                    _ => RotationPolicy::Resample,
                },
                churn: if churn_pct == 0 {
                    ChurnModel::None
                } else {
                    ChurnModel::Iid { rate: churn_pct as f64 / 100.0 }
                },
            };
            let Ok(views) = schedule.realize(n, c, seed) else {
                return Ok(());
            };
            let smallest = views.iter().map(EpochView::n).min().unwrap();
            let top = (smallest - 1).min(5);
            let dist = match strategy {
                0 => PathLengthDist::uniform(0, top).unwrap(),
                1 => PathLengthDist::uniform(1, top).unwrap(),
                _ => PathLengthDist::fixed(top),
            };
            let cache = EvaluatorCache::new();
            let epochs: Vec<_> = views
                .iter()
                .map(|view| {
                    let model = SystemModel::new(view.n(), c).unwrap();
                    let ws = cache.workspace(&model, &dist).unwrap();
                    (view, model, ws, view.local_compromised_mask(), EpochZeroes::new(view, n))
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
            for _ in 0..12 {
                let sender = rng.gen_range(0..n);
                let mut acc = IntersectionPosterior::new(n);
                let mut dense = DenseRef { weights: Vec::new(), folds: 0 };
                for (view, model, ws, mask, zeroes) in &epochs {
                    let Some(local) = view.local_of(sender) else {
                        continue;
                    };
                    let (round, local_dense) = if mask[local] {
                        let point = (0..view.n()).map(|i| f64::from(u8::from(i == local)));
                        (RoundPosterior::sender_reported(mask, local), point.collect())
                    } else {
                        let l = dist.sample(&mut rng);
                        let mut scratch: Vec<usize> = (0..view.n()).collect();
                        let path = crate::engine::sample_path(model, local, l, &mut rng, &mut scratch);
                        let obs = observe(local, &path, mask);
                        (ws.round(&obs, mask).unwrap(), ws.dense_posterior(&obs, mask))
                    };
                    acc.fold_round(&round, zeroes).unwrap();
                    dense.fold(&view.lift(&local_dense, n));
                    let h = crate::mathutil::entropy_bits(&dense.weights);
                    proptest::prop_assert!(
                        rel(acc.entropy_bits(), h) <= 1e-12,
                        "entropy {} vs {}", acc.entropy_bits(), h
                    );
                    let support = dense.weights.iter().filter(|&&w| w > 0.0).count();
                    proptest::prop_assert_eq!(acc.support(), support, "support");
                    let (guess, p) = acc.best_guess();
                    let (dense_guess, dense_p) = dense.best_guess();
                    // candidates tied in exact arithmetic may round apart
                    // differently in the two fold orders: the guesses must
                    // agree up to such a near-tie
                    proptest::prop_assert!(
                        guess == dense_guess || rel(dense.weights[guess], dense_p) <= 1e-12,
                        "guess {} vs {}", guess, dense_guess
                    );
                    proptest::prop_assert!(rel(p, dense_p) <= 1e-12);
                    proptest::prop_assert!(rel(acc.prob(sender), dense.weights[sender]) <= 1e-12);
                    for (a, b) in acc.posterior().iter().zip(&dense.weights) {
                        proptest::prop_assert!(rel(*a, *b) <= 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn sessions_with_one_history_share_one_zero_set() {
        let schedule = EpochSchedule {
            epochs: 3,
            rotation: RotationPolicy::Resample,
            churn: ChurnModel::Iid { rate: 0.3 },
        };
        let views = schedule.realize(200, 3, 5).unwrap();
        let zeroes: Vec<EpochZeroes<'_>> = views.iter().map(|v| EpochZeroes::new(v, 200)).collect();
        for (view, z) in views.iter().zip(&zeroes) {
            assert_eq!(
                z.zeroes.count,
                200 - view.n() + 3,
                "offline plus compromised"
            );
        }
        let a = zeroes[0].zeroes.union(&zeroes[1].zeroes);
        let b = zeroes[0].zeroes.union(&zeroes[1].zeroes);
        assert!(Arc::ptr_eq(&a, &b), "the union is memoized");
        let ab = a.union(&zeroes[2].zeroes);
        for u in 0..200 {
            let dead = views
                .iter()
                .any(|v| !v.is_active(u) || v.compromised.contains(&u));
            assert_eq!(ab.contains(u), dead, "{u}");
        }
        // uniting a set with itself, or with a subset, keeps the set
        assert!(Arc::ptr_eq(&ab.union(&a), &ab));
        assert!(Arc::ptr_eq(&ab.union(&ab), &ab));
    }

    #[test]
    fn last_clear_id_skips_zeroed_ids_across_words() {
        let view = EpochView {
            epoch: 0,
            active: (0..70).chain(75..130).collect(),
            compromised: vec![128, 129],
        };
        let z = EpochZeroes::new(&view, 131).zeroes;
        assert_eq!(z.last_clear_at_or_below(130), Some(127));
        assert_eq!(z.last_clear_at_or_below(74), Some(69));
        assert_eq!(z.last_clear_at_or_below(63), Some(63));
        assert_eq!(z.last_clear_at_or_below(0), Some(0));
        let all = EpochZeroes::one_shot(3, &[0, 1, 2]).zeroes;
        assert_eq!(all.last_clear_at_or_below(2), None);
    }

    #[test]
    fn decay_is_deterministic_and_anchors_epoch_one() {
        let model = SystemModel::new(20, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 4).unwrap();
        let schedule = EpochSchedule::rounds(3);
        let a = estimate_decay(&model, &dist, &schedule, 1500, 11, 0).unwrap();
        let b = estimate_decay(&model, &dist, &schedule, 1500, 11, 0).unwrap();
        assert_eq!(a, b, "equal seeds, equal curves, bit for bit");
        // epoch 1 is an unbiased estimate of the one-shot H*(S)
        let exact = crate::engine::anonymity_degree(&model, &dist).unwrap();
        let first = a.first();
        assert!(
            (first.mean_entropy_bits - exact).abs() <= 5.0 * first.std_error + 1e-9,
            "epoch-1 {} vs exact {exact} (se {})",
            first.mean_entropy_bits,
            first.std_error
        );
        // folding more epochs decays the mean cumulative entropy
        assert!(a.entropy_non_increasing(0.0), "{:?}", a.per_epoch);
        assert!(a.last().mean_entropy_bits < first.mean_entropy_bits);
        assert_eq!(a.per_epoch.len(), 3);
        assert!(a.per_epoch.iter().all(|s| s.sessions == 1500));
    }

    #[test]
    fn rotation_identifies_persistent_senders_eventually() {
        // with the compromised set sweeping the whole ring, every sender
        // is eventually first-hop-compromised or rotated into directly
        let model = SystemModel::new(8, 2).unwrap();
        let dist = PathLengthDist::fixed(1);
        let schedule = EpochSchedule {
            epochs: 6,
            rotation: RotationPolicy::Shift { step: 2 },
            churn: ChurnModel::None,
        };
        let curve = estimate_decay(&model, &dist, &schedule, 600, 5, 0).unwrap();
        let early = curve.first().identification_rate;
        let late = curve.last().identification_rate;
        assert!(late > early, "rotation must leak identity over time");
        assert!(curve.last().mean_support < curve.first().mean_support);
    }

    #[test]
    fn churned_epochs_shrink_candidate_support() {
        let model = SystemModel::new(24, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 3).unwrap();
        let schedule = EpochSchedule {
            epochs: 4,
            rotation: RotationPolicy::Static,
            churn: ChurnModel::Iid { rate: 0.4 },
        };
        let curve = estimate_decay(&model, &dist, &schedule, 800, 21, 0).unwrap();
        // an offline node cannot have sent: churn makes the intersection
        // attack bite even without rotation
        assert!(curve.last().mean_support < curve.first().mean_support - 1.0);
        assert!(curve.entropy_non_increasing(0.0), "{:?}", curve.per_epoch);
    }

    #[test]
    fn infeasible_epochs_surface_as_errors() {
        // F(9) fits n=10 but not a churned epoch with fewer actives
        let model = SystemModel::new(10, 1).unwrap();
        let dist = PathLengthDist::fixed(9);
        let schedule = EpochSchedule {
            epochs: 6,
            rotation: RotationPolicy::Static,
            churn: ChurnModel::Iid { rate: 0.4 },
        };
        let err = estimate_decay(&model, &dist, &schedule, 10, 3, 0).unwrap_err();
        assert!(err.to_string().contains("epoch"), "{err}");
    }
}
