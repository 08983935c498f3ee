//! The Bayesian attack and empirical anonymity measurement.
//!
//! For every delivered message the adversary reconstructs its observation,
//! computes the exact posterior over senders in closed form
//! ([`anonroute_core::engine::RoundPosterior`]), and scores it in time
//! independent of the number of members. Averaging
//! the posterior entropies over many messages yields an *empirical*
//! anonymity degree that must agree with the closed-form `H*(S)` — the
//! end-to-end validation of the whole reproduction (analysis ⇄ simulated
//! system).

use std::collections::BTreeMap;

use anonroute_core::engine::FoldWorkspace;
use anonroute_core::epochs::{
    DecayCurve, EpochStat, EpochView, EpochZeroes, IntersectionPosterior,
};
use anonroute_core::{PathLengthDist, SystemModel};
use anonroute_sim::{MsgId, NodeId, Origination, TransferRecord};

use crate::error::{Error, Result};
use crate::reconstruct::Adversary;

/// The adversary's verdict on one message.
#[derive(Debug, Clone, PartialEq)]
pub struct MessageVerdict {
    /// Which message.
    pub msg: MsgId,
    /// Posterior entropy in bits.
    pub entropy_bits: f64,
    /// The adversary's best guess (argmax of the posterior).
    pub best_guess: NodeId,
    /// Posterior probability assigned to the true sender.
    pub true_sender_prob: f64,
    /// Whether the best guess was correct.
    pub identified: bool,
    /// The posterior in structured form (a shared weight plus the few
    /// nodes singled out), expanded on demand.
    posterior: IntersectionPosterior,
}

impl MessageVerdict {
    /// Scores `posterior` against the ground-truth sender: the shared
    /// verdict rule of the one-shot and intersection attacks
    /// (`identified` means the argmax is correct with probability ≈ 1).
    fn new(
        msg: MsgId,
        truth: NodeId,
        entropy_bits: f64,
        (best_guess, p_best): (NodeId, f64),
        true_sender_prob: f64,
        posterior: IntersectionPosterior,
    ) -> Self {
        MessageVerdict {
            msg,
            entropy_bits,
            best_guess,
            true_sender_prob,
            identified: best_guess == truth && p_best > 0.999_999,
            posterior,
        }
    }

    /// The posterior over senders as a dense vector (length `n`, or the
    /// universe size for an intersection verdict; sums to 1).
    pub fn posterior(&self) -> Vec<f64> {
        self.posterior.posterior()
    }
}

/// Aggregate results of attacking a whole trace.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// Per-message verdicts, in message-id order.
    pub verdicts: Vec<MessageVerdict>,
    /// Mean posterior entropy — the empirical anonymity degree `Ĥ*`.
    pub empirical_h_star: f64,
    /// Standard error of the mean entropy.
    pub std_error: f64,
    /// Fraction of messages whose sender was guessed correctly.
    pub identification_rate: f64,
    /// Mean posterior probability on the true sender.
    pub mean_true_sender_prob: f64,
}

impl AttackReport {
    /// Two-sided 95% confidence interval for the empirical anonymity
    /// degree.
    pub fn ci95(&self) -> (f64, f64) {
        (
            self.empirical_h_star - 1.96 * self.std_error,
            self.empirical_h_star + 1.96 * self.std_error,
        )
    }
}

/// Attacks every delivered message in a simulation trace.
///
/// `model` and `dist` are the adversary's (correct, per the threat model)
/// knowledge of the system parameters and the path-selection strategy.
/// `originations` supply the ground-truth labels used only for scoring.
/// Builds the strategy's [`FoldWorkspace`] and runs
/// [`attack_trace_with`].
///
/// # Errors
///
/// Returns [`Error::BadInput`] when the adversary disagrees with the
/// model, the strategy is infeasible for it, or no message can be
/// attacked, and propagates posterior-computation failures (which
/// indicate a mismatch between the simulated protocol and the declared
/// strategy).
pub fn attack_trace(
    adversary: &Adversary,
    model: &SystemModel,
    dist: &PathLengthDist,
    trace: &[TransferRecord],
    originations: &[Origination],
) -> Result<AttackReport> {
    if adversary.c() != model.c() || adversary.compromised().len() != model.n() {
        return Err(Error::BadInput(format!(
            "adversary ({} of {}) disagrees with model (c={} of n={})",
            adversary.c(),
            adversary.compromised().len(),
            model.c(),
            model.n()
        )));
    }
    let workspace = FoldWorkspace::new(model, dist)
        .map_err(|e| Error::BadInput(format!("posterior failed: {e}")))?;
    attack_trace_with(adversary, &workspace, trace, originations)
}

/// [`attack_trace`] against a prebuilt workspace, so callers attacking
/// many traces of one `(model, strategy)` pair build its `O(n)` tables
/// once (see [`anonroute_core::engine::EvaluatorCache::workspace`]).
/// Beyond that, the cost is `O(trace)` plus `O(n / 64)` for the
/// compromised set, independent of `n` per message.
///
/// # Errors
///
/// As [`attack_trace`]; the adversary must match the workspace's model.
pub fn attack_trace_with(
    adversary: &Adversary,
    workspace: &FoldWorkspace,
    trace: &[TransferRecord],
    originations: &[Origination],
) -> Result<AttackReport> {
    let n = workspace.n();
    if adversary.c() != workspace.c() || adversary.compromised().len() != n {
        return Err(Error::BadInput(format!(
            "adversary ({} of {}) disagrees with model (c={} of n={n})",
            adversary.c(),
            adversary.compromised().len(),
            workspace.c(),
        )));
    }
    let observations = adversary.reconstruct_all(trace);
    let zeroes = EpochZeroes::one_shot(n, adversary.compromised_ids());
    let mut verdicts = Vec::new();
    for o in originations {
        let Some(obs) = observations.get(&o.msg) else {
            continue; // undelivered within the trace
        };
        let wrap = |e: anonroute_core::Error| {
            Error::BadInput(format!("posterior failed for {:?}: {e}", o.msg))
        };
        let round = workspace
            .round(obs, adversary.compromised())
            .map_err(wrap)?;
        let mut posterior = IntersectionPosterior::new(n);
        posterior.fold_round(&round, &zeroes).map_err(wrap)?;
        verdicts.push(MessageVerdict::new(
            o.msg,
            o.sender,
            round.entropy_bits(),
            round.best_guess(),
            round.prob(o.sender),
            posterior,
        ));
    }
    if verdicts.is_empty() {
        return Err(Error::BadInput("no delivered messages to attack".into()));
    }
    // the report promises message-id order; `originations` usually
    // arrives sorted already, but callers replaying merged or multi-epoch
    // traces may not keep it that way
    verdicts.sort_by_key(|v| v.msg);
    Ok(aggregate(verdicts))
}

/// Builds the aggregate report from per-message verdicts (already in
/// message-id order).
fn aggregate(verdicts: Vec<MessageVerdict>) -> AttackReport {
    let k = verdicts.len() as f64;
    let mean = verdicts.iter().map(|v| v.entropy_bits).sum::<f64>() / k;
    let var = verdicts
        .iter()
        .map(|v| (v.entropy_bits - mean).powi(2))
        .sum::<f64>()
        / k;
    AttackReport {
        empirical_h_star: mean,
        std_error: (var / k).sqrt(),
        identification_rate: verdicts.iter().filter(|v| v.identified).count() as f64 / k,
        mean_true_sender_prob: verdicts.iter().map(|v| v.true_sender_prob).sum::<f64>() / k,
        verdicts,
    }
}

/// One epoch of a multi-round trace, as an engine hands it to the
/// intersection adversary.
///
/// Node ids in `trace` and `originations` live in the epoch's *local*
/// space `0..view.n()` (the compacted active set); `view` carries the
/// local↔universe mapping. Message ids are **session ids**: the same
/// `MsgId` across epochs means the same persistent sender–receiver
/// session, which is exactly the correlation the intersection attack
/// exploits.
#[derive(Debug, Clone, Copy)]
pub struct EpochTrace<'a> {
    /// The realized epoch (active set + compromised set, universe ids).
    pub view: &'a EpochView,
    /// The epoch's local system model (`n = view.n()`, same `c`).
    pub model: &'a SystemModel,
    /// The strategy in force this epoch.
    pub dist: &'a PathLengthDist,
    /// Link records in local node ids.
    pub trace: &'a [TransferRecord],
    /// Ground-truth originations (local sender ids, session-id messages).
    pub originations: &'a [Origination],
}

/// Outcome of the intersection attack: the final cumulative report plus
/// the per-epoch anonymity-decay curve.
#[derive(Debug, Clone)]
pub struct IntersectionOutcome {
    /// Per-session cumulative verdicts (posteriors over the *universe*),
    /// in session-id order, aggregated like a one-shot [`AttackReport`].
    pub report: AttackReport,
    /// Cumulative anonymity statistics after each epoch.
    pub decay: DecayCurve,
}

/// The long-term intersection attack: folds every epoch's per-session
/// posterior into a cumulative posterior over the `universe` member
/// nodes and reports the anonymity decay.
///
/// Per epoch, the adversary reconstructs each session's observation from
/// that epoch's visible trace, computes the exact single-round posterior
/// (in the epoch's local space, closed form) and folds it into the
/// session's [`IntersectionPosterior`]: offline nodes get zero mass — the
/// churn half of the attack — through the epoch's [`EpochZeroes`], which
/// every session shares. A session silent in an epoch (offline sender,
/// undelivered message) folds nothing that round.
///
/// # Errors
///
/// Returns [`Error::BadInput`] when `rounds` is empty, an epoch's model
/// disagrees with its view, a session's ground-truth sender changes
/// between epochs, or no session was ever observed; propagates
/// posterior-computation failures like [`attack_trace`].
pub fn intersection_attack(
    universe: usize,
    rounds: &[EpochTrace<'_>],
) -> Result<IntersectionOutcome> {
    if rounds.is_empty() {
        return Err(Error::BadInput("no epochs to attack".into()));
    }
    // session id -> (ground-truth universe sender, cumulative posterior)
    let mut sessions: BTreeMap<MsgId, (NodeId, IntersectionPosterior)> = BTreeMap::new();
    let mut per_epoch = Vec::with_capacity(rounds.len());
    for round in rounds {
        let view = round.view;
        if round.model.n() != view.n() || round.model.c() != view.compromised.len() {
            return Err(Error::BadInput(format!(
                "epoch {} model (n={}, c={}) disagrees with its view ({} active, {} compromised)",
                view.epoch + 1,
                round.model.n(),
                round.model.c(),
                view.n(),
                view.compromised.len()
            )));
        }
        let adversary = Adversary::new(view.n(), &view.local_compromised_ids())?;
        let observations = adversary.reconstruct_all(round.trace);
        let zeroes = EpochZeroes::new(view, universe);
        // one workspace per epoch, shared by every session this round —
        // built lazily so rounds with nothing delivered build nothing
        let mut workspace: Option<FoldWorkspace> = None;
        for o in round.originations {
            if o.sender >= view.n() {
                return Err(Error::BadInput(format!(
                    "epoch {} origination names local sender {} (n_e={})",
                    view.epoch + 1,
                    o.sender,
                    view.n()
                )));
            }
            let truth = view.active[o.sender];
            let (expected, acc) = sessions
                .entry(o.msg)
                .or_insert_with(|| (truth, IntersectionPosterior::new(universe)));
            if *expected != truth {
                return Err(Error::BadInput(format!(
                    "session {:?} changed senders between epochs ({} vs {truth}): \
                     sessions must be persistent",
                    o.msg, *expected
                )));
            }
            let Some(obs) = observations.get(&o.msg) else {
                continue; // undelivered within this epoch's trace
            };
            let wrap = |e: anonroute_core::Error| {
                Error::BadInput(format!(
                    "posterior failed for {:?} in epoch {}: {e}",
                    o.msg,
                    view.epoch + 1
                ))
            };
            if workspace.is_none() {
                workspace = Some(FoldWorkspace::new(round.model, round.dist).map_err(wrap)?);
            }
            let posterior = workspace
                .as_ref()
                .expect("workspace was just initialized")
                .round(obs, adversary.compromised())
                .map_err(wrap)?;
            acc.fold_round(&posterior, &zeroes).map_err(wrap)?;
        }
        if sessions.is_empty() {
            return Err(Error::BadInput("no sessions observed so far".into()));
        }
        per_epoch.push(epoch_stat(view.epoch + 1, &sessions));
    }
    let verdicts: Vec<MessageVerdict> = sessions
        .into_iter() // BTreeMap iteration: session-id order by construction
        .map(|(msg, (truth, acc))| {
            let (entropy, guess, p_truth) = (acc.entropy_bits(), acc.best_guess(), acc.prob(truth));
            MessageVerdict::new(msg, truth, entropy, guess, p_truth, acc)
        })
        .collect();
    Ok(IntersectionOutcome {
        report: aggregate(verdicts),
        decay: DecayCurve { per_epoch },
    })
}

/// Aggregates the cumulative state of every known session after one
/// more epoch has been folded.
fn epoch_stat(
    epoch: usize,
    sessions: &BTreeMap<MsgId, (NodeId, IntersectionPosterior)>,
) -> EpochStat {
    let k = sessions.len() as f64;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let mut support = 0.0;
    let mut identified = 0usize;
    for (truth, acc) in sessions.values() {
        let h = acc.entropy_bits();
        sum += h;
        sum_sq += h * h;
        support += acc.support() as f64;
        let (guess, p) = acc.best_guess();
        if guess == *truth && p > 0.999_999 {
            identified += 1;
        }
    }
    let mean = sum / k;
    let var = (sum_sq / k - mean * mean).max(0.0);
    EpochStat {
        epoch,
        mean_entropy_bits: mean,
        std_error: (var / k).sqrt(),
        identification_rate: identified as f64 / k,
        mean_support: support / k,
        sessions: sessions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonroute_core::{engine, PathKind};
    use anonroute_protocols::crowds::crowd;
    use anonroute_protocols::onion_routing::onion_network;
    use anonroute_protocols::RouteSampler;
    use anonroute_sim::{LatencyModel, SimTime, Simulation};

    #[test]
    fn empirical_anonymity_matches_exact_engine_for_onions() {
        let n = 30;
        let c = 1;
        let dist = PathLengthDist::uniform(1, 6).unwrap();
        let model = SystemModel::new(n, c).unwrap();
        let exact = engine::anonymity_degree(&model, &dist).unwrap();

        let sampler = RouteSampler::new(n, dist.clone(), PathKind::Simple).unwrap();
        let nodes = onion_network(n, &sampler, 2048, b"attack-test").unwrap();
        let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 100, hi: 900 }, 3);
        // senders must be uniform (the model's prior)
        let mut salt = 0u64;
        for i in 0..3000u64 {
            salt = salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let sender = (salt >> 33) as usize % n;
            sim.schedule_origination(SimTime::from_micros(i * 50), sender, vec![0u8; 8]);
        }
        sim.run();

        let adversary = Adversary::new(n, &[n - 1]).unwrap();
        let report =
            attack_trace(&adversary, &model, &dist, sim.trace(), sim.originations()).unwrap();
        let (lo, hi) = report.ci95();
        assert!(
            (lo - 0.05..=hi + 0.05).contains(&exact),
            "exact {exact} outside empirical CI [{lo}, {hi}] (mean {})",
            report.empirical_h_star
        );
    }

    #[test]
    fn empirical_anonymity_matches_exact_engine_for_crowds() {
        let n = 20;
        let pf = 0.6;
        let lmax = 40; // truncation far in the geometric tail
        let dist = PathLengthDist::geometric(pf, lmax).unwrap();
        let model = SystemModel::with_path_kind(n, 1, PathKind::Cyclic).unwrap();
        let exact = engine::anonymity_degree(&model, &dist).unwrap();

        let mut sim = Simulation::new(crowd(n, pf).unwrap(), LatencyModel::Constant(100), 8);
        let mut salt = 7u64;
        for i in 0..3000u64 {
            salt = salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let sender = (salt >> 33) as usize % n;
            sim.schedule_origination(SimTime::from_micros(i * 1000), sender, vec![1]);
        }
        sim.run();

        let adversary = Adversary::new(n, &[0]).unwrap();
        let report =
            attack_trace(&adversary, &model, &dist, sim.trace(), sim.originations()).unwrap();
        let (lo, hi) = report.ci95();
        assert!(
            (lo - 0.08..=hi + 0.08).contains(&exact),
            "exact {exact} outside empirical CI [{lo}, {hi}] (mean {})",
            report.empirical_h_star
        );
    }

    #[test]
    fn compromised_first_hop_identifies_sender_with_fixed_length_one() {
        let n = 10;
        let dist = PathLengthDist::fixed(1);
        let model = SystemModel::new(n, 1).unwrap();
        let sampler = RouteSampler::new(n, dist.clone(), PathKind::Simple).unwrap();
        let nodes = onion_network(n, &sampler, 1024, b"id-test").unwrap();
        let mut sim = Simulation::new(nodes, LatencyModel::Constant(10), 5);
        for i in 0..200u64 {
            sim.schedule_origination(SimTime::from_micros(i * 100), (i % 10) as usize, vec![]);
        }
        sim.run();
        let adversary = Adversary::new(n, &[9]).unwrap();
        let report =
            attack_trace(&adversary, &model, &dist, sim.trace(), sim.originations()).unwrap();
        // whenever node 9 was the single intermediate (or the sender), the
        // sender is fully identified; that's 2/10 of messages in expectation
        assert!(report.identification_rate > 0.08);
        assert!(report.identification_rate < 0.40);
        // scoring sanity
        assert!(report.mean_true_sender_prob > 1.0 / n as f64);
    }

    #[test]
    fn mismatched_adversary_and_model_are_rejected() {
        let model = SystemModel::new(10, 2).unwrap();
        let adversary = Adversary::new(10, &[1]).unwrap();
        let dist = PathLengthDist::fixed(1);
        assert!(attack_trace(&adversary, &model, &dist, &[], &[]).is_err());
    }

    /// Synthetic single-message trace along `path`, using `msg` as id.
    fn trace_for(msg: MsgId, sender: NodeId, path: &[NodeId]) -> Vec<TransferRecord> {
        use anonroute_sim::{Endpoint, SimTime};
        let mut t = Vec::new();
        let mut from = Endpoint::Node(sender);
        for (k, &x) in path.iter().enumerate() {
            t.push(TransferRecord {
                time: SimTime::from_micros(msg.0 * 1000 + (k as u64 + 1) * 10),
                from,
                to: Endpoint::Node(x),
                msg,
            });
            from = Endpoint::Node(x);
        }
        t.push(TransferRecord {
            time: SimTime::from_micros(msg.0 * 1000 + (path.len() as u64 + 1) * 10),
            from,
            to: Endpoint::Receiver,
            msg,
        });
        t
    }

    #[test]
    fn attack_trace_verdicts_are_in_message_id_order_even_for_shuffled_originations() {
        use anonroute_sim::SimTime;
        let n = 8;
        let model = SystemModel::new(n, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 2).unwrap();
        let adversary = Adversary::new(n, &[7]).unwrap();
        let mut trace = Vec::new();
        for (msg, sender, path) in [
            (MsgId(2), 0, vec![1, 2]),
            (MsgId(0), 3, vec![4]),
            (MsgId(1), 5, vec![7, 2]),
        ] {
            trace.extend(trace_for(msg, sender, &path));
        }
        // originations deliberately out of message-id order
        let originations = vec![
            Origination {
                time: SimTime::ZERO,
                sender: 0,
                msg: MsgId(2),
            },
            Origination {
                time: SimTime::ZERO,
                sender: 5,
                msg: MsgId(1),
            },
            Origination {
                time: SimTime::ZERO,
                sender: 3,
                msg: MsgId(0),
            },
        ];
        let report = attack_trace(&adversary, &model, &dist, &trace, &originations).unwrap();
        let ids: Vec<u64> = report.verdicts.iter().map(|v| v.msg.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "docs promise message-id order");
    }

    /// A two-epoch fixture over a 6-node universe without churn: every
    /// session sends in both epochs; the compromised node differs.
    fn two_epoch_views() -> (EpochView, EpochView) {
        let e0 = EpochView {
            epoch: 0,
            active: (0..6).collect(),
            compromised: vec![5],
        };
        let e1 = EpochView {
            epoch: 1,
            active: (0..6).collect(),
            compromised: vec![4],
        };
        (e0, e1)
    }

    #[test]
    fn single_epoch_intersection_is_bit_identical_to_attack_trace() {
        use anonroute_sim::SimTime;
        let n = 6;
        let model = SystemModel::new(n, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 3).unwrap();
        let (view, _) = two_epoch_views();
        let mut trace = Vec::new();
        let mut originations = Vec::new();
        for (msg, sender, path) in [
            (MsgId(0), 0, vec![1, 2]),
            (MsgId(1), 2, vec![5, 3]),
            (MsgId(2), 4, vec![1]),
        ] {
            trace.extend(trace_for(msg, sender, &path));
            originations.push(Origination {
                time: SimTime::ZERO,
                sender,
                msg,
            });
        }
        let adversary = Adversary::new(n, &[5]).unwrap();
        let one_shot = attack_trace(&adversary, &model, &dist, &trace, &originations).unwrap();
        let outcome = intersection_attack(
            n,
            &[EpochTrace {
                view: &view,
                model: &model,
                dist: &dist,
                trace: &trace,
                originations: &originations,
            }],
        )
        .unwrap();
        assert_eq!(outcome.report, one_shot, "single epoch ≡ one-shot, bitwise");
        assert_eq!(outcome.decay.per_epoch.len(), 1);
        assert_eq!(
            outcome.decay.first().mean_entropy_bits,
            one_shot.empirical_h_star
        );
    }

    #[test]
    fn intersection_verdicts_stay_in_session_order_across_epochs() {
        use anonroute_sim::SimTime;
        let n = 6;
        let model = SystemModel::new(n, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 2).unwrap();
        let (v0, v1) = two_epoch_views();
        // epoch traces list sessions in *different* shuffled orders
        let plan0 = [
            (MsgId(2), 0, vec![1]),
            (MsgId(0), 1, vec![3, 2]),
            (MsgId(1), 3, vec![2]),
        ];
        let plan1 = [
            (MsgId(1), 3, vec![0, 1]),
            (MsgId(2), 0, vec![2]),
            (MsgId(0), 1, vec![5, 3]),
        ];
        let build = |plan: &[(MsgId, NodeId, Vec<NodeId>)]| {
            let mut trace = Vec::new();
            let mut orig = Vec::new();
            for (msg, sender, path) in plan {
                trace.extend(trace_for(*msg, *sender, path));
                orig.push(Origination {
                    time: SimTime::ZERO,
                    sender: *sender,
                    msg: *msg,
                });
            }
            (trace, orig)
        };
        let (t0, o0) = build(&plan0);
        let (t1, o1) = build(&plan1);
        let outcome = intersection_attack(
            n,
            &[
                EpochTrace {
                    view: &v0,
                    model: &model,
                    dist: &dist,
                    trace: &t0,
                    originations: &o0,
                },
                EpochTrace {
                    view: &v1,
                    model: &model,
                    dist: &dist,
                    trace: &t1,
                    originations: &o1,
                },
            ],
        )
        .unwrap();
        let ids: Vec<u64> = outcome.report.verdicts.iter().map(|v| v.msg.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "intersection merge must keep id order");
        assert_eq!(outcome.decay.per_epoch.len(), 2);
        // more epochs can only shrink the candidate support
        assert!(outcome.decay.last().mean_support <= outcome.decay.first().mean_support);
    }

    #[test]
    fn intersection_excludes_churned_out_candidates() {
        use anonroute_sim::SimTime;
        let n = 6;
        let dist = PathLengthDist::uniform(1, 2).unwrap();
        let model0 = SystemModel::new(6, 1).unwrap();
        let v0 = EpochView {
            epoch: 0,
            active: (0..6).collect(),
            compromised: vec![5],
        };
        // epoch 2: nodes 3 and 4 churn out; locals are [0, 1, 2, 5]
        let v1 = EpochView {
            epoch: 1,
            active: vec![0, 1, 2, 5],
            compromised: vec![5],
        };
        let model1 = SystemModel::new(4, 1).unwrap();
        // session 0: sender 0 (universe) both epochs
        let t0 = trace_for(MsgId(0), 0, &[1, 2]);
        let o0 = vec![Origination {
            time: SimTime::ZERO,
            sender: 0,
            msg: MsgId(0),
        }];
        let t1 = trace_for(MsgId(0), 0, &[1]); // local ids: 0->0, 1->1
        let o1 = vec![Origination {
            time: SimTime::ZERO,
            sender: 0,
            msg: MsgId(0),
        }];
        let outcome = intersection_attack(
            n,
            &[
                EpochTrace {
                    view: &v0,
                    model: &model0,
                    dist: &dist,
                    trace: &t0,
                    originations: &o0,
                },
                EpochTrace {
                    view: &v1,
                    model: &model1,
                    dist: &dist,
                    trace: &t1,
                    originations: &o1,
                },
            ],
        )
        .unwrap();
        let verdict = &outcome.report.verdicts[0];
        let posterior = verdict.posterior();
        assert_eq!(posterior[3], 0.0, "offline node cannot be the sender");
        assert_eq!(posterior[4], 0.0, "offline node cannot be the sender");
        assert!(posterior[0] > 0.0, "the true sender survives");
        assert!((posterior.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(
            outcome.decay.last().mean_support < outcome.decay.first().mean_support,
            "churn shrinks the anonymity set"
        );
    }

    #[test]
    fn intersection_rejects_bad_inputs() {
        use anonroute_sim::SimTime;
        let dist = PathLengthDist::fixed(1);
        let model = SystemModel::new(6, 1).unwrap();
        let (v0, v1) = two_epoch_views();
        assert!(intersection_attack(6, &[]).is_err(), "no epochs");
        // model size disagrees with the view
        let small = SystemModel::new(4, 1).unwrap();
        let t = trace_for(MsgId(0), 0, &[1]);
        let o = vec![Origination {
            time: SimTime::ZERO,
            sender: 0,
            msg: MsgId(0),
        }];
        assert!(intersection_attack(
            6,
            &[EpochTrace {
                view: &v0,
                model: &small,
                dist: &dist,
                trace: &t,
                originations: &o,
            }]
        )
        .is_err());
        // a session that changes senders between epochs is rejected
        let o_changed = vec![Origination {
            time: SimTime::ZERO,
            sender: 2,
            msg: MsgId(0),
        }];
        let t_changed = trace_for(MsgId(0), 2, &[1]);
        let err = intersection_attack(
            6,
            &[
                EpochTrace {
                    view: &v0,
                    model: &model,
                    dist: &dist,
                    trace: &t,
                    originations: &o,
                },
                EpochTrace {
                    view: &v1,
                    model: &model,
                    dist: &dist,
                    trace: &t_changed,
                    originations: &o_changed,
                },
            ],
        )
        .unwrap_err();
        assert!(err.to_string().contains("persistent"), "{err}");
    }
}
