//! Per-observation Bayesian sender inference — the computation of
//! `P(x0 = i | E)` that the paper delegates to its technical report [9].
//!
//! Given one concrete [`Observation`] and full knowledge of the strategy
//! (the path-length distribution) and of the compromised set, the adversary
//! assigns every member node a posterior probability of being the sender.
//! [`crate::engine::analysis`] aggregates the entropies of these posteriors
//! over all observation classes; this module computes a single posterior so
//! that a *simulated* adversary (the `anonroute-adversary` crate) can attack
//! individual messages.

use crate::dist::PathLengthDist;
use crate::engine::fold::{check_compromised_count, FoldWorkspace, RoundPosterior};
use crate::engine::observation::{Observation, Succ};
use crate::engine::simple::EndGap;
use crate::error::{Error, Result};
use crate::model::SystemModel;

/// Computes the posterior probability that each member node is the sender,
/// given one observation, for the model's path kind.
///
/// `compromised[i]` must describe the same compromised set that produced
/// the observation; its length must equal `model.n()`.
///
/// The returned vector has length `n` and sums to 1 (when the observation
/// is consistent with the model at all).
///
/// # Errors
///
/// Returns [`Error::InvalidObservation`] if the observation is structurally
/// inconsistent with the model (wrong vector lengths, honest nodes inside
/// runs, a compromised reported neighbour that should have reported itself,
/// or an observation of zero likelihood under the strategy).
pub fn sender_posterior(
    model: &SystemModel,
    dist: &PathLengthDist,
    obs: &Observation,
    compromised: &[bool],
) -> Result<Vec<f64>> {
    if compromised.len() != model.n() {
        return Err(Error::InvalidObservation(format!(
            "compromised vector has length {}, model has n={}",
            compromised.len(),
            model.n()
        )));
    }
    check_compromised_count(compromised, model.c())?;
    validate_structure(model.n(), obs, compromised)?;

    // Compromised sender: the origin agent saw everything.
    if let Some(s) = obs.origin {
        return Ok(RoundPosterior::sender_reported(compromised, s).posterior());
    }

    // One-shot path: build a throwaway workspace. Loops that evaluate many
    // observations against one (model, dist) pair should build a
    // `FoldWorkspace` once instead.
    Ok(FoldWorkspace::new(model, dist)?
        .round(obs, compromised)?
        .posterior())
}

/// Structural consistency checks shared by [`sender_posterior`] and
/// [`FoldWorkspace`]: id ranges, run composition, and boundary-merge
/// invariants over a model of `n` member nodes.
pub(crate) fn validate_structure(n: usize, obs: &Observation, compromised: &[bool]) -> Result<()> {
    let check = |id: usize| -> Result<()> {
        if id >= n {
            return Err(Error::InvalidObservation(format!(
                "node id {id} out of range (n={n})"
            )));
        }
        Ok(())
    };
    check(obs.receiver_pred)?;
    if let Some(o) = obs.origin {
        check(o)?;
        if !compromised[o] {
            return Err(Error::InvalidObservation(
                "origin reported by an honest node".into(),
            ));
        }
    }
    for run in &obs.runs {
        if run.is_empty() {
            return Err(Error::InvalidObservation("empty compromised run".into()));
        }
        check(run.pred)?;
        for &m in &run.nodes {
            check(m)?;
            if !compromised[m] {
                return Err(Error::InvalidObservation(format!(
                    "node {m} inside a run is not compromised"
                )));
            }
        }
        // A compromised predecessor is only possible when it is the sender
        // itself (the run starts at position 1 and the origin agent already
        // reported); otherwise adjacent compromised nodes merge into one run.
        if compromised[run.pred] && obs.origin != Some(run.pred) {
            return Err(Error::InvalidObservation(
                "a run's predecessor is compromised but was not merged into the run".into(),
            ));
        }
        if let Succ::Node(v) = run.succ {
            check(v)?;
            if compromised[v] {
                return Err(Error::InvalidObservation(
                    "a run's successor is compromised but was not merged into the run".into(),
                ));
            }
        }
    }
    if let Some(last) = obs.runs.last() {
        match last.succ {
            Succ::Receiver => {
                let tail = *last.nodes.last().expect("runs are nonempty");
                if obs.receiver_pred != tail {
                    return Err(Error::InvalidObservation(
                        "last run touches the receiver but receiver_pred disagrees".into(),
                    ));
                }
            }
            Succ::Node(_) => {
                if compromised[obs.receiver_pred] {
                    return Err(Error::InvalidObservation(
                        "receiver's predecessor is compromised but reported no run".into(),
                    ));
                }
            }
        }
    } else if compromised[obs.receiver_pred] && obs.origin.is_none() {
        return Err(Error::InvalidObservation(
            "receiver's predecessor is compromised but no run was reported".into(),
        ));
    }
    Ok(())
}

/// Extracts the identity-free signature pieces from a concrete observation
/// with at least one run: `(sightings, runs, unit_gaps, end)`.
pub(crate) fn signature_of(obs: &Observation) -> (usize, usize, usize, EndGap) {
    let s = obs.compromised_sightings();
    let m = obs.runs.len();
    let mut unit_gaps = 0;
    for w in obs.runs.windows(2) {
        if let Succ::Node(v) = w[0].succ {
            if w[1].pred == v {
                unit_gaps += 1;
            }
        }
    }
    let end = match obs.runs.last().expect("caller ensures m >= 1").succ {
        Succ::Receiver => EndGap::Touching,
        Succ::Node(v) if v == obs.receiver_pred => EndGap::One,
        Succ::Node(_) => EndGap::TwoPlus,
    };
    (s, m, unit_gaps, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::observation::{observe, RunObservation};

    fn comp(n: usize, ids: &[usize]) -> Vec<bool> {
        let mut v = vec![false; n];
        for &i in ids {
            v[i] = true;
        }
        v
    }

    #[test]
    fn compromised_sender_pins_posterior() {
        let model = SystemModel::new(8, 1).unwrap();
        let dist = PathLengthDist::uniform(0, 3).unwrap();
        let compromised = comp(8, &[0]);
        let obs = observe(0, &[1, 2], &compromised);
        let post = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
        assert_eq!(post[0], 1.0);
        assert!(post[1..].iter().all(|&p| p == 0.0));
    }

    #[test]
    fn first_hop_compromised_with_fixed_length_one_identifies_sender() {
        let model = SystemModel::new(8, 1).unwrap();
        let dist = PathLengthDist::fixed(1);
        let compromised = comp(8, &[7]);
        let obs = observe(2, &[7], &compromised);
        let post = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
        assert!((post[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn posterior_sums_to_one_and_excludes_compromised() {
        let model = SystemModel::new(10, 2).unwrap();
        let dist = PathLengthDist::uniform(1, 5).unwrap();
        let compromised = comp(10, &[3, 7]);
        let obs = observe(0, &[1, 3, 4, 2], &compromised);
        let post = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
        let total: f64 = post.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(post[3], 0.0);
        assert_eq!(post[7], 0.0);
        // observed honest intermediates (1: pred of run, 4: succ, 2: recv pred)
        assert_eq!(post[4], 0.0);
        assert_eq!(post[2], 0.0);
        // the run's predecessor keeps mass: it might be the sender
        assert!(post[1] > 0.0);
        // the true sender keeps mass
        assert!(post[0] > 0.0);
    }

    #[test]
    fn clean_observation_spreads_over_unobserved() {
        let model = SystemModel::new(6, 1).unwrap();
        let dist = PathLengthDist::fixed(2);
        let compromised = comp(6, &[5]);
        let obs = observe(0, &[1, 2], &compromised);
        let post = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
        // receiver_pred = 2 is an intermediate (l = 2 fixed), cannot be sender
        assert_eq!(post[2], 0.0);
        assert_eq!(post[5], 0.0);
        // remaining honest: 0, 1, 3, 4 — all equally likely
        // (node 1 was never observed: only the receiver reports, seeing node 2)
        for i in [0, 1, 3, 4] {
            assert!((post[i] - 0.25).abs() < 1e-12, "node {i}: {}", post[i]);
        }
    }

    #[test]
    fn clean_observation_with_zero_length_support_suspects_receiver_pred() {
        let model = SystemModel::new(6, 1).unwrap();
        let dist = PathLengthDist::uniform(0, 2).unwrap();
        let compromised = comp(6, &[5]);
        let obs = observe(3, &[], &compromised);
        let post = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
        // node 3 (receiver's predecessor) is the most likely sender
        for i in [0, 1, 2, 4] {
            assert!(post[3] > post[i]);
        }
    }

    #[test]
    fn rejects_wrong_compromised_vector() {
        let model = SystemModel::new(6, 1).unwrap();
        let dist = PathLengthDist::fixed(1);
        let compromised = comp(6, &[5]);
        let obs = observe(0, &[5], &compromised);
        assert!(sender_posterior(&model, &dist, &obs, &comp(6, &[1, 2])).is_err());
        assert!(sender_posterior(&model, &dist, &obs, &comp(7, &[5])).is_err());
    }

    #[test]
    fn rejects_structurally_invalid_observation() {
        let model = SystemModel::new(6, 2).unwrap();
        let dist = PathLengthDist::fixed(2);
        let compromised = comp(6, &[4, 5]);
        // honest node inside a run
        let obs = Observation {
            origin: None,
            runs: vec![RunObservation {
                nodes: vec![1],
                pred: 0,
                succ: Succ::Receiver,
            }],
            receiver_pred: 1,
        };
        assert!(sender_posterior(&model, &dist, &obs, &compromised).is_err());
        // run predecessor is compromised (should have merged)
        let obs = Observation {
            origin: None,
            runs: vec![RunObservation {
                nodes: vec![5],
                pred: 4,
                succ: Succ::Receiver,
            }],
            receiver_pred: 5,
        };
        assert!(sender_posterior(&model, &dist, &obs, &compromised).is_err());
    }

    #[test]
    fn rejects_zero_likelihood_observation() {
        let model = SystemModel::new(6, 1).unwrap();
        // strategy says length exactly 1, but we observe a run mid-path
        let dist = PathLengthDist::fixed(1);
        let compromised = comp(6, &[5]);
        let obs = observe(0, &[5, 1], &compromised); // length-2 path
        assert!(sender_posterior(&model, &dist, &obs, &compromised).is_err());
    }
}
