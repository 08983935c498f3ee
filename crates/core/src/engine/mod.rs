//! Anonymity-degree engines: exact closed forms, per-event Bayesian
//! posteriors, Monte-Carlo estimation, and a brute-force validator.
//!
//! The central quantity is the paper's *anonymity degree*
//! `H*(S) = Σ_E P(E) · H(P(sender | E))` (eq. 5): the expected Shannon
//! entropy of the adversary's posterior over senders. Use
//! [`anonymity_degree`] for the number, [`analysis`] for the per-class
//! decomposition, [`sender_posterior`] to attack a single observation, and
//! [`estimate_anonymity_degree`] for seeded Monte-Carlo estimates.

pub mod brute;
mod cache;
pub mod cyclic;
pub(crate) mod fold;
mod montecarlo;
mod observation;
mod posterior;
pub mod simple;

pub use cache::{CacheStats, EvaluatorCache, SharedEvaluator, SharedOutcome, SharedWorkspace};
pub use fold::{FoldWorkspace, RoundPosterior};
pub use montecarlo::{
    estimate_anonymity_degree, sample_path, sample_path_into, MonteCarloEstimate,
};
pub use observation::{observe, NodeId, Observation, RunObservation, Succ};
pub use posterior::sender_posterior;
pub use simple::{AnonymityAnalysis, ClassReport, EndGap, Evaluator, ObservationClass};

use crate::dist::PathLengthDist;
use crate::error::Result;
use crate::model::{PathKind, SystemModel};

/// Computes the exact anonymity degree `H*(S)` in bits for the model's
/// path kind.
///
/// # Examples
///
/// ```
/// use anonroute_core::{engine, PathLengthDist, SystemModel};
///
/// let model = SystemModel::new(100, 1)?;
/// let h1 = engine::anonymity_degree(&model, &PathLengthDist::fixed(1))?;
/// let h2 = engine::anonymity_degree(&model, &PathLengthDist::fixed(2))?;
/// // the paper's short-path effect: lengths 1 and 2 are equally anonymous
/// assert!((h1 - h2).abs() < 1e-12);
/// # Ok::<(), anonroute_core::Error>(())
/// ```
///
/// # Errors
///
/// Returns an error when the distribution is incompatible with the model
/// (e.g. simple paths longer than `n - 1`).
pub fn anonymity_degree(model: &SystemModel, dist: &PathLengthDist) -> Result<f64> {
    match model.path_kind() {
        PathKind::Simple => simple::anonymity_degree(model, dist),
        PathKind::Cyclic => cyclic::anonymity_degree(model, dist),
    }
}

/// Computes the full observation-class decomposition of `H*(S)` for the
/// model's path kind.
///
/// # Errors
///
/// Same conditions as [`anonymity_degree`].
pub fn analysis(model: &SystemModel, dist: &PathLengthDist) -> Result<AnonymityAnalysis> {
    match model.path_kind() {
        PathKind::Simple => simple::analysis(model, dist),
        PathKind::Cyclic => cyclic::analysis(model, dist),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_respects_path_kind() {
        let dist = PathLengthDist::fixed(3);
        let simple_model = SystemModel::new(12, 2).unwrap();
        let cyclic_model = SystemModel::with_path_kind(12, 2, PathKind::Cyclic).unwrap();
        let hs = anonymity_degree(&simple_model, &dist).unwrap();
        let hc = anonymity_degree(&cyclic_model, &dist).unwrap();
        assert!((hs - hc).abs() > 1e-6, "kinds should differ: {hs} vs {hc}");
        assert!((analysis(&simple_model, &dist).unwrap().h_star - hs).abs() < 1e-15);
        assert!((analysis(&cyclic_model, &dist).unwrap().h_star - hc).abs() < 1e-15);
    }
}
