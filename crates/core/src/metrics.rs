//! Aggregate anonymity metrics for evaluating and comparing strategies.

use crate::dist::PathLengthDist;
use crate::engine;
use crate::error::Result;
use crate::model::SystemModel;

/// A one-stop evaluation of a route-selection strategy against a system
/// model: the paper's anonymity degree plus the auxiliary quantities used
/// throughout its evaluation section.
///
/// # Examples
///
/// ```
/// use anonroute_core::{AnonymityReport, PathLengthDist, SystemModel};
///
/// let model = SystemModel::new(100, 1)?;
/// let report = AnonymityReport::evaluate(&model, &PathLengthDist::fixed(5))?;
/// assert!(report.h_star > 6.4);
/// assert!(report.normalized < 1.0);
/// assert_eq!(report.expected_path_length, 5.0);
/// # Ok::<(), anonroute_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnonymityReport {
    /// The anonymity degree `H*(S)` in bits (eq. 5 of the paper).
    pub h_star: f64,
    /// `H*(S) / log2(n)` — fraction of the ideal anonymity achieved.
    pub normalized: f64,
    /// Probability that the adversary identifies the sender outright.
    pub p_exposed: f64,
    /// Expected number of intermediate nodes — the latency/traffic
    /// overhead the strategy pays for its anonymity.
    pub expected_path_length: f64,
}

impl AnonymityReport {
    /// Evaluates `dist` under `model` using the exact engine for the
    /// model's path kind.
    ///
    /// # Errors
    ///
    /// Propagates engine validation errors.
    pub fn evaluate(model: &SystemModel, dist: &PathLengthDist) -> Result<Self> {
        let analysis = engine::analysis(model, dist)?;
        Ok(AnonymityReport {
            h_star: analysis.h_star,
            normalized: analysis.normalized(model),
            p_exposed: analysis.p_exposed,
            expected_path_length: dist.mean(),
        })
    }
}

/// A sampled estimate of an anonymity degree — the common shape of every
/// statistical measurement in the workspace (the core Monte-Carlo
/// estimator, the simulated-protocol attack, and live TCP cluster
/// measurements all reduce to one of these).
///
/// # Examples
///
/// ```
/// use anonroute_core::SampledDegree;
///
/// let est = SampledDegree { h_star: 4.31, std_error: 0.02, samples: 1000 };
/// let (lo, hi) = est.ci95();
/// assert!(lo < est.h_star && est.h_star < hi);
/// assert!(est.agrees_with(4.35, 4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampledDegree {
    /// Estimated anonymity degree in bits.
    pub h_star: f64,
    /// Standard error of the estimate.
    pub std_error: f64,
    /// Number of independent samples behind the estimate.
    pub samples: usize,
}

impl SampledDegree {
    /// Two-sided 95% confidence interval.
    pub fn ci95(&self) -> (f64, f64) {
        (
            self.h_star - 1.96 * self.std_error,
            self.h_star + 1.96 * self.std_error,
        )
    }

    /// Whether the estimate is within `sigmas` standard errors of a
    /// reference value (with a small absolute epsilon so exact agreement
    /// at zero variance still passes).
    pub fn agrees_with(&self, reference: f64, sigmas: f64) -> bool {
        (self.h_star - reference).abs() <= sigmas * self.std_error + 1e-9
    }
}

impl std::fmt::Display for SampledDegree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} bits (se {:.4}, {} samples)",
            self.h_star, self.std_error, self.samples
        )
    }
}

impl std::fmt::Display for AnonymityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "H*={:.4} bits ({:.1}% of ideal), P[exposed]={:.4}, E[len]={:.2}",
            self.h_star,
            self.normalized * 100.0,
            self.p_exposed,
            self.expected_path_length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_fields_are_consistent() {
        let model = SystemModel::new(50, 2).unwrap();
        let dist = PathLengthDist::uniform(2, 8).unwrap();
        let r = AnonymityReport::evaluate(&model, &dist).unwrap();
        assert!((r.normalized - r.h_star / 50f64.log2()).abs() < 1e-12);
        assert!((r.expected_path_length - 5.0).abs() < 1e-12);
        assert!(r.p_exposed >= 2.0 / 50.0 - 1e-12); // at least the compromised-sender mass
    }

    #[test]
    fn sampled_degree_interval_and_agreement() {
        let est = SampledDegree {
            h_star: 5.0,
            std_error: 0.1,
            samples: 400,
        };
        let (lo, hi) = est.ci95();
        assert!((lo - 4.804).abs() < 1e-12 && (hi - 5.196).abs() < 1e-12);
        assert!(est.agrees_with(5.3, 4.0));
        assert!(!est.agrees_with(5.5, 4.0));
        // zero variance: only (near-)exact agreement passes
        let exact = SampledDegree {
            h_star: 5.0,
            std_error: 0.0,
            samples: 1,
        };
        assert!(exact.agrees_with(5.0, 4.0));
        assert!(!exact.agrees_with(5.1, 4.0));
        assert!(exact.to_string().contains("1 samples"));
    }

    #[test]
    fn display_mentions_key_quantities() {
        let model = SystemModel::new(50, 1).unwrap();
        let r = AnonymityReport::evaluate(&model, &PathLengthDist::fixed(3)).unwrap();
        let s = r.to_string();
        assert!(s.contains("H*=") && s.contains("E[len]="));
    }
}
