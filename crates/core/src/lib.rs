//! # anonroute-core
//!
//! Exact analysis and optimization of route-selection strategies for
//! rerouting-based anonymous communication systems, reproducing
//! *"An Optimal Strategy for Anonymous Communication Protocols"*
//! (Guan, Fu, Bettati, Zhao — ICDCS 2002).
//!
//! A rerouting-based system (Crowds, Onion Routing, Freedom, PipeNet,
//! mix networks, …) hides the sender of a message by forwarding it through
//! `l` intermediate nodes. Against a passive adversary that has compromised
//! `c` of the `n` member nodes plus the receiver, the system's protection is
//! measured by the **anonymity degree** `H*(S)`: the expected Shannon
//! entropy of the adversary's posterior over possible senders.
//!
//! This crate provides:
//!
//! * [`SystemModel`] / [`PathLengthDist`] — the clique system model and the
//!   path-length distributions that define a strategy;
//! * [`engine`] — exact closed-form computation of `H*(S)` for any `c`,
//!   both for simple and cyclic paths, per-event Bayesian posteriors, a
//!   Monte-Carlo estimator, and a brute-force validator;
//! * [`analytic`] — the paper's Theorems 1–3 as standalone closed forms;
//! * [`optimize`] — the paper's optimization problem (eqs. 15–17): find the
//!   path-length distribution maximizing `H*(S)`, optionally at a fixed
//!   expected path length (Figure 6);
//! * [`strategies`] — presets for the systems surveyed in Section 2.
//!
//! ## Quickstart
//!
//! ```
//! use anonroute_core::{engine, PathLengthDist, SystemModel};
//!
//! // 100 nodes, one compromised — the paper's evaluation setting.
//! let model = SystemModel::new(100, 1)?;
//!
//! // How anonymous is Onion Routing I's fixed five-hop strategy?
//! let onion = PathLengthDist::fixed(5);
//! let h = engine::anonymity_degree(&model, &onion)?;
//! assert!(h > 6.5 && h < 100f64.log2());
//! # Ok::<(), anonroute_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod dist;
pub mod engine;
pub mod epochs;
pub mod error;
pub mod mathutil;
pub mod metrics;
pub mod model;
pub mod optimize;
pub mod strategies;

pub use dist::PathLengthDist;
pub use epochs::{ChurnModel, EpochSchedule, EpochZeroes, IntersectionPosterior, RotationPolicy};
pub use error::{Error, Result};
pub use metrics::{AnonymityReport, SampledDegree};
pub use model::{PathKind, SystemModel};
