//! # anonroute-adversary
//!
//! The paper's passive adversary (Section 4 of Guan et al., ICDCS 2002),
//! implemented against the `anonroute-sim` simulator:
//!
//! 1. **Collection** — agents at compromised nodes (plus the receiver)
//!    report `(time, predecessor, successor)` tuples; everything else in
//!    the simulator's omniscient trace is invisible to them
//!    ([`Adversary::visible`]).
//! 2. **Correlation & reconstruction** — per-message tuples are sorted by
//!    time and merged into the observation structure the analysis engines
//!    consume ([`Adversary::reconstruct`]).
//! 3. **Inference** — the exact Bayesian posterior `P(sender = i | E)`
//!    is computed for each message and scored against the ground truth
//!    ([`attack::attack_trace`]), yielding an *empirical* anonymity degree
//!    with confidence intervals that must match the closed-form `H*(S)`.
//! 4. **Intersection** — across epochs of a multi-round scenario, each
//!    persistent session's per-round posteriors are folded into one
//!    cumulative posterior ([`attack::intersection_attack`]), measuring
//!    how anonymity decays as the network churns and the compromised set
//!    rotates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod error;
pub mod predecessor;
pub mod reconstruct;

pub use attack::{
    attack_trace, attack_trace_with, intersection_attack, AttackReport, EpochTrace,
    IntersectionOutcome, MessageVerdict,
};
pub use error::{Error, Result};
pub use predecessor::{predecessor_attack, PredecessorOutcome, PredecessorTracker};
pub use reconstruct::{ground_truth_path, Adversary};
