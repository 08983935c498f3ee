//! # anonroute
//!
//! A Rust reproduction of **"An Optimal Strategy for Anonymous
//! Communication Protocols"** (Yong Guan, Xinwen Fu, Riccardo Bettati,
//! Wei Zhao — ICDCS 2002): exact analysis of how rerouting path-length
//! strategies affect sender anonymity, an optimizer for the paper's
//! optimal-strategy problem, and a full simulation stack (network
//! simulator, onion crypto, protocol implementations, passive adversary)
//! to validate the analysis end to end.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] ([`anonroute_core`]) — system model, anonymity-degree
//!   engines, closed forms, optimizer, strategy presets;
//! * [`sim`] ([`anonroute_sim`]) — deterministic discrete-event network
//!   simulator;
//! * [`crypto`] ([`anonroute_crypto`]) — SHA-256 / HMAC / HKDF / ChaCha20
//!   / Poly1305 / X25519 and layered onion cells, from scratch;
//! * [`protocols`] ([`anonroute_protocols`]) — Crowds, Onion Routing,
//!   Freedom, PipeNet, and a DC-Net baseline;
//! * [`adversary`] ([`anonroute_adversary`]) — the paper's passive
//!   adversary: collection, correlation, Bayesian inference, Monte-Carlo
//!   anonymity estimation;
//! * [`campaign`] ([`anonroute_campaign`]) — declarative scenario grids
//!   executed on a thread pool with shared evaluator memoization and
//!   deterministic per-cell seeding;
//! * [`relay`] ([`anonroute_relay`]) — a real TCP relay network serving
//!   the onion circuits end to end: wire protocol, relay daemon,
//!   circuit-building client, and an in-process cluster harness whose
//!   link tap feeds the adversary;
//! * [`obs`] ([`anonroute_obs`]) — the observability layer: an atomic
//!   metrics registry with Prometheus text exposition plus a
//!   dependency-free HTTP endpoint serving `/metrics`, `/healthz`, and
//!   `/readyz` for relay daemons and campaign sweeps.
//!
//! ## Quickstart
//!
//! ```
//! use anonroute::prelude::*;
//!
//! // The paper's evaluation setting: 100 nodes, 1 compromised.
//! let model = SystemModel::new(100, 1)?;
//!
//! // Anonymity degree of a fixed 5-hop strategy (Onion Routing I)...
//! let fixed = engine::anonymity_degree(&model, &PathLengthDist::fixed(5))?;
//!
//! // ...and of the optimal variable-length strategy at the same cost.
//! let best = optimize::maximize_with_mean(&model, 50, 5.0)?;
//! assert!(best.h_star >= fixed);
//! # Ok::<(), anonroute_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use anonroute_adversary as adversary;
pub use anonroute_campaign as campaign;
pub use anonroute_core as core;
pub use anonroute_crypto as crypto;
pub use anonroute_obs as obs;
pub use anonroute_protocols as protocols;
pub use anonroute_relay as relay;
pub use anonroute_sim as sim;

/// Commonly used items in one import.
pub mod prelude {
    pub use anonroute_campaign::{CampaignConfig, EngineKind, ScenarioGrid, StrategySpec};
    pub use anonroute_core::engine;
    pub use anonroute_core::optimize;
    pub use anonroute_core::strategies;
    pub use anonroute_core::{AnonymityReport, Error, PathKind, PathLengthDist, SystemModel};
}
