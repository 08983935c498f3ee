//! # anonroute-protocols
//!
//! Executable implementations of the anonymous communication systems
//! surveyed in Section 2 of Guan et al. (ICDCS 2002), built on the
//! `anonroute-sim` discrete-event engine and the `anonroute-crypto`
//! onion substrate:
//!
//! * [`onion_routing::OnionNode`] — layered-encryption source routing
//!   (Onion Routing I/II, Freedom, PipeNet, depending on the configured
//!   [`route::RouteSampler`]);
//! * [`crowds::JondoNode`] — hop-by-hop probabilistic forwarding with
//!   cycles (Crowds);
//! * [`dcnet::DcNet`] — the non-rerouting dining-cryptographers baseline.
//!
//! Together with `anonroute_core::strategies`, each system's route
//! selection maps onto a path-length distribution whose anonymity degree
//! the core crate computes exactly; the `anonroute-adversary` crate closes
//! the loop by attacking these very simulations and checking that the
//! measured anonymity matches the analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crowds;
pub mod dcnet;
pub mod error;
pub mod onion_routing;
pub mod route;

pub use error::{Error, Result};
pub use route::RouteSampler;
