//! # anonroute-sim
//!
//! A deterministic discrete-event simulator for clique-topology anonymous
//! communication systems — the substrate on which the `anonroute`
//! reproduction of Guan et al. (ICDCS 2002) runs its protocols.
//!
//! The simulator is deliberately protocol-agnostic: member nodes implement
//! [`NodeBehavior`] (the protocol logic — Crowds forwarding, onion peeling,
//! … — lives in `anonroute-protocols`), while this crate
//! provides:
//!
//! * a seeded **discrete-event core** ([`des::DesCore`]): one monotone
//!   clock, one per-simulation PRNG, and an
//!   [`event::EventQueue`] with deterministic `(time, sequence)`
//!   ordering — the dslab-style kernel that lets one process simulate
//!   10⁵–10⁶ member nodes;
//! * the **protocol engine** ([`Simulation`]) on top of it: virtual
//!   time, link-latency models, per-hop queueing delay, timers, and a
//!   complete ground-truth [`TransferRecord`] trace (what an omniscient
//!   observer would see; the `anonroute-adversary` crate filters it down
//!   to the threat model);
//! * **workload generators** ([`traffic`]): Poisson and fixed-interval
//!   arrivals with uniformly random senders, matching the paper's a-priori
//!   sender distribution; streamed cover/Poisson processes
//!   ([`simulation::TrafficProcess`]) that cost O(1) queue memory; and
//!   persistent multi-epoch sessions ([`traffic::SessionTraffic`]) for
//!   intersection-attack workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod des;
pub mod event;
pub mod latency;
pub mod message;
pub mod node;
pub mod simulation;
pub mod time;
pub mod traffic;

pub use des::DesCore;
pub use event::EventQueue;
pub use latency::LatencyModel;
pub use message::{Delivery, Endpoint, Message, MsgId, NodeId, TransferRecord};
pub use node::{Action, Ctx, NodeBehavior};
pub use simulation::{Origination, Simulation, TrafficProcess};
pub use time::SimTime;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::des::DesCore;
    pub use crate::event::EventQueue;
    pub use crate::latency::LatencyModel;
    pub use crate::message::{Delivery, Endpoint, Message, MsgId, NodeId, TransferRecord};
    pub use crate::node::{Action, Ctx, NodeBehavior};
    pub use crate::simulation::{Origination, Simulation, TrafficProcess};
    pub use crate::time::SimTime;
    pub use crate::traffic::{
        Arrival, CoverTraffic, PoissonProcess, PoissonTraffic, SessionTraffic, UniformProcess,
        UniformTraffic,
    };
}
