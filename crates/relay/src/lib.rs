//! # anonroute-relay
//!
//! A real TCP relay network serving the paper's onion circuits end to
//! end. The rest of the workspace validates Guan et al.'s optimal
//! path-length strategies inside in-process simulations; this crate runs
//! the same strategies over genuine sockets (`std::net`, one thread per
//! connection — no external dependencies):
//!
//! * [`wire`] — a length-prefixed frame protocol carrying fixed-size
//!   onion cells plus delivery frames;
//! * [`circuit`] — onion layers keyed by a zero-round-trip X25519
//!   handshake ([`anonroute_crypto::handshake`]) instead of pre-shared
//!   keys, with the per-hop ephemeral public key in the clear;
//! * [`directory`] — the network map (addresses + static public keys);
//! * [`daemon`] — the relay node: accept, peel one layer
//!   ([`anonroute_crypto::onion`]), re-frame, forward;
//! * [`client`] — samples circuits via
//!   [`anonroute_protocols::RouteSampler`] from any strategy (including
//!   the optimizer's optimal distribution) and sends payloads;
//! * [`receiver`] — the destination server terminating every circuit;
//! * [`tap`] — the per-link observation tap whose records are simulator
//!   [`anonroute_sim::TransferRecord`]s, directly consumable by
//!   `anonroute-adversary`;
//! * [`cluster`] — the in-process harness: one run boots N relays on
//!   `127.0.0.1` ephemeral ports, drives seeded traffic from
//!   [`anonroute_sim::traffic`] through them, and tears them down with a
//!   deadline — so the measured anonymity degree of live TCP traffic is
//!   checked against `anonroute-core`'s analytic prediction;
//! * [`budget`] — relay-slot budgeting so many concurrent clusters (a
//!   campaign sweep's live cells) share the loopback without exhausting
//!   ports or file descriptors;
//! * [`authority`] — the directory authority: signed, versioned relay
//!   descriptors, a mergeable [`authority::NetworkView`], a snapshot
//!   service with lease expiry, and real [`authority::MembershipEvent`]s
//!   feeding `anonroute_core::epochs`;
//! * [`gossip`] — peer-to-peer topology maintenance: relays push
//!   snapshots to random peers and drop departed ones via dial health;
//! * [`obs`] — cluster run phases and process-wide aggregate metrics
//!   over all cluster runs, registered in `anonroute-obs`'s global
//!   registry.
//!
//! The relay daemon, the receiver and the directory authority share one
//! server lifecycle: one thread per connection up to a connection cap
//! ([`max_connections_for`] the network's size, at least
//! [`MAX_CONNECTIONS`] where that size changes), where a new connection
//! displaces the idlest one, reads that poll a stop flag every 50 ms,
//! and a shutdown that joins with a deadline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authority;
pub mod budget;
pub mod circuit;
pub mod client;
pub mod cluster;
pub mod daemon;
pub mod directory;
pub mod error;
pub mod gossip;
pub mod obs;
pub mod receiver;
pub mod tap;
pub mod wire;
mod workers;

#[cfg(test)]
mod fault;

pub use authority::{
    AuthorityClient, AuthorityServer, MembershipChange, MembershipEvent, NetworkView,
    RelayDescriptor, SignedDescriptor,
};
pub use budget::{BudgetPermit, ClusterBudget, DEFAULT_CLUSTER_SLOTS};
pub use circuit::DEFAULT_CELL_SIZE;
pub use client::Client;
pub use cluster::{
    cluster_identity, run_cluster, run_cluster_budgeted_observed, ClusterConfig, ClusterOutcome,
};
pub use daemon::{PendingRelay, Relay, RelayConfig, RelayStats};
pub use directory::{Directory, DirectoryCell, NodeInfo};
pub use error::{Error, Result};
pub use gossip::GossipRunner;
pub use obs::{ClusterMetrics, DirectoryMetrics, Phase, PhaseCell};
pub use receiver::ReceiverServer;
pub use tap::LinkTap;
pub use workers::{max_connections_for, MAX_CONNECTIONS};
