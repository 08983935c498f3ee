//! Onion-routing protocol nodes (Onion Routing I/II, Freedom, PipeNet).
//!
//! The sender samples a route from its strategy, wraps the payload in one
//! encryption layer per hop ([`anonroute_crypto::onion`]), and transmits a
//! fixed-size cell. Each router peels its layer, learns only its successor,
//! and re-frames the cell with fresh junk so consecutive cells are bitwise
//! unlinkable. Junk comes from the simulation's RNG eight bytes per draw.

use std::sync::Arc;

use anonroute_crypto::keys::KeyStore;
use anonroute_crypto::onion::{self, Peeled};
use anonroute_sim::{Ctx, Endpoint, Message, NodeBehavior, NodeId};
use rand::{Rng, RngCore};

use crate::error::{Error, Result};
use crate::route::RouteSampler;

/// Default wire cell size in bytes.
pub const DEFAULT_CELL_SIZE: usize = 2048;

/// A member node of an onion-routing network: originates onions for its
/// own traffic and relays others' cells.
#[derive(Debug, Clone)]
pub struct OnionNode {
    id: NodeId,
    keys: Arc<KeyStore>,
    sampler: RouteSampler,
    cell_size: usize,
    relayed: u64,
    dropped: u64,
}

impl OnionNode {
    /// Creates the behavior for node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the longest possible route cannot fit
    /// the cell with an empty payload.
    pub fn new(
        id: NodeId,
        keys: Arc<KeyStore>,
        sampler: RouteSampler,
        cell_size: usize,
    ) -> Result<Self> {
        let worst = onion::wire_len(sampler.dist().max_len().max(1), 0);
        if worst > cell_size {
            return Err(Error::Config(format!(
                "cell size {cell_size} cannot carry {} hops (needs {worst} bytes)",
                sampler.dist().max_len()
            )));
        }
        Ok(OnionNode {
            id,
            keys,
            sampler,
            cell_size,
            relayed: 0,
            dropped: 0,
        })
    }

    /// Cells this node relayed.
    pub fn relayed(&self) -> u64 {
        self.relayed
    }

    /// Cells this node dropped (authentication failures).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl NodeBehavior for OnionNode {
    fn on_originate(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let route = {
            let rng = ctx.rng();
            self.sampler.sample(self.id, rng)
        };
        if route.is_empty() {
            // a zero-length path is a direct send (the paper's l = 0 case)
            ctx.send_to_receiver(msg);
            return;
        }
        let hops: Vec<u16> = route.iter().map(|&h| h as u16).collect();
        let nonces: Vec<[u8; 12]> = (0..hops.len()).map(|_| ctx.rng().gen()).collect();
        let wire = onion::build(&self.keys, &hops, &msg.bytes, &nonces)
            .expect("route and payload validated against the cell size");
        let cell = onion::frame_filled(&wire, self.cell_size, |tail| ctx.rng().fill_bytes(tail))
            .expect("content fits: checked at construction");
        ctx.send(route[0], Message::new(msg.id, cell));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Endpoint, msg: Message) {
        match onion::peel(&self.keys.key(self.id), &msg.bytes) {
            Ok(Peeled::Forward { next, content }) => {
                self.relayed += 1;
                let cell = onion::frame_filled(&content, self.cell_size, |tail| {
                    ctx.rng().fill_bytes(tail)
                })
                .expect("peeled content is smaller than the incoming cell");
                ctx.send(next as NodeId, Message::new(msg.id, cell));
            }
            Ok(Peeled::Deliver { payload }) => {
                self.relayed += 1;
                ctx.send_to_receiver(Message::new(msg.id, payload));
            }
            Err(_) => {
                // not addressed to us / corrupted: a real router drops it
                self.dropped += 1;
            }
        }
    }
}

/// Builds a complete onion network: one [`OnionNode`] per member with a
/// shared deterministic key store.
///
/// # Errors
///
/// Propagates per-node configuration errors.
pub fn onion_network(
    n: usize,
    sampler: &RouteSampler,
    cell_size: usize,
    key_seed: &[u8],
) -> Result<Vec<OnionNode>> {
    let keys = Arc::new(KeyStore::from_seed(key_seed, n));
    (0..n)
        .map(|id| OnionNode::new(id, Arc::clone(&keys), sampler.clone(), cell_size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonroute_core::{PathKind, PathLengthDist};
    use anonroute_sim::{LatencyModel, SimTime, Simulation};

    fn network(n: usize, dist: PathLengthDist) -> Simulation<OnionNode> {
        let sampler = RouteSampler::new(n, dist, PathKind::Simple).unwrap();
        let nodes = onion_network(n, &sampler, DEFAULT_CELL_SIZE, b"test").unwrap();
        Simulation::new(nodes, LatencyModel::Constant(1_000), 42)
    }

    #[test]
    fn payload_survives_the_onion_pipeline() {
        let mut sim = network(12, PathLengthDist::fixed(5));
        let id = sim.schedule_origination(SimTime::ZERO, 3, b"the secret vote".to_vec());
        sim.run();
        assert_eq!(sim.deliveries().len(), 1);
        let d = &sim.deliveries()[0];
        assert_eq!(d.msg, id);
        assert_eq!(d.payload, b"the secret vote");
    }

    #[test]
    fn path_length_matches_strategy() {
        let mut sim = network(12, PathLengthDist::fixed(5));
        sim.schedule_origination(SimTime::ZERO, 3, vec![1]);
        sim.run();
        // trace: 5 inter-node hops + 1 delivery edge + the origination edge
        // (sender→first hop) — the origination send is an edge too: total 6
        // edges: s→x1, x1→x2, ..., x4→x5, x5→R
        assert_eq!(sim.trace().len(), 6);
        assert_eq!(sim.trace().last().unwrap().to, Endpoint::Receiver);
    }

    #[test]
    fn zero_length_paths_send_directly() {
        let mut sim = network(6, PathLengthDist::fixed(0));
        sim.schedule_origination(SimTime::ZERO, 2, b"direct".to_vec());
        sim.run();
        assert_eq!(sim.trace().len(), 1);
        assert_eq!(sim.deliveries()[0].last_hop, Endpoint::Node(2));
        assert_eq!(sim.deliveries()[0].payload, b"direct");
    }

    #[test]
    fn cells_on_the_wire_are_fixed_size_and_unlinkable() {
        let mut sim = network(10, PathLengthDist::fixed(4));
        sim.schedule_origination(SimTime::ZERO, 0, vec![7; 32]);
        sim.run();
        // we cannot inspect cell bytes from the trace (it stores ids), but
        // relaying must have happened at 4 nodes with no drops
        let relayed: u64 = (0..10).map(|i| sim.node(i).relayed()).sum();
        let dropped: u64 = (0..10).map(|i| sim.node(i).dropped()).sum();
        assert_eq!(relayed, 4);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn many_messages_all_arrive_intact() {
        let mut sim = network(20, PathLengthDist::uniform(1, 7).unwrap());
        for i in 0..50u8 {
            sim.schedule_origination(
                SimTime::from_micros(i as u64 * 10),
                (i as usize) % 20,
                vec![i; 16],
            );
        }
        sim.run();
        assert_eq!(sim.deliveries().len(), 50);
        for d in sim.deliveries() {
            assert_eq!(d.payload.len(), 16);
            assert!(d.payload.iter().all(|&b| b == d.payload[0]));
        }
    }

    #[test]
    fn oversized_route_config_is_rejected() {
        let sampler = RouteSampler::new(200, PathLengthDist::fixed(100), PathKind::Simple).unwrap();
        let keys = Arc::new(KeyStore::from_seed(b"x", 200));
        // 100 hops × 32 bytes overhead > 1024-byte cells
        assert!(OnionNode::new(0, keys, sampler, 1024).is_err());
    }
}
