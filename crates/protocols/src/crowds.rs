//! The Crowds protocol (Reiter & Rubin): hop-by-hop random forwarding.
//!
//! The initiating jondo forwards the request to a uniformly random jondo
//! (possibly itself). Every jondo that receives a request flips a biased
//! coin: with probability `p_f` it forwards to another uniformly random
//! jondo, otherwise it submits to the end server. Paths may contain cycles,
//! and the induced path-length distribution is geometric:
//! `P[L = k] = (1 - p_f) · p_f^(k-1)` for `k ≥ 1`.

use anonroute_sim::{Ctx, Endpoint, Message, NodeBehavior};
use rand::Rng;

use crate::error::{Error, Result};

/// A Crowds jondo.
#[derive(Debug, Clone, PartialEq)]
pub struct JondoNode {
    n: usize,
    forward_prob: f64,
}

impl JondoNode {
    /// Creates a jondo in a crowd of `n` with forwarding probability
    /// `forward_prob`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] unless `0 ≤ forward_prob < 1` (a jondo
    /// that always forwards would never deliver).
    pub fn new(n: usize, forward_prob: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&forward_prob) || !forward_prob.is_finite() {
            return Err(Error::Config(format!(
                "forwarding probability must be in [0, 1), got {forward_prob}"
            )));
        }
        if n == 0 {
            return Err(Error::Config("a crowd needs at least one jondo".into()));
        }
        Ok(JondoNode { n, forward_prob })
    }
}

impl NodeBehavior for JondoNode {
    fn on_originate(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        // the initiator always forwards to a random jondo first (possibly
        // itself) — this is the first intermediate node
        let first = ctx.rng().gen_range(0..self.n);
        ctx.send(first, msg);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Endpoint, msg: Message) {
        let coin: f64 = ctx.rng().gen();
        if coin < self.forward_prob {
            let next = ctx.rng().gen_range(0..self.n);
            ctx.send(next, msg);
        } else {
            ctx.send_to_receiver(msg);
        }
    }
}

/// Builds a crowd of `n` jondos.
///
/// # Errors
///
/// Propagates [`JondoNode::new`] validation.
pub fn crowd(n: usize, forward_prob: f64) -> Result<Vec<JondoNode>> {
    (0..n).map(|_| JondoNode::new(n, forward_prob)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonroute_sim::{LatencyModel, SimTime, Simulation};

    #[test]
    fn requests_reach_the_server() {
        let mut sim = Simulation::new(crowd(8, 0.6).unwrap(), LatencyModel::Constant(500), 9);
        for i in 0..30 {
            sim.schedule_origination(
                SimTime::from_micros(i * 100),
                (i as usize) % 8,
                vec![i as u8],
            );
        }
        sim.run();
        assert_eq!(sim.deliveries().len(), 30);
    }

    #[test]
    fn observed_path_lengths_are_geometric() {
        // measure intermediate-hop counts over many runs and compare the
        // mean with 1/(1-pf)
        let pf = 0.75;
        let mut total_hops = 0usize;
        let msgs = 400;
        let mut sim = Simulation::new(crowd(10, pf).unwrap(), LatencyModel::Constant(10), 17);
        for i in 0..msgs {
            sim.schedule_origination(SimTime::from_micros(i as u64 * 1000), i % 10, vec![]);
        }
        sim.run();
        // per message: edges = hops + 1 (the final submit edge)
        use std::collections::HashMap;
        let mut edges: HashMap<_, usize> = HashMap::new();
        for t in sim.trace() {
            *edges.entry(t.msg).or_default() += 1;
        }
        for (_, e) in edges {
            total_hops += e - 1;
        }
        let mean = total_hops as f64 / msgs as f64;
        let expect = 1.0 / (1.0 - pf);
        assert!(
            (mean - expect).abs() < 0.45,
            "mean {mean}, expected {expect}"
        );
    }

    #[test]
    fn zero_forwarding_gives_single_hop_paths() {
        let mut sim = Simulation::new(crowd(5, 0.0).unwrap(), LatencyModel::Constant(10), 3);
        sim.schedule_origination(SimTime::ZERO, 2, vec![1]);
        sim.run();
        // exactly 2 edges: sender→jondo, jondo→server
        assert_eq!(sim.trace().len(), 2);
        assert_eq!(sim.trace()[1].to, Endpoint::Receiver);
    }

    #[test]
    fn config_validation() {
        assert!(JondoNode::new(5, 1.0).is_err());
        assert!(JondoNode::new(5, -0.1).is_err());
        assert!(JondoNode::new(0, 0.5).is_err());
        assert!(JondoNode::new(5, 0.999).is_ok());
    }
}
