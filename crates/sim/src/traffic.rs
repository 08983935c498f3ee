//! Workload generators: who sends when.
//!
//! Each generator materializes its schedule as a `Vec<Arrival>` for
//! [`crate::Simulation::schedule_arrivals`]: [`UniformTraffic`] for
//! one-shot runs, [`SessionTraffic`] for persistent multi-epoch sessions.

use rand::Rng;

use crate::message::{MsgId, NodeId};
use crate::time::SimTime;

/// One planned message origination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Origination time.
    pub at: SimTime,
    /// Sending node (uniform over members — the paper's a-priori model).
    pub sender: NodeId,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Deterministic workload: `count` messages at a fixed interval, senders
/// drawn uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformTraffic {
    /// Total messages to emit.
    pub count: usize,
    /// Spacing between consecutive originations in microseconds.
    pub interval_us: u64,
    /// Payload size per message in bytes.
    pub payload_len: usize,
}

impl UniformTraffic {
    /// Generates the arrival schedule.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<Arrival> {
        assert!(n > 0, "need at least one sender");
        (0..self.count)
            .map(|i| {
                let mut payload = vec![0u8; self.payload_len];
                rng.fill(payload.as_mut_slice());
                Arrival {
                    at: SimTime::from_micros(i as u64 * self.interval_us),
                    sender: rng.gen_range(0..n),
                    payload,
                }
            })
            .collect()
    }
}

/// Persistent sender–receiver sessions for multi-round (epoch) runs:
/// each session pins one sender who sends exactly one message per epoch
/// it is active in — the workload the long-term intersection adversary
/// correlates across rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionTraffic {
    /// Number of persistent sessions.
    pub sessions: usize,
    /// Spacing between consecutive originations within an epoch, in
    /// microseconds.
    pub interval_us: u64,
    /// Payload size per message in bytes.
    pub payload_len: usize,
}

impl SessionTraffic {
    /// Draws the persistent senders, uniformly over the `n` members (the
    /// paper's a-priori sender model). `senders[s]` is session `s`'s
    /// sender for the whole multi-round run.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn senders<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<NodeId> {
        assert!(n > 0, "need at least one sender");
        (0..self.sessions).map(|_| rng.gen_range(0..n)).collect()
    }

    /// Generates one epoch's arrival schedule over the nodes active this
    /// epoch. `local_of` maps a persistent sender to its id in the
    /// epoch's (possibly churned) address space — `None` means the
    /// sender is offline and its session sits the epoch out. Returns the
    /// arrivals (senders already in epoch-local ids) paired with, per
    /// arrival, the session id it belongs to: the correlation key a
    /// multi-round adversary folds on, and the map callers use to
    /// rewrite engine-assigned message ids back to session ids. Payload
    /// junk is drawn fresh per epoch from `rng` (active sessions only).
    pub fn epoch_arrivals<R: Rng + ?Sized>(
        &self,
        senders: &[NodeId],
        mut local_of: impl FnMut(NodeId) -> Option<NodeId>,
        rng: &mut R,
    ) -> (Vec<Arrival>, Vec<MsgId>) {
        let mut arrivals = Vec::with_capacity(senders.len());
        let mut session_of = Vec::with_capacity(senders.len());
        for (session, &sender) in senders.iter().enumerate() {
            let Some(local_sender) = local_of(sender) else {
                continue;
            };
            let mut payload = vec![0u8; self.payload_len];
            rng.fill(payload.as_mut_slice());
            arrivals.push(Arrival {
                at: SimTime::from_micros(arrivals.len() as u64 * self.interval_us),
                sender: local_sender,
                payload,
            });
            session_of.push(MsgId(session as u64));
        }
        (arrivals, session_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn session_traffic_pins_senders_across_epochs() {
        let mut rng = StdRng::seed_from_u64(9);
        let traffic = SessionTraffic {
            sessions: 40,
            interval_us: 100,
            payload_len: 8,
        };
        let senders = traffic.senders(6, &mut rng);
        assert_eq!(senders.len(), 40);
        assert!(senders.iter().all(|&s| s < 6));
        let (epoch_a, sess_a) = traffic.epoch_arrivals(&senders, Some, &mut rng);
        let (epoch_b, sess_b) = traffic.epoch_arrivals(&senders, Some, &mut rng);
        assert_eq!(epoch_a.len(), 40);
        assert_eq!(sess_a, sess_b);
        for (i, (a, b)) in epoch_a.iter().zip(&epoch_b).enumerate() {
            assert_eq!(sess_a[i], MsgId(i as u64), "full activity keeps order");
            assert_eq!(a.sender, senders[i], "arrival i belongs to session i");
            assert_eq!(a.sender, b.sender, "senders persist across epochs");
            assert_eq!(a.at, SimTime::from_micros(i as u64 * 100));
            assert_eq!(a.payload.len(), 8);
        }
        // payload junk is re-drawn per epoch
        assert!(epoch_a
            .iter()
            .zip(&epoch_b)
            .any(|(a, b)| a.payload != b.payload));
    }

    #[test]
    fn churned_sessions_sit_epochs_out_but_keep_their_ids() {
        let mut rng = StdRng::seed_from_u64(3);
        let traffic = SessionTraffic {
            sessions: 10,
            interval_us: 50,
            payload_len: 2,
        };
        let senders: Vec<NodeId> = (0..10).map(|s| s % 5).collect();
        // epoch where nodes 0 and 3 are offline; actives compact to
        // local ids: 1 -> 0, 2 -> 1, 4 -> 2
        let local_of = |u: NodeId| match u {
            1 => Some(0),
            2 => Some(1),
            4 => Some(2),
            _ => None,
        };
        let (arrivals, session_of) = traffic.epoch_arrivals(&senders, local_of, &mut rng);
        assert_eq!(arrivals.len(), 6, "sessions with offline senders sit out");
        assert_eq!(arrivals.len(), session_of.len());
        for (k, (a, &sess)) in arrivals.iter().zip(&session_of).enumerate() {
            assert_eq!(
                a.at,
                SimTime::from_micros(k as u64 * 50),
                "gapless schedule"
            );
            assert_eq!(a.sender, local_of(senders[sess.0 as usize]).unwrap());
        }
        // session ids refer to the persistent universe numbering
        assert_eq!(session_of[0], MsgId(1), "session 0 (sender 0) is offline");
    }

    #[test]
    fn uniform_traffic_is_evenly_spaced() {
        let mut rng = StdRng::seed_from_u64(7);
        let arrivals = UniformTraffic {
            count: 5,
            interval_us: 250,
            payload_len: 4,
        }
        .generate(3, &mut rng);
        assert_eq!(arrivals.len(), 5);
        for (i, a) in arrivals.iter().enumerate() {
            assert_eq!(a.at, SimTime::from_micros(i as u64 * 250));
            assert_eq!(a.payload.len(), 4);
            assert!(a.sender < 3);
        }
    }
}
