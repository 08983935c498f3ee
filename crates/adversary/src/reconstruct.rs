//! Reconstructing the paper's observation tuples from raw simulator
//! traces.
//!
//! The simulator records every edge traversal (omniscient ground truth).
//! The adversary may only use the records its agents can legitimately see
//! (Section 4 of the paper): an edge is *visible* iff its source or
//! destination node is compromised, or its destination is the receiver.
//! Sorting a message's visible edges by time and merging consecutive
//! compromised sightings reproduces exactly the
//! [`anonroute_core::engine::Observation`] structure that the analysis
//! engines consume — the test suite checks bit-for-bit agreement with the
//! generative [`anonroute_core::engine::observe`] on the true path.

use std::collections::{HashMap, HashSet};

use anonroute_core::engine::{Observation, RunObservation, Succ};
use anonroute_sim::{Endpoint, MsgId, NodeId, TransferRecord};

use crate::error::{Error, Result};

/// The passive adversary: knows which member nodes are compromised and
/// controls the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adversary {
    compromised: Vec<bool>,
    /// The compromised ids, ascending.
    ids: Vec<NodeId>,
}

impl Adversary {
    /// Creates an adversary over an `n`-node system with the given
    /// compromised node ids.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadInput`] if an id is out of range or duplicated.
    pub fn new(n: usize, compromised_ids: &[NodeId]) -> Result<Self> {
        let mut compromised = vec![false; n];
        for &id in compromised_ids {
            if id >= n {
                return Err(Error::BadInput(format!(
                    "compromised id {id} out of range (n={n})"
                )));
            }
            if compromised[id] {
                return Err(Error::BadInput(format!("compromised id {id} listed twice")));
            }
            compromised[id] = true;
        }
        let mut ids = compromised_ids.to_vec();
        ids.sort_unstable();
        Ok(Adversary { compromised, ids })
    }

    /// The compromised mask, indexed by node id.
    pub fn compromised(&self) -> &[bool] {
        &self.compromised
    }

    /// The compromised node ids, ascending.
    pub fn compromised_ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of compromised member nodes.
    pub fn c(&self) -> usize {
        self.ids.len()
    }

    fn is_visible(&self, r: &TransferRecord) -> bool {
        let from_comp = matches!(r.from, Endpoint::Node(id) if self.compromised[id]);
        let to_comp = matches!(r.to, Endpoint::Node(id) if self.compromised[id]);
        from_comp || to_comp || r.to == Endpoint::Receiver
    }

    /// Filters the ground-truth trace down to the records the adversary's
    /// agents can observe, preserving time order.
    pub fn visible<'a>(&self, trace: &'a [TransferRecord]) -> Vec<&'a TransferRecord> {
        let mut v: Vec<&TransferRecord> = trace.iter().filter(|r| self.is_visible(r)).collect();
        v.sort_by_key(|r| r.time);
        v
    }

    /// Reconstructs the observation for one message from the visible
    /// records.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Incomplete`] when the message never reached the
    /// receiver within the trace (e.g. a run cut off at a horizon).
    pub fn reconstruct(&self, trace: &[TransferRecord], msg: MsgId) -> Result<Observation> {
        let edges: Vec<&TransferRecord> = self
            .visible(trace)
            .into_iter()
            .filter(|r| r.msg == msg)
            .collect();
        self.observation_from(&edges, msg)
    }

    /// Merges one message's visible records, in time order, into its
    /// observation.
    fn observation_from(&self, edges: &[&TransferRecord], msg: MsgId) -> Result<Observation> {
        let mut origin: Option<NodeId> = None;
        let mut runs: Vec<RunObservation> = Vec::new();
        let mut open: Option<RunObservation> = None;
        let mut receiver_pred: Option<NodeId> = None;
        let mut received: HashSet<NodeId> = HashSet::new();

        for r in edges {
            // Origin detection: a compromised node emitting a message it
            // never received must be the sender.
            if let Endpoint::Node(f) = r.from {
                if self.compromised[f] && !received.contains(&f) && origin.is_none() {
                    origin = Some(f);
                }
            }
            match (r.from, r.to) {
                (from, Endpoint::Node(x)) if self.compromised[x] => {
                    received.insert(x);
                    let from_id = match from {
                        Endpoint::Node(f) => f,
                        Endpoint::Receiver => {
                            return Err(Error::BadInput(
                                "the receiver never forwards messages".into(),
                            ))
                        }
                    };
                    let extends = open
                        .as_ref()
                        .and_then(|run| run.nodes.last().copied())
                        .is_some_and(|tail| tail == from_id && self.compromised[from_id]);
                    if extends {
                        open.as_mut().expect("checked above").nodes.push(x);
                    } else {
                        if let Some(run) = open.take() {
                            // a dangling run without an observed close —
                            // cannot happen on a single path, but close it
                            // defensively rather than lose it
                            runs.push(run);
                        }
                        open = Some(RunObservation {
                            nodes: vec![x],
                            pred: from_id,
                            succ: Succ::Receiver, // fixed when the run closes
                        });
                    }
                }
                (Endpoint::Node(x), Endpoint::Node(v)) if self.compromised[x] => {
                    // compromised → honest: closes the open run
                    if let Some(mut run) = open.take() {
                        debug_assert_eq!(run.nodes.last(), Some(&x));
                        run.succ = Succ::Node(v);
                        runs.push(run);
                    }
                    // (if x is the compromised *sender*, there is no run —
                    // the origin report already covers it)
                }
                (from, Endpoint::Receiver) => match from {
                    Endpoint::Node(f) => {
                        receiver_pred = Some(f);
                        if self.compromised[f] {
                            if let Some(mut run) = open.take() {
                                run.succ = Succ::Receiver;
                                runs.push(run);
                            }
                        }
                    }
                    Endpoint::Receiver => {
                        return Err(Error::BadInput(
                            "the receiver never forwards messages".into(),
                        ))
                    }
                },
                _ => {}
            }
        }
        if let Some(run) = open.take() {
            runs.push(run);
        }
        let receiver_pred = receiver_pred.ok_or_else(|| {
            Error::Incomplete(format!("message {msg:?} never reached the receiver"))
        })?;
        Ok(Observation {
            origin,
            runs,
            receiver_pred,
        })
    }

    /// Reconstructs observations for every delivered message in the trace.
    ///
    /// One pass groups the visible records by message, so the cost is one
    /// sort of the trace rather than one per message; each message's
    /// records keep the order [`Adversary::reconstruct`] sees them in.
    pub fn reconstruct_all(&self, trace: &[TransferRecord]) -> HashMap<MsgId, Observation> {
        let mut by_msg: HashMap<MsgId, Vec<&TransferRecord>> = HashMap::new();
        for r in self.visible(trace) {
            by_msg.entry(r.msg).or_default().push(r);
        }
        by_msg
            .into_iter()
            .filter_map(|(id, edges)| self.observation_from(&edges, id).ok().map(|o| (id, o)))
            .collect()
    }
}

/// Recovers the full ground-truth path of a message from the omniscient
/// trace (for validation only — the adversary never sees this).
pub fn ground_truth_path(trace: &[TransferRecord], msg: MsgId) -> Vec<NodeId> {
    let mut edges: Vec<&TransferRecord> = trace.iter().filter(|r| r.msg == msg).collect();
    edges.sort_by_key(|r| r.time);
    edges
        .iter()
        .filter_map(|r| match r.to {
            Endpoint::Node(id) => Some(id),
            Endpoint::Receiver => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonroute_core::engine::observe;
    use anonroute_sim::SimTime;

    /// Builds a synthetic trace for a single message along `path`.
    fn trace_for(sender: NodeId, path: &[NodeId]) -> Vec<TransferRecord> {
        let mut t = Vec::new();
        let mut from = Endpoint::Node(sender);
        for (k, &x) in path.iter().enumerate() {
            t.push(TransferRecord {
                time: SimTime::from_micros((k as u64 + 1) * 10),
                from,
                to: Endpoint::Node(x),
                msg: MsgId(0),
            });
            from = Endpoint::Node(x);
        }
        t.push(TransferRecord {
            time: SimTime::from_micros((path.len() as u64 + 1) * 10),
            from,
            to: Endpoint::Receiver,
            msg: MsgId(0),
        });
        t
    }

    fn check_agreement(n: usize, compromised: &[NodeId], sender: NodeId, path: &[NodeId]) {
        let adv = Adversary::new(n, compromised).unwrap();
        let trace = trace_for(sender, path);
        let got = adv.reconstruct(&trace, MsgId(0)).unwrap();
        let want = observe(sender, path, adv.compromised());
        assert_eq!(
            got, want,
            "sender={sender} path={path:?} compromised={compromised:?}"
        );
    }

    #[test]
    fn agreement_with_generative_observe_basic_cases() {
        check_agreement(8, &[5], 0, &[1, 2, 3]); // clean
        check_agreement(8, &[5], 0, &[5, 2, 3]); // first hop compromised
        check_agreement(8, &[5], 0, &[1, 2, 5]); // last hop compromised
        check_agreement(8, &[5], 0, &[1, 5, 3]); // middle
        check_agreement(8, &[5], 0, &[]); // direct send
        check_agreement(8, &[5], 5, &[1, 2]); // compromised sender
        check_agreement(8, &[4, 5], 0, &[4, 5, 1]); // adjacent run
        check_agreement(8, &[4, 5], 0, &[4, 1, 5]); // unit gap
        check_agreement(8, &[4, 5], 0, &[4, 1, 2, 5]); // wide gap
        check_agreement(8, &[4, 5], 0, &[2, 4, 5]); // run touching receiver
        check_agreement(8, &[4, 5, 6], 0, &[4, 5, 6]); // full run
    }

    #[test]
    fn agreement_on_cyclic_paths() {
        check_agreement(6, &[4], 0, &[4, 1, 4]); // revisit
        check_agreement(6, &[4], 0, &[0, 4, 0]); // sender on its own path
        check_agreement(6, &[4], 4, &[1, 4, 2]); // compromised sender revisited
    }

    #[test]
    fn exhaustive_agreement_on_small_system() {
        // all simple paths of length <= 3 in a 5-node system, c = 2
        let n = 5;
        let compromised = [3, 4];
        for sender in 0..n {
            let others: Vec<NodeId> = (0..n).filter(|&x| x != sender).collect();
            for l in 0..=3usize {
                // enumerate l-permutations
                fn perms(
                    pool: &[usize],
                    l: usize,
                    cur: &mut Vec<usize>,
                    used: &mut Vec<bool>,
                    out: &mut Vec<Vec<usize>>,
                ) {
                    if cur.len() == l {
                        out.push(cur.clone());
                        return;
                    }
                    for i in 0..pool.len() {
                        if !used[i] {
                            used[i] = true;
                            cur.push(pool[i]);
                            perms(pool, l, cur, used, out);
                            cur.pop();
                            used[i] = false;
                        }
                    }
                }
                let mut out = Vec::new();
                perms(
                    &others,
                    l,
                    &mut Vec::new(),
                    &mut vec![false; others.len()],
                    &mut out,
                );
                for path in out {
                    check_agreement(n, &compromised, sender, &path);
                }
            }
        }
    }

    #[test]
    fn reconstruct_all_matches_per_message_reconstruction() {
        // interleaved messages on a cyclic-capable system, one of them
        // never delivered and one sent by a compromised node
        let adv = Adversary::new(8, &[5, 6]).unwrap();
        let plans: [(u64, NodeId, &[NodeId], bool); 6] = [
            (0, 0, &[1, 5, 2], true),
            (1, 3, &[5, 6, 4], true),
            (2, 1, &[2, 3], false), // undelivered
            (3, 5, &[1, 2], true),  // compromised sender
            (4, 2, &[], true),      // direct send
            (5, 4, &[6, 0, 6, 1], true),
        ];
        let mut trace = Vec::new();
        for (m, sender, path, delivered) in plans {
            let mut from = Endpoint::Node(sender);
            let hops = path.iter().map(|&x| Endpoint::Node(x));
            let ends = hops.chain(delivered.then_some(Endpoint::Receiver));
            for (k, to) in ends.enumerate() {
                // message m's k-th hop at 7k + m µs: the messages interleave
                trace.push(TransferRecord {
                    time: SimTime::from_micros(7 * k as u64 + m),
                    from,
                    to,
                    msg: MsgId(m),
                });
                from = to;
            }
        }
        // shuffle the record order: only timestamps may order the records
        trace.reverse();
        let all = adv.reconstruct_all(&trace);
        let mut ids: Vec<u64> = all.keys().map(|m| m.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 3, 4, 5], "undelivered message 2 is skipped");
        for (id, obs) in &all {
            assert_eq!(obs, &adv.reconstruct(&trace, *id).unwrap(), "{id:?}");
        }
        assert!(adv.reconstruct(&trace, MsgId(2)).is_err());
    }

    #[test]
    fn incomplete_messages_are_reported() {
        let adv = Adversary::new(5, &[4]).unwrap();
        let mut trace = trace_for(0, &[1, 4, 2]);
        trace.pop(); // drop the delivery edge
        assert!(matches!(
            adv.reconstruct(&trace, MsgId(0)),
            Err(Error::Incomplete(_))
        ));
    }

    #[test]
    fn constructor_validates_ids() {
        assert!(Adversary::new(5, &[5]).is_err());
        assert!(Adversary::new(5, &[2, 2]).is_err());
        assert_eq!(Adversary::new(5, &[0, 2]).unwrap().c(), 2);
    }

    #[test]
    fn visibility_filter_hides_honest_edges() {
        let adv = Adversary::new(6, &[5]).unwrap();
        let trace = trace_for(0, &[1, 2, 3]);
        let visible = adv.visible(&trace);
        // only the delivery edge is visible (receiver compromised)
        assert_eq!(visible.len(), 1);
        assert_eq!(visible[0].to, Endpoint::Receiver);
    }

    #[test]
    fn ground_truth_path_roundtrip() {
        let trace = trace_for(2, &[4, 0, 1]);
        assert_eq!(ground_truth_path(&trace, MsgId(0)), vec![4, 0, 1]);
    }
}
