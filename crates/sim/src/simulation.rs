//! The deterministic discrete-event simulation engine.
//!
//! [`Simulation`] is a thin protocol layer over [`DesCore`]: nodes are
//! passive [`NodeBehavior`] handlers invoked from the single event loop,
//! each hop's link latency makes it a scheduled event, and the whole run
//! is a pure function of the seed. One process comfortably simulates
//! 10⁵–10⁶ member nodes — there are no per-node threads or channels,
//! only a binary heap of `(time, seq)`-ordered events and one PRNG.
//!
//! Scale notes: memory is O(nodes + pending events + trace). The trace
//! records every edge, so a long run's footprint is dominated by
//! `TransferRecord`s (32 bytes each); cap workloads accordingly.

use crate::des::DesCore;
use crate::latency::LatencyModel;
use crate::message::{Delivery, Endpoint, Message, MsgId, NodeId, TransferRecord};
use crate::node::{Action, Ctx, NodeBehavior};
use crate::time::SimTime;
use crate::traffic::Arrival;

#[derive(Debug)]
enum EventKind {
    Originate {
        sender: NodeId,
        msg: Message,
    },
    Deliver {
        from: Endpoint,
        to: Endpoint,
        msg: Message,
    },
}

/// Record of a message origination (ground truth, used by statistics and
/// by the adversary's evaluation harness as the label to recover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origination {
    /// When the message was created.
    pub time: SimTime,
    /// The true sender.
    pub sender: NodeId,
    /// Message identity.
    pub msg: MsgId,
}

/// A deterministic discrete-event simulation of a clique of `n` nodes
/// running protocol behavior `B`, with per-hop link latencies and a full
/// ground-truth trace.
///
/// # Examples
///
/// A million members, 200 messages from uniformly drawn senders, each
/// sent straight to the receiver:
///
/// ```
/// use anonroute_sim::prelude::*;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// /// Trivial protocol: forward straight to the receiver.
/// struct Direct;
/// impl NodeBehavior for Direct {
///     fn on_originate(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
///         ctx.send_to_receiver(msg);
///     }
///     fn on_message(&mut self, _: &mut Ctx<'_>, _: Endpoint, _: Message) {}
/// }
///
/// let n = 1_000_000;
/// let nodes = (0..n).map(|_| Direct).collect();
/// let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 50, hi: 500 }, 7);
/// let traffic = UniformTraffic { count: 200, interval_us: 100, payload_len: 16 };
/// sim.schedule_arrivals(traffic.generate(n, &mut StdRng::seed_from_u64(7)));
/// sim.run();
/// assert_eq!(sim.deliveries().len(), 200);
/// // one origination and one delivery event per message
/// assert_eq!(sim.events_processed(), 400);
/// ```
#[derive(Debug)]
pub struct Simulation<B> {
    nodes: Vec<B>,
    core: DesCore<EventKind>,
    latency: LatencyModel,
    trace: Vec<TransferRecord>,
    deliveries: Vec<Delivery>,
    originations: Vec<Origination>,
    next_msg: u64,
    /// Reusable action buffer: one allocation for the whole run instead
    /// of one per event.
    scratch: Vec<Action>,
}

impl<B: NodeBehavior> Simulation<B> {
    /// Creates a simulation over the given per-node behaviors.
    pub fn new(nodes: Vec<B>, latency: LatencyModel, seed: u64) -> Self {
        Simulation {
            nodes,
            core: DesCore::new(seed),
            latency,
            trace: Vec::new(),
            deliveries: Vec::new(),
            originations: Vec::new(),
            next_msg: 0,
            scratch: Vec::new(),
        }
    }

    /// Ground-truth edge trace, in delivery-time order.
    pub fn trace(&self) -> &[TransferRecord] {
        &self.trace
    }

    /// Messages delivered to the receiver so far.
    pub fn deliveries(&self) -> &[Delivery] {
        &self.deliveries
    }

    /// All message originations (the labels the adversary tries to
    /// recover).
    pub fn originations(&self) -> &[Origination] {
        &self.originations
    }

    /// Consumes the simulation, returning the owned `(trace,
    /// originations)` pair — what a post-run attack needs — without
    /// copying either vector. Use after [`Simulation::run`] when the
    /// simulation itself is no longer needed.
    pub fn into_artifacts(self) -> (Vec<TransferRecord>, Vec<Origination>) {
        (self.trace, self.originations)
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed()
    }

    /// Schedules a message to originate at node `sender` at time `at`.
    /// Returns the assigned message id.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn schedule_origination(&mut self, at: SimTime, sender: NodeId, payload: Vec<u8>) -> MsgId {
        assert!(sender < self.nodes.len(), "sender {sender} out of range");
        let id = MsgId(self.next_msg);
        self.next_msg += 1;
        self.core.schedule_at(
            at,
            EventKind::Originate {
                sender,
                msg: Message::new(id, payload),
            },
        );
        id
    }

    /// Schedules a whole batch of arrivals, consuming them (no payload
    /// clones). Message ids are assigned in iteration order, exactly as
    /// if [`Simulation::schedule_origination`] had been called per
    /// arrival.
    ///
    /// # Panics
    ///
    /// Panics if an arrival names a sender out of range.
    pub fn schedule_arrivals(&mut self, arrivals: impl IntoIterator<Item = Arrival>) {
        for arrival in arrivals {
            self.schedule_origination(arrival.at, arrival.sender, arrival.payload);
        }
    }

    /// Runs until the event queue is empty. Returns the final time.
    pub fn run(&mut self) -> SimTime {
        while let Some(kind) = self.core.pop() {
            self.dispatch(kind);
        }
        self.core.now()
    }

    fn dispatch(&mut self, kind: EventKind) {
        // reuse one actions buffer across all events (returned below)
        let mut actions = std::mem::take(&mut self.scratch);
        let now = self.core.now();
        match kind {
            EventKind::Originate { sender, msg } => {
                self.originations.push(Origination {
                    time: now,
                    sender,
                    msg: msg.id,
                });
                let mut ctx = Ctx::new(now, sender, self.core.rng(), &mut actions);
                self.nodes[sender].on_originate(&mut ctx, msg);
                self.apply(Endpoint::Node(sender), &mut actions);
            }
            EventKind::Deliver { from, to, msg } => {
                self.trace.push(TransferRecord {
                    time: now,
                    from,
                    to,
                    msg: msg.id,
                });
                match to {
                    Endpoint::Receiver => {
                        self.deliveries.push(Delivery {
                            time: now,
                            msg: msg.id,
                            last_hop: from,
                            payload: msg.bytes,
                        });
                    }
                    Endpoint::Node(id) => {
                        let mut ctx = Ctx::new(now, id, self.core.rng(), &mut actions);
                        self.nodes[id].on_message(&mut ctx, from, msg);
                        self.apply(Endpoint::Node(id), &mut actions);
                    }
                }
            }
        }
        debug_assert!(actions.is_empty(), "apply drains every action");
        self.scratch = actions;
    }

    fn apply(&mut self, me: Endpoint, actions: &mut Vec<Action>) {
        for Action::Send { to, msg } in actions.drain(..) {
            let delay = self.latency.sample(self.core.rng());
            let at = self.core.now().after_micros(delay);
            self.core
                .schedule_at(at, EventKind::Deliver { from: me, to, msg });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forwards along a scripted path, then to the receiver.
    struct ScriptedHop {
        route: Vec<NodeId>,
    }
    impl NodeBehavior for ScriptedHop {
        fn on_originate(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
            if let Some(&first) = self.route.first() {
                ctx.send(first, msg);
            } else {
                ctx.send_to_receiver(msg);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Endpoint, msg: Message) {
            if let Some(&next) = self.route.first() {
                ctx.send(next, msg);
            } else {
                ctx.send_to_receiver(msg);
            }
        }
    }

    fn scripted(n: usize, routes: Vec<Vec<NodeId>>) -> Simulation<ScriptedHop> {
        assert_eq!(routes.len(), n);
        Simulation::new(
            routes
                .into_iter()
                .map(|route| ScriptedHop { route })
                .collect(),
            LatencyModel::Constant(1_000),
            7,
        )
    }

    #[test]
    fn message_follows_route_and_is_traced() {
        // node 0 sends to 1; 1 forwards to 2; 2 delivers
        let mut sim = scripted(3, vec![vec![1], vec![2], vec![]]);
        let id = sim.schedule_origination(SimTime::ZERO, 0, vec![0xAB]);
        sim.run();
        assert_eq!(sim.deliveries().len(), 1);
        let d = &sim.deliveries()[0];
        assert_eq!(d.msg, id);
        assert_eq!(d.last_hop, Endpoint::Node(2));
        assert_eq!(d.payload, vec![0xAB]);
        // trace: 0→1, 1→2, 2→R at 1ms, 2ms, 3ms
        let hops: Vec<(Endpoint, Endpoint)> = sim.trace().iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            hops,
            vec![
                (Endpoint::Node(0), Endpoint::Node(1)),
                (Endpoint::Node(1), Endpoint::Node(2)),
                (Endpoint::Node(2), Endpoint::Receiver),
            ]
        );
        assert_eq!(sim.trace()[2].time, SimTime::from_millis(3));
        assert_eq!(sim.originations()[0].sender, 0);
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let mut sim = scripted(2, vec![vec![], vec![]]);
        sim.schedule_origination(SimTime::from_millis(5), 0, vec![1]);
        sim.schedule_origination(SimTime::from_millis(1), 1, vec![2]);
        sim.schedule_origination(SimTime::from_millis(5), 1, vec![3]);
        sim.run();
        let senders: Vec<NodeId> = sim.originations().iter().map(|o| o.sender).collect();
        assert_eq!(senders, vec![1, 0, 1]); // time order, FIFO within ties
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut sim = Simulation::new(
                vec![
                    ScriptedHop { route: vec![1, 1] }, // note: scripted, not real routing
                    ScriptedHop { route: vec![] },
                ],
                LatencyModel::Uniform { lo: 100, hi: 5_000 },
                seed,
            );
            for i in 0..20 {
                sim.schedule_origination(SimTime::from_micros(i * 7), (i % 2) as usize, vec![]);
            }
            sim.run();
            sim.trace().to_vec()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn schedule_arrivals_matches_per_call_scheduling() {
        let arrivals: Vec<Arrival> = (0..12)
            .map(|i| Arrival {
                at: SimTime::from_micros(i * 11),
                sender: (i % 2) as usize,
                payload: vec![i as u8],
            })
            .collect();
        let mut bulk = scripted(2, vec![vec![], vec![]]);
        bulk.schedule_arrivals(arrivals.clone());
        bulk.run();
        let mut one_by_one = scripted(2, vec![vec![], vec![]]);
        for a in arrivals {
            one_by_one.schedule_origination(a.at, a.sender, a.payload);
        }
        one_by_one.run();
        assert_eq!(bulk.trace(), one_by_one.trace());
        assert_eq!(bulk.originations(), one_by_one.originations());
    }
}
