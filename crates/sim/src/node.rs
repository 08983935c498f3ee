//! Node behaviors: the protocol logic plugged into the simulator.
//!
//! A behavior is a **passive event handler**: the discrete-event loop
//! calls it with one event at a time and a [`Ctx`] to emit actions
//! through. Behaviors never block, sleep, or spawn — time only passes
//! between events — which is what lets one process host a million of
//! them.

use rand::rngs::StdRng;

use crate::message::{Endpoint, Message, NodeId};
use crate::time::SimTime;

/// An action a node emits in response to an event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Transmit `msg` to `to` over the clique (subject to link latency).
    Send {
        /// Destination endpoint.
        to: Endpoint,
        /// The message to transmit.
        msg: Message,
    },
    /// Request a timer callback after `delay_us` virtual microseconds.
    SetTimer {
        /// Delay until the callback.
        delay_us: u64,
        /// Opaque tag passed back to [`NodeBehavior::on_timer`].
        tag: u64,
    },
}

/// Execution context handed to a behavior while it processes one event.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// The node this behavior instance runs on.
    pub me: NodeId,
    rng: &'a mut StdRng,
    out: &'a mut Vec<Action>,
}

impl<'a> Ctx<'a> {
    /// Creates a context (used by the simulation engines).
    pub(crate) fn new(
        now: SimTime,
        me: NodeId,
        rng: &'a mut StdRng,
        out: &'a mut Vec<Action>,
    ) -> Self {
        Ctx { now, me, rng, out }
    }

    /// Transmits `msg` to another member node.
    pub fn send(&mut self, to: NodeId, msg: Message) {
        self.out.push(Action::Send {
            to: Endpoint::Node(to),
            msg,
        });
    }

    /// Delivers `msg` to the receiver.
    pub fn send_to_receiver(&mut self, msg: Message) {
        self.out.push(Action::Send {
            to: Endpoint::Receiver,
            msg,
        });
    }

    /// Schedules [`NodeBehavior::on_timer`] after `delay_us` microseconds.
    pub fn set_timer(&mut self, delay_us: u64, tag: u64) {
        self.out.push(Action::SetTimer { delay_us, tag });
    }

    /// Deterministic per-simulation randomness (seeded at construction).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// Protocol logic of one member node.
///
/// Implementations live in `anonroute-protocols` (Crowds jondos, onion
/// routers); the simulator is protocol-agnostic.
pub trait NodeBehavior {
    /// A fresh message originates here: this node is the sender and must
    /// route `msg` toward the receiver.
    fn on_originate(&mut self, ctx: &mut Ctx<'_>, msg: Message);

    /// A message arrived from `from`.
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, msg: Message);

    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}
}

/// Boxed behaviors forward to their contents, so heterogeneous or
/// runtime-chosen networks (`Vec<Box<dyn NodeBehavior>>`) run in the
/// same simulator as concrete ones.
impl<T: NodeBehavior + ?Sized> NodeBehavior for Box<T> {
    fn on_originate(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        (**self).on_originate(ctx, msg);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Endpoint, msg: Message) {
        (**self).on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        (**self).on_timer(ctx, tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_collects_actions_in_order() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = Vec::new();
        let mut ctx = Ctx::new(SimTime::from_micros(5), 2, &mut rng, &mut out);
        ctx.send(7, Message::new(crate::message::MsgId(1), vec![1]));
        ctx.set_timer(100, 9);
        ctx.send_to_receiver(Message::new(crate::message::MsgId(1), vec![2]));
        assert_eq!(out.len(), 3);
        assert!(matches!(
            out[0],
            Action::Send {
                to: Endpoint::Node(7),
                ..
            }
        ));
        assert!(matches!(
            out[1],
            Action::SetTimer {
                delay_us: 100,
                tag: 9
            }
        ));
        assert!(matches!(
            out[2],
            Action::Send {
                to: Endpoint::Receiver,
                ..
            }
        ));
    }

    #[test]
    fn ctx_rng_is_usable() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        let mut ctx = Ctx::new(SimTime::ZERO, 0, &mut rng, &mut out);
        let x: u32 = ctx.rng().gen_range(0..10);
        assert!(x < 10);
    }
}
