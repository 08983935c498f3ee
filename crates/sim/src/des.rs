//! The discrete-event core: one clock, one PRNG, one event queue.
//!
//! [`DesCore`] bundles the three pieces of state every seeded
//! discrete-event simulation shares — a monotone virtual clock, a single
//! per-simulation PRNG, and a deterministic [`EventQueue`] — behind a
//! small API that makes the determinism contract structural:
//!
//! * the clock only moves forward, and only by popping events;
//! * all randomness flows through the one seeded PRNG, in event order;
//! * equal-time events fire in schedule order (the queue's `(time, seq)`
//!   tie-break).
//!
//! Domain engines ([`crate::simulation::Simulation`] here; anything else
//! downstream) own a `DesCore<E>` for their event payload type `E` and
//! drive it with [`DesCore::pop`], which advances the clock and hands
//! back the payload — borrow-friendly, because the payload is detached
//! from the core before the caller's handlers run.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::EventQueue;
use crate::time::SimTime;

/// Seeded clock + PRNG + event queue: the engine-agnostic kernel of a
/// discrete-event simulation over event payloads `E`.
#[derive(Debug)]
pub struct DesCore<E> {
    queue: EventQueue<E>,
    now: SimTime,
    rng: StdRng,
    events_processed: u64,
}

impl<E> DesCore<E> {
    /// Creates a core at time zero with a PRNG seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        DesCore {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            events_processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The per-simulation PRNG. Every random draw of the simulation must
    /// come from here, so a seed pins the whole run.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (the clock is monotone).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    /// Returns `None` once the queue is drained.
    pub fn pop(&mut self) -> Option<E> {
        let (at, event) = self.queue.pop()?;
        self.now = at;
        self.events_processed += 1;
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn pop_advances_the_clock_in_order() {
        let mut core: DesCore<u32> = DesCore::new(1);
        core.schedule_at(SimTime::from_micros(10), 1);
        core.schedule_at(SimTime::from_micros(5), 2);
        assert_eq!(core.pop(), Some(2));
        assert_eq!(core.now(), SimTime::from_micros(5));
        assert_eq!(core.pop(), Some(1));
        assert_eq!(core.now(), SimTime::from_micros(10));
        assert_eq!(core.pop(), None);
        assert_eq!(core.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut core: DesCore<()> = DesCore::new(3);
        core.schedule_at(SimTime::from_micros(5), ());
        core.pop();
        core.schedule_at(SimTime::from_micros(1), ());
    }

    #[test]
    fn rng_is_seed_deterministic() {
        let mut a: DesCore<()> = DesCore::new(42);
        let mut b: DesCore<()> = DesCore::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.rng().gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.rng().gen()).collect();
        assert_eq!(xs, ys);
    }
}
