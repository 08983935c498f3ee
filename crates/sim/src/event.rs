//! The deterministic event queue at the heart of the discrete-event
//! engine.
//!
//! Ordering is a total order on `(time, sequence number)`: events pop in
//! nondecreasing time, and events scheduled for the same instant pop in
//! the order they were pushed (FIFO ties). The sequence number is
//! assigned at push time, so the order is a pure function of the push
//! history — no hash maps, no pointer addresses, nothing that could vary
//! between runs.
//!
//! Payloads live in a slab indexed by stable slots, recycled as events
//! pop; the binary heap holds only small `Copy` keys.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Heap key: full ordering state plus the slab address of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A seeded simulation's pending-event set: push events for future
/// instants, pop them in deterministic `(time, seq)` order.
///
/// # Examples
///
/// ```
/// use anonroute_sim::event::EventQueue;
/// use anonroute_sim::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(20), "late");
/// q.push(SimTime::from_micros(5), "early");
/// q.push(SimTime::from_micros(5), "early-tie");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(5), "early-tie")));
/// assert_eq!(q.pop(), Some((SimTime::from_micros(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<HeapKey>>,
    /// Payloads of pending events; `None` marks a slot on the free list.
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            seq: 0,
        }
    }

    /// Number of pending (pushed, not yet popped) events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever pushed (the deterministic tie-break sequence).
    pub fn pushes(&self) -> u64 {
        self.seq
    }

    /// Schedules `payload` for time `at`. Events at equal times pop in
    /// push order.
    pub fn push(&mut self, at: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.is_none(), "free slot must be vacant");
                *s = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
                self.slots.push(Some(payload));
                slot
            }
        };
        self.heap.push(Reverse(HeapKey { at, seq, slot }));
    }

    /// The time of the next event to fire, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(k)| k.at)
    }

    /// Pops the next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let Reverse(key) = self.heap.pop()?;
        let payload = self.slots[key.slot as usize]
            .take()
            .expect("a pending key has a payload");
        self.free.push(key.slot);
        Some((key.at, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_push_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 'c');
        q.push(SimTime::from_micros(10), 'a');
        q.push(SimTime::from_micros(10), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn slots_are_reused_not_leaked() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 0);
        for round in 1..100u64 {
            q.push(SimTime::from_micros(round), round);
            assert_eq!(q.pop().map(|(_, p)| p), Some(round - 1));
            assert_eq!(q.len(), 1);
        }
        assert!(q.slots.len() <= 2, "slab must recycle: {}", q.slots.len());
    }
}
