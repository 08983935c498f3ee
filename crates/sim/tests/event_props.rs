//! Property-based tests for the discrete-event core (proptest).
//!
//! The unit tests in `event`/`des`/`simulation` pin down hand-picked
//! scenarios; these cover the same contracts under randomized inputs:
//!
//! * the event queue pops in monotone time order, FIFO within a time;
//! * a seeded simulation is a pure function of its seed — two runs with
//!   the same seed produce byte-identical `TransferRecord` streams (and
//!   one RNG draw of divergence would reorder everything after it).

use anonroute_sim::prelude::*;
use proptest::prelude::*;
use rand::Rng;

/// Random event schedules: many events, few distinct times, so ties are
/// common and the FIFO-within-a-time property is genuinely exercised.
fn arb_times() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..16, 1..200)
}

/// A tiny Crowds-like behavior driven by the simulation PRNG: the
/// originator picks a random first hop, every relay flips a biased coin
/// between forwarding to another random node and delivering. Randomness
/// in routing is the point — it makes the trace sensitive to every RNG
/// draw, which is what the determinism property needs.
struct RandomRelay {
    n: usize,
    forward_prob: f64,
}

impl NodeBehavior for RandomRelay {
    fn on_originate(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        let hop = ctx.rng().gen_range(0..self.n);
        ctx.send(hop, msg);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Endpoint, msg: Message) {
        if ctx.rng().gen::<f64>() < self.forward_prob {
            let hop = ctx.rng().gen_range(0..self.n);
            ctx.send(hop, msg);
        } else {
            ctx.send_to_receiver(msg);
        }
    }
}

/// Runs one seeded simulation to completion and returns its trace.
fn run_once(n: usize, seed: u64, arrivals: &[(u64, usize)], loss: f64) -> Vec<TransferRecord> {
    let nodes: Vec<RandomRelay> = (0..n)
        .map(|_| RandomRelay {
            n,
            forward_prob: 0.65,
        })
        .collect();
    let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 10, hi: 400 }, seed)
        .with_loss(loss)
        .with_service_time(25);
    sim.schedule_arrivals(arrivals.iter().map(|&(at, sender)| Arrival {
        at: SimTime::from_micros(at),
        sender,
        payload: vec![0u8; 4],
    }));
    sim.run();
    let (trace, _) = sim.into_artifacts();
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pops_are_monotone_in_time_and_fifo_within_a_time(times in arb_times()) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        let mut popped = 0usize;
        while let Some((at, i)) = q.pop() {
            prop_assert_eq!(at, SimTime::from_micros(times[i]));
            if let Some((pt, pi)) = prev {
                prop_assert!(at >= pt, "clock went backwards: {at:?} after {pt:?}");
                if at == pt {
                    // same instant: push order is pop order
                    prop_assert!(i > pi, "tie broken out of FIFO order");
                }
            }
            prev = Some((at, i));
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert!(q.is_empty());
    }

    #[test]
    fn same_seed_runs_are_byte_identical(
        seed in any::<u64>(),
        raw in proptest::collection::vec(0u64..40_000, 1..40),
        loss in 0.0f64..0.3,
    ) {
        let n = 8;
        // unpack each draw into (arrival time, sender): time in
        // 0..5000 µs, sender in 0..8
        let arrivals: Vec<(u64, usize)> =
            raw.iter().map(|&v| (v % 5_000, (v / 5_000) as usize)).collect();
        let a = run_once(n, seed, &arrivals, loss);
        let b = run_once(n, seed, &arrivals, loss);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge_on_nontrivial_runs(seed in any::<u64>()) {
        // sanity check that the byte-identity property is not vacuous:
        // with 40 messages through random relays, two different seeds
        // producing the same trace would be astronomically unlikely
        let arrivals: Vec<(u64, usize)> = (0..40).map(|i| (i * 50, (i as usize) % 8)).collect();
        let a = run_once(8, seed, &arrivals, 0.1);
        let b = run_once(8, seed.wrapping_add(1), &arrivals, 0.1);
        prop_assert_ne!(a, b);
    }
}
