//! Benchmarks of the discrete-event core at scale: raw event throughput
//! with 10³, 10⁵, and 10⁶ member nodes (the committed `BENCH_sim.json`
//! snapshot).
//!
//! The workload is protocol-free on purpose — a minimal countdown relay
//! whose per-event work is a couple of RNG draws and one send — so the
//! measured rate is the engine's (queue, clock, dispatch), not the
//! onion stack's. Arrivals come from [`UniformTraffic::generate`] and
//! are all scheduled up front through `schedule_arrivals`, the path a
//! campaign sim cell takes.

use anonroute_sim::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Hops each message takes before reaching the receiver.
const HOPS: u8 = 3;

/// Messages per run; fixed across system sizes so the rate isolates the
/// cost of `n` (memory footprint, cache behavior), not workload size.
const MESSAGES: usize = 200_000;

/// Forwards `bytes[0]` more hops to random nodes, then delivers.
struct CountdownRelay {
    n: usize,
}

impl NodeBehavior for CountdownRelay {
    fn on_originate(&mut self, ctx: &mut Ctx<'_>, mut msg: Message) {
        msg.bytes[0] = HOPS;
        let hop = ctx.rng().gen_range(0..self.n);
        ctx.send(hop, msg);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Endpoint, mut msg: Message) {
        if msg.bytes[0] == 0 {
            ctx.send_to_receiver(msg);
        } else {
            msg.bytes[0] -= 1;
            let hop = ctx.rng().gen_range(0..self.n);
            ctx.send(hop, msg);
        }
    }
}

/// Runs one full simulation and returns the number of events processed.
fn des_run(n: usize, seed: u64) -> u64 {
    let nodes: Vec<CountdownRelay> = (0..n).map(|_| CountdownRelay { n }).collect();
    let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 20, hi: 200 }, seed);
    let traffic = UniformTraffic {
        count: MESSAGES,
        interval_us: 5,
        payload_len: 1,
    };
    sim.schedule_arrivals(traffic.generate(n, &mut StdRng::seed_from_u64(seed)));
    sim.run();
    sim.events_processed()
}

fn bench_des_events(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_events");
    group.sample_size(10);
    for &n in &[1_000usize, 100_000, 1_000_000] {
        // count once so the reported throughput is exact, not estimated
        let events = des_run(n, 7);
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(des_run(n, 7)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_des_events);
criterion_main!(benches);
