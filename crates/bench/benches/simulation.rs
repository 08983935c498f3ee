//! Benchmarks of the simulation stack: event throughput with the full
//! onion protocol, Crowds forwarding, and the adversary attack — the
//! latter also as the member count grows, on synthetic traces.

use anonroute_adversary::{attack_trace, attack_trace_with, Adversary};
use anonroute_core::engine::FoldWorkspace;
use anonroute_core::{PathKind, PathLengthDist, SystemModel};
use anonroute_protocols::crowds::crowd;
use anonroute_protocols::onion_routing::onion_network;
use anonroute_protocols::RouteSampler;
use anonroute_sim::{
    Endpoint, LatencyModel, MsgId, Origination, SimTime, Simulation, TransferRecord,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn onion_sim(
    n: usize,
    messages: u64,
    seed: u64,
) -> Simulation<anonroute_protocols::onion_routing::OnionNode> {
    let sampler =
        RouteSampler::new(n, PathLengthDist::uniform(1, 6).unwrap(), PathKind::Simple).unwrap();
    let nodes = onion_network(n, &sampler, 2048, b"bench").unwrap();
    let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 10, hi: 200 }, seed);
    for i in 0..messages {
        sim.schedule_origination(
            SimTime::from_micros(i * 40),
            (i % n as u64) as usize,
            vec![0; 16],
        );
    }
    sim
}

fn bench_onion_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    group.bench_function("onion_n30_500_messages", |b| {
        b.iter(|| {
            let mut sim = onion_sim(30, 500, 3);
            sim.run();
            black_box(sim.deliveries().len())
        })
    });
    group.bench_function("crowds_n30_500_messages", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(crowd(30, 0.7).unwrap(), LatencyModel::Constant(20), 5);
            for i in 0..500u64 {
                sim.schedule_origination(SimTime::from_micros(i * 40), (i % 30) as usize, vec![]);
            }
            sim.run();
            black_box(sim.deliveries().len())
        })
    });
    group.finish();
}

fn bench_adversary_attack(c: &mut Criterion) {
    let n = 30;
    let mut sim = onion_sim(n, 500, 9);
    sim.run();
    let model = SystemModel::new(n, 2).unwrap();
    let dist = PathLengthDist::uniform(1, 6).unwrap();
    let adv = Adversary::new(n, &[0, 1]).unwrap();
    let mut group = c.benchmark_group("adversary");
    group.sample_size(10);
    group.bench_function("attack_500_messages", |b| {
        b.iter(|| {
            attack_trace(
                &adv,
                &model,
                &dist,
                black_box(sim.trace()),
                sim.originations(),
            )
            .unwrap()
        })
    });
    group.finish();
}

/// Messages per synthetic trace in the attack scaling bench.
const SCALING_MESSAGES: usize = 200;

/// A synthetic trace of `messages` simple-path messages over `n` nodes:
/// uniform senders, `uniform:1:6` lengths, distinct random hops, one
/// message at a time. Built directly rather than simulated, so `n` can
/// exceed what the onion simulator routes.
fn synthetic_trace(
    n: usize,
    messages: usize,
    seed: u64,
) -> (Vec<TransferRecord>, Vec<Origination>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut trace, mut originations) = (Vec::new(), Vec::new());
    for m in 0..messages as u64 {
        let msg = MsgId(m);
        let sender = rng.gen_range(0..n);
        let len = rng.gen_range(1..=6);
        let mut path: Vec<usize> = Vec::with_capacity(len);
        while path.len() < len {
            let hop = rng.gen_range(0..n);
            if hop != sender && !path.contains(&hop) {
                path.push(hop);
            }
        }
        let hops = path.into_iter().map(Endpoint::Node);
        let mut from = Endpoint::Node(sender);
        for (k, to) in hops.chain([Endpoint::Receiver]).enumerate() {
            trace.push(TransferRecord {
                time: SimTime::from_micros(m * 1000 + k as u64 * 10),
                from,
                to,
                msg,
            });
            from = to;
        }
        originations.push(Origination {
            time: SimTime::from_micros(m * 1000),
            sender,
            msg,
        });
    }
    (trace, originations)
}

/// The one-shot attack on 200 messages as `n` grows: its cost per
/// message should not depend on `n`. The strategy's fold workspace holds
/// an `O(n)` log-factorial table built once per `(model, strategy)` pair
/// (campaigns share it through `EvaluatorCache`), so `attack_trace` runs
/// against a prebuilt one and `workspace_build` times the table alone.
fn bench_attack_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("adversary");
    group.sample_size(10);
    let dist = PathLengthDist::uniform(1, 6).unwrap();
    for n in [1_000usize, 100_000, 1_000_000] {
        let compromised = 10;
        let model = SystemModel::new(n, compromised).unwrap();
        let adv = Adversary::new(n, &(n - compromised..n).collect::<Vec<_>>()).unwrap();
        let workspace = FoldWorkspace::new(&model, &dist).unwrap();
        let (trace, originations) = synthetic_trace(n, SCALING_MESSAGES, 7);
        group.throughput(Throughput::Elements(SCALING_MESSAGES as u64));
        group.bench_with_input(
            BenchmarkId::new("attack_trace", format!("n{n}")),
            &(trace, originations),
            |b, (trace, originations)| {
                b.iter(|| {
                    attack_trace_with(&adv, &workspace, black_box(trace), originations)
                        .unwrap()
                        .empirical_h_star
                })
            },
        );
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(
            BenchmarkId::new("workspace_build", format!("n{n}")),
            &model,
            |b, model| b.iter(|| FoldWorkspace::new(black_box(model), &dist).unwrap().n()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_onion_simulation,
    bench_adversary_attack,
    bench_attack_scaling
);
criterion_main!(benches);
