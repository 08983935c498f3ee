//! Benchmarks of the TCP relay network: per-message end-to-end circuit
//! latency over a persistent loopback net, and whole-cluster throughput
//! including spin-up and graceful teardown.

use std::sync::Arc;
use std::time::Duration;

use anonroute_core::{PathKind, PathLengthDist};
use anonroute_relay::{
    cluster_identity, max_connections_for, run_cluster, Client, ClusterConfig, Directory, LinkTap,
    NodeInfo, PendingRelay, ReceiverServer, RelayConfig,
};
use anonroute_sim::traffic::{Arrival, UniformTraffic};
use anonroute_sim::MsgId;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-message latency through a standing 3-hop circuit: build the onion,
/// traverse 3 relays over real sockets, await the delivery.
fn bench_end_to_end_latency(c: &mut Criterion) {
    let tap = LinkTap::new();
    let receiver = ReceiverServer::spawn(tap.clone(), max_connections_for(6)).unwrap();
    let config = RelayConfig { cell_size: 1024 };
    let pending: Vec<PendingRelay> = (0..6)
        .map(|id| PendingRelay::bind(id, cluster_identity(1, id), config).unwrap())
        .collect();
    let nodes: Vec<NodeInfo> = pending
        .iter()
        .map(|p| NodeInfo {
            id: p.id(),
            addr: p.addr(),
            public: p.public(),
        })
        .collect();
    let directory = Arc::new(Directory::new(nodes, receiver.addr()).unwrap());
    let relays: Vec<_> = pending
        .into_iter()
        .map(|p| p.serve(Arc::clone(&directory), tap.clone(), 1))
        .collect();
    let mut client = Client::new(
        Arc::clone(&directory),
        PathLengthDist::fixed(3),
        PathKind::Simple,
        1024,
        None,
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let mut sent = 0usize;
    c.bench_function("relay_e2e_3hop_1024B_cell", |b| {
        b.iter(|| {
            sent += 1;
            client
                .send(0, MsgId(sent as u64), &[7u8; 64], &mut rng)
                .unwrap();
            assert!(receiver.wait_for(sent, Duration::from_secs(10)));
        })
    });
    drop(client);
    for relay in relays {
        relay.join(Duration::from_secs(10)).unwrap();
    }
    receiver.join(Duration::from_secs(10)).unwrap();
}

/// Whole-cluster throughput: bind 8 relays, drive 100 messages, tear
/// down — the cost of one harness-style measurement run.
fn bench_cluster_run(c: &mut Criterion) {
    let arrivals: Vec<Arrival> = UniformTraffic {
        count: 100,
        interval_us: 0,
        payload_len: 16,
    }
    .generate(8, &mut StdRng::seed_from_u64(3));
    c.bench_function("cluster_8relays_100msgs_uniform_1_3", |b| {
        b.iter(|| {
            let config = ClusterConfig::new(8, PathLengthDist::uniform(1, 3).unwrap());
            let outcome = run_cluster(&config, &arrivals).unwrap();
            assert_eq!(outcome.deliveries.len(), 100);
            outcome
        })
    });
}

criterion_group!(benches, bench_end_to_end_latency, bench_cluster_run);
criterion_main!(benches);
