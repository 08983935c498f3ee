//! Acceptance: killing a relay mid-run produces real membership events
//! at the directory authority — the member set shrinks, the version
//! advances, and the event log carries one join per relay and one leave
//! for the killed one — and the surviving relays still carry traffic in
//! the next epoch.

use std::net::TcpStream;
use std::time::Duration;

use anonroute_core::PathLengthDist;
use anonroute_relay::authority::MembershipChange;
use anonroute_relay::{
    AuthorityClient, AuthorityServer, ClusterConfig, PhaseCell, RelayDescriptor, SharedCluster,
};

#[test]
fn killing_a_relay_produces_real_membership_events() {
    const N: usize = 5;
    let net_seed = b"churn-events-test";

    // one standing network, plus a directory authority tracking it
    let mut config = ClusterConfig::new(N, PathLengthDist::fixed(1));
    config.seed = 23;
    let shared = SharedCluster::boot(&config).unwrap();
    let directory = shared.directory();
    let server =
        AuthorityServer::spawn("127.0.0.1:0", net_seed, directory.receiver(), None).unwrap();
    let client = AuthorityClient::new(server.addr());
    for node in directory.nodes() {
        let desc = RelayDescriptor::derive(net_seed, node.id as u64, node.addr, 1);
        client.publish(&desc.sign(net_seed)).unwrap();
    }
    let joined_version = client.ping().unwrap();
    assert_eq!(server.member_ids(), (0..N as u64).collect::<Vec<_>>());

    // epoch 1: full membership carries traffic
    let spec = |n: usize, epoch: u64| ClusterConfig {
        seed: 6,
        epoch,
        ..ClusterConfig::new(n, PathLengthDist::fixed(1))
    };
    let arrivals = |n: usize| {
        (0..8)
            .map(|i| anonroute_sim::traffic::Arrival {
                at: anonroute_sim::SimTime::ZERO,
                sender: i % n,
                payload: vec![i as u8; 8],
            })
            .collect::<Vec<_>>()
    };
    let epoch0 = shared
        .run_cell(&spec(N, 0), &arrivals(N), &PhaseCell::new())
        .unwrap();
    assert_eq!(epoch0.deliveries.len(), 8);

    // kill the last relay mid-run; its port goes dead, which is exactly
    // the signal the gossip peer-health check acts on — emulate one
    // failed dial and the resulting DOWN report
    let dead = N - 1;
    let dead_addr = directory.node(dead).unwrap().addr;
    shared.kill_relay(dead).unwrap();
    assert!(
        TcpStream::connect_timeout(&dead_addr, Duration::from_millis(500)).is_err(),
        "a killed relay must stop accepting"
    );
    let down_version = client.report_down(dead as u64).unwrap();
    assert!(
        down_version > joined_version,
        "the directory version must advance on departure"
    );
    assert_eq!(server.member_ids(), (0..dead as u64).collect::<Vec<_>>());

    // the authority's event log: N joins, then the killed relay's leave
    let (events, version) = client.events(0).unwrap();
    assert_eq!(version, down_version);
    let kinds: Vec<(u64, MembershipChange)> = events.iter().map(|ev| (ev.id, ev.kind)).collect();
    let mut expect: Vec<(u64, MembershipChange)> = (0..N as u64)
        .map(|id| (id, MembershipChange::Joined))
        .collect();
    expect.push((dead as u64, MembershipChange::Left));
    assert_eq!(kinds, expect);
    assert!(events[..N].iter().all(|ev| ev.version <= joined_version));
    assert_eq!(events[N].version, down_version);

    // epoch 2 runs over the surviving prefix with re-keyed circuits
    let ne = server.member_ids().len();
    let epoch1 = shared
        .run_cell(&spec(ne, 1), &arrivals(ne), &PhaseCell::new())
        .unwrap();
    assert_eq!(epoch1.deliveries.len(), 8);

    server.shutdown();
    shared.shutdown().unwrap();
}
