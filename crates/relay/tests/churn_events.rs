//! Acceptance: killing a relay daemon produces real membership events at
//! the directory authority — the killed relay stops accepting, the member
//! set shrinks, the version advances, and the event log carries one join
//! per relay and one leave for the killed one.

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use anonroute_crypto::handshake::NodeIdentity;
use anonroute_relay::authority::MembershipChange;
use anonroute_relay::{
    AuthorityClient, AuthorityServer, Directory, LinkTap, NodeInfo, PendingRelay, Relay,
    RelayConfig, RelayDescriptor,
};

#[test]
fn killing_a_relay_produces_real_membership_events() {
    const N: usize = 5;
    let net_seed = b"churn-events-test";
    // nothing is sent, so the delivery endpoint is never dialed
    let receiver: SocketAddr = "127.0.0.1:9".parse().unwrap();

    // N standalone relay daemons, provisioned from the network seed
    let pending: Vec<PendingRelay> = (0..N)
        .map(|id| {
            let identity = NodeIdentity::derive(net_seed, id as u64);
            PendingRelay::bind(id, identity, RelayConfig::default()).unwrap()
        })
        .collect();
    let nodes: Vec<NodeInfo> = pending
        .iter()
        .map(|p| NodeInfo {
            id: p.id(),
            addr: p.addr(),
            public: p.public(),
        })
        .collect();
    let directory = Arc::new(Directory::new(nodes, receiver).unwrap());
    let mut relays: Vec<Relay> = pending
        .into_iter()
        .map(|p| p.serve(Arc::clone(&directory), LinkTap::new(), 23))
        .collect();

    // a directory authority tracking them
    let server = AuthorityServer::spawn("127.0.0.1:0", net_seed, receiver, None).unwrap();
    let client = AuthorityClient::new(server.addr());
    for node in directory.nodes() {
        let desc = RelayDescriptor::derive(net_seed, node.id as u64, node.addr, 1);
        client.publish(&desc.sign(net_seed)).unwrap();
    }
    let joined_version = client.ping().unwrap();
    assert_eq!(server.member_ids(), (0..N as u64).collect::<Vec<_>>());

    // kill the last relay; its port goes dead, which is exactly the
    // signal the gossip peer-health check acts on — emulate one failed
    // dial and the resulting DOWN report
    let dead = N - 1;
    let killed = relays.pop().unwrap();
    let dead_addr = killed.addr();
    killed.join(Duration::from_secs(5)).unwrap();
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

    server.shutdown();
    for relay in relays {
        relay.join(Duration::from_secs(5)).unwrap();
    }
}
