//! Acceptance: killing a relay mid-run produces real membership events
//! at the directory authority, and replaying those events through
//! `EpochSchedule::realize_from_active` yields `EpochView`s consistent
//! with the `ChurnModel` semantics — a departed node is not active, is
//! never compromised, and the compromised subset follows the rotation
//! policy over the *surviving* membership.

use std::net::TcpStream;
use std::time::Duration;

use anonroute_core::epochs::{EpochSchedule, RotationPolicy};
use anonroute_core::{ChurnModel, PathLengthDist};
use anonroute_relay::authority::active_at;
use anonroute_relay::{
    AuthorityClient, AuthorityServer, ClusterConfig, PhaseCell, RelayDescriptor, SharedCluster,
};

#[test]
fn killing_a_relay_feeds_real_membership_events_into_epoch_views() {
    const N: usize = 5;
    const C: usize = 1;
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

    // replay the authority's real event log into per-epoch active sets
    let (events, version) = client.events(0).unwrap();
    assert_eq!(version, down_version);
    let before = active_at(&events, joined_version);
    let after = active_at(&events, down_version);
    assert_eq!(before, (0..N).collect::<Vec<_>>());
    assert_eq!(after, (0..dead).collect::<Vec<_>>());

    // realize the measured membership exactly like a synthetic churn
    // model would: the dead node is inactive and never compromised, and
    // the Static policy compromises the last C of the *survivors*
    let schedule = EpochSchedule {
        epochs: 2,
        rotation: RotationPolicy::Static,
        churn: ChurnModel::None, // ignored: the observations are ground truth
    };
    let views = schedule
        .realize_from_active(N, C, 23, &[before, after])
        .unwrap();
    assert!(views[0].is_active(dead));
    assert!(!views[1].is_active(dead));
    assert!(!views[1].compromised.contains(&dead));
    assert_eq!(views[1].active, (0..dead).collect::<Vec<_>>());
    assert_eq!(views[1].compromised, vec![dead - 1]);

    // epoch 2 runs over the surviving prefix with re-keyed circuits
    let ne = views[1].n();
    let epoch1 = shared
        .run_cell(&spec(ne, 1), &arrivals(ne), &PhaseCell::new())
        .unwrap();
    assert_eq!(epoch1.deliveries.len(), 8);

    server.shutdown();
    shared.shutdown().unwrap();
}
