//! Property tests for the directory authority's descriptor format and
//! the gossip merge: encode/sign/verify round-trips survive arbitrary
//! inputs, tampering and stale versions are always rejected, k views
//! converge to identical fingerprints under any snapshot exchange order,
//! and hostile snapshot bytes never panic the merge or change a view
//! they fail to merge into.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use anonroute_relay::authority::NetworkView;
use anonroute_relay::{RelayDescriptor, SignedDescriptor};
use proptest::prelude::*;

fn addr_of(port: u16) -> SocketAddr {
    format!("127.0.0.1:{}", port.max(1))
        .parse()
        .expect("loopback addr")
}

fn receiver_addr() -> SocketAddr {
    "127.0.0.1:65535".parse().expect("loopback addr")
}

const SNAPSHOT_SEED: &[u8] = b"prop-snapshot-seed";

/// A view over `ids`, each published at version 1, with `down` then
/// tombstoned: its snapshot carries members and tombstones both.
fn view_of(ids: &[u64], down: Option<u64>) -> NetworkView {
    let mut view = NetworkView::new(SNAPSHOT_SEED, receiver_addr());
    for &id in ids {
        let desc = RelayDescriptor::derive(SNAPSHOT_SEED, id, addr_of(9000 + id as u16), 1);
        view.publish(desc.sign(SNAPSHOT_SEED)).unwrap();
    }
    if let Some(id) = down {
        view.report_down(id);
    }
    view
}

/// Merges `bytes` into a view that knows other members than the
/// snapshot's source, and checks that a rejected snapshot left it
/// byte-identical.
fn merge_leaves_view_intact_on_error(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut view = view_of(&[4, 5], None);
    let before = view.snapshot();
    if view.merge_snapshot(bytes).is_err() {
        prop_assert_eq!(view.snapshot(), before);
    }
    Ok(())
}

/// The snapshot of a view with no members and no tombstones, cut just
/// before its member count.
fn snapshot_header() -> Vec<u8> {
    let mut header = NetworkView::new(SNAPSHOT_SEED, receiver_addr()).snapshot();
    header.truncate(header.len() - 8);
    header
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn descriptors_roundtrip_for_any_inputs(
        net_seed in proptest::collection::vec(any::<u8>(), 8..=64),
        id in 0u64..1_000_000,
        port in 1u16..u16::MAX,
        version in 0u64..u64::MAX / 2,
        weight in 1u32..u32::MAX,
        leaving in any::<bool>(),
    ) {
        let mut desc = RelayDescriptor::derive(&net_seed, id, addr_of(port), version);
        desc.bandwidth_weight = weight;
        desc.leaving = leaving;
        let signed = desc.sign(&net_seed);
        prop_assert!(signed.verify(&net_seed));

        let decoded = SignedDescriptor::decode(&signed.encode()).unwrap();
        prop_assert_eq!(&decoded.descriptor, &signed.descriptor);
        prop_assert_eq!(decoded.sig, signed.sig);
        prop_assert!(decoded.verify(&net_seed));
    }

    #[test]
    fn tampered_bytes_never_verify_or_decode_equal(
        net_seed in proptest::collection::vec(any::<u8>(), 8..=48),
        id in 0u64..1000,
        port in 1u16..u16::MAX,
        version in 0u64..1_000_000,
        flip_at in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let signed = RelayDescriptor::derive(&net_seed, id, addr_of(port), version).sign(&net_seed);
        let encoded = signed.encode();
        let mut tampered = encoded.clone();
        let at = flip_at % tampered.len();
        tampered[at] ^= 1 << flip_bit;
        prop_assert_ne!(&tampered, &encoded);
        // a flipped bit either breaks the framing outright or yields a
        // descriptor whose MAC no longer verifies
        if let Ok(decoded) = SignedDescriptor::decode(&tampered) {
            prop_assert!(!decoded.verify(&net_seed));
        }
    }

    #[test]
    fn views_reject_stale_versions_and_foreign_signatures(
        net_seed in proptest::collection::vec(any::<u8>(), 8..=48),
        id in 0u64..100,
        port in 1u16..u16::MAX,
        fresh in 1u64..10_000,
        staleness in 1u64..1000,
    ) {
        let mut view = NetworkView::new(&net_seed, receiver_addr());
        let current = RelayDescriptor::derive(&net_seed, id, addr_of(port), fresh).sign(&net_seed);
        view.publish(current).unwrap();

        // republishing anything at or below the accepted version fails
        let stale_version = fresh.saturating_sub(staleness);
        let stale = RelayDescriptor::derive(&net_seed, id, addr_of(port), stale_version).sign(&net_seed);
        prop_assert!(view.publish(stale).is_err());
        let same = RelayDescriptor::derive(&net_seed, id, addr_of(port), fresh).sign(&net_seed);
        prop_assert!(view.publish(same).is_err());

        // a descriptor signed under a different network seed is rejected
        let mut foreign_seed = net_seed.clone();
        foreign_seed.push(0xFF);
        let foreign =
            RelayDescriptor::derive(&foreign_seed, id, addr_of(port), fresh + 1).sign(&foreign_seed);
        prop_assert!(view.publish(foreign).is_err());
        prop_assert_eq!(view.member_ids(), vec![id]);
    }

    #[test]
    fn gossip_converges_regardless_of_message_order(
        relays in 2usize..6,
        exchanges in proptest::collection::vec(any::<u64>(), 8..=40),
        downs in proptest::collection::vec(0u64..6, 0..=3),
    ) {
        let net_seed = b"prop-gossip-seed".to_vec();
        let mut views: Vec<NetworkView> = (0..relays)
            .map(|_| NetworkView::new(&net_seed, receiver_addr()))
            .collect();
        // each view starts knowing only itself
        for (i, view) in views.iter_mut().enumerate() {
            let desc = RelayDescriptor::derive(&net_seed, i as u64, addr_of(9000 + i as u16), 1);
            view.publish(desc.sign(&net_seed)).unwrap();
        }
        // a few departures reported at arbitrary members
        for (i, &down) in downs.iter().enumerate() {
            views[i % relays].report_down(down % relays as u64);
        }
        // exchange snapshots in an arbitrary order...
        for &pick in &exchanges {
            let from = (pick % relays as u64) as usize;
            let to = ((pick >> 8) % relays as u64) as usize;
            if from == to {
                continue;
            }
            let snap = views[from].snapshot();
            views[to].merge_snapshot(&snap).unwrap();
        }
        // ...then close the loop deterministically: everyone pushes to
        // everyone twice, which dominates any partial exchange history
        for _ in 0..2 {
            for from in 0..relays {
                let snap = views[from].snapshot();
                for (to, view) in views.iter_mut().enumerate() {
                    if from != to {
                        view.merge_snapshot(&snap).unwrap();
                    }
                }
            }
        }
        let reference = views[0].fingerprint();
        for view in &views[1..] {
            prop_assert_eq!(view.fingerprint(), reference);
        }
        // merges are idempotent: replaying any snapshot changes nothing
        let replay = views[relays - 1].snapshot();
        let changed = views[0].merge_snapshot(&replay).unwrap();
        prop_assert!(!changed);
        prop_assert_eq!(views[0].fingerprint(), reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_snapshot_bytes_never_panic_or_change_the_view(
        tail in proptest::collection::vec(any::<u8>(), 0..256),
        after_header in any::<bool>(),
    ) {
        // bare junk fails on the magic; junk after a valid header
        // reaches the member and tombstone decoders
        let mut bytes = if after_header { snapshot_header() } else { Vec::new() };
        bytes.extend_from_slice(&tail);
        merge_leaves_view_intact_on_error(&bytes)?;
    }

    #[test]
    fn mutated_or_truncated_snapshots_never_panic_or_change_the_view(
        at in any::<usize>(),
        byte in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let mut bytes = view_of(&[0, 1, 2], Some(1)).snapshot();
        let at = at % (bytes.len() + 1);
        if truncate {
            bytes.truncate(at);
        } else if at < bytes.len() {
            bytes[at] = byte;
        } else {
            bytes.push(byte);
        }
        merge_leaves_view_intact_on_error(&bytes)?;
    }
}

#[test]
fn the_mutation_base_merges_and_changes_the_view() {
    let source = view_of(&[0, 1, 2], Some(1));
    let mut view = view_of(&[4, 5], None);
    assert!(view.merge_snapshot(&source.snapshot()).unwrap());
    assert_eq!(view.member_ids(), vec![0, 2, 4, 5]);
}

#[test]
fn snapshots_declaring_u32_max_entries_fail_promptly() {
    let no_members = {
        let mut bytes = snapshot_header();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes
    };
    let no_tombstones = {
        let mut bytes = snapshot_header();
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes
    };
    for bytes in [no_members, no_tombstones] {
        let mut view = view_of(&[4, 5], None);
        let before = view.snapshot();
        let started = Instant::now();
        assert!(view.merge_snapshot(&bytes).is_err());
        // the decoder stops at the first missing body instead of
        // reserving or looping over four billion entries
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(view.snapshot(), before);
    }
}
