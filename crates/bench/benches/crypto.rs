//! Benchmarks of the crypto substrate: hash/cipher/MAC throughput, the
//! per-hop onion costs of the simulated network, and the X25519
//! handshake of the live relays.

use anonroute_crypto::handshake::{send_layer_key, NodeIdentity};
use anonroute_crypto::keys::KeyStore;
use anonroute_crypto::{chacha20, hmac, onion, poly1305, sha256, x25519};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xabu8; 4096];
    let mut group = c.benchmark_group("sha256");
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("digest_4k", |b| b.iter(|| sha256::digest(black_box(&data))));
    group.finish();
}

fn bench_hmac(c: &mut Criterion) {
    let data = vec![0x55u8; 1024];
    c.bench_function("hmac_sha256_1k", |b| {
        b.iter(|| hmac::hmac_sha256(black_box(b"key material"), black_box(&data)))
    });
}

fn bench_chacha20(c: &mut Criterion) {
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    let mut data = vec![0u8; 4096];
    let mut group = c.benchmark_group("chacha20");
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("xor_4k", |b| {
        b.iter(|| chacha20::xor_stream(black_box(&key), black_box(&nonce), 1, &mut data))
    });
    // one block: an onion layer's key derivation, or one keystream block
    group.throughput(Throughput::Bytes(64));
    group.bench_function("block", |b| {
        b.iter(|| chacha20::block(black_box(&key), black_box(&nonce), 0))
    });
    group.finish();
}

/// A Poly1305 tag over 128 bytes, about the authenticated region of a
/// simulated layer.
fn bench_poly1305(c: &mut Criterion) {
    let key = [3u8; 32];
    let data = [0x5au8; 128];
    let mut group = c.benchmark_group("poly1305");
    group.throughput(Throughput::Bytes(128));
    group.bench_function("tag_128", |b| {
        b.iter(|| poly1305::tag(black_box(&key), black_box(&data)))
    });
    group.finish();
}

fn bench_onion(c: &mut Criterion) {
    let keys = KeyStore::from_seed(b"bench", 64);
    let path: Vec<u16> = vec![3, 17, 42, 8, 25];
    let nonces: Vec<[u8; 12]> = (0..5).map(|i| [i as u8 + 1; 12]).collect();
    let payload = vec![0xCDu8; 256];
    c.bench_function("onion_build_5_hops", |b| {
        b.iter(|| onion::build(&keys, black_box(&path), black_box(&payload), &nonces).unwrap())
    });

    let wire = onion::build(&keys, &path, &payload, &nonces).unwrap();
    let mut j = 0u8;
    let mut junk = move || {
        j = j.wrapping_add(41);
        j
    };
    let cell = onion::frame(&wire, 2048, &mut junk).unwrap();
    c.bench_function("onion_peel_one_hop", |b| {
        b.iter(|| onion::peel(&keys.key(3), black_box(&cell)).unwrap())
    });
}

/// One hop of the simulated onion network at its default 2,048-byte
/// cell: key derivation, peeling, and re-framing with fresh junk, each
/// alone and together as `OnionNode` runs them. `frame_2048` draws junk
/// a byte at a time, as the relays do; `frame_filled_2048` a word at a
/// time, as the simulation does.
fn bench_sim_hop(c: &mut Criterion) {
    let keys = KeyStore::from_seed(b"bench", 64);
    let path: Vec<u16> = vec![3, 17, 42, 8];
    let nonces: Vec<[u8; 12]> = (0..4).map(|i| [i as u8 + 1; 12]).collect();
    let payload = [0u8; 4];
    let mut rng = StdRng::seed_from_u64(11);
    let wire = onion::build(&keys, &path, &payload, &nonces).unwrap();
    let cell = onion::frame(&wire, 2048, &mut || rng.gen::<u8>()).unwrap();
    let key = keys.key(3);
    let onion::Peeled::Forward { content, .. } = onion::peel(&key, &cell).unwrap() else {
        unreachable!("a 4-hop onion forwards at its first hop")
    };

    let mut group = c.benchmark_group("onion");
    group.bench_function("layer_keys", |b| {
        b.iter(|| key.layer_keys(black_box(&[7u8; 12])))
    });
    let mut id = 0usize;
    group.bench_function("keystore_first_key", |b| {
        b.iter(|| {
            // a fresh store: the key is derived, not memoized
            id = (id + 1) % 64;
            KeyStore::from_seed(black_box(b"bench"), 64).key(id)
        })
    });
    group.bench_function("build_4_hops", |b| {
        b.iter(|| onion::build(&keys, black_box(&path), black_box(&payload), &nonces).unwrap())
    });
    group.bench_function("peel_2048", |b| {
        b.iter(|| onion::peel(&key, black_box(&cell)).unwrap())
    });
    group.bench_function("frame_2048", |b| {
        b.iter(|| onion::frame(black_box(&content), 2048, &mut || rng.gen::<u8>()).unwrap())
    });
    group.bench_function("frame_filled_2048", |b| {
        b.iter(|| {
            onion::frame_filled(black_box(&content), 2048, |tail| rng.fill_bytes(tail)).unwrap()
        })
    });
    group.bench_function("sim_hop_2048", |b| {
        b.iter(|| {
            let onion::Peeled::Forward { content, .. } =
                onion::peel(&key, black_box(&cell)).unwrap()
            else {
                unreachable!()
            };
            onion::frame_filled(&content, 2048, |tail| rng.fill_bytes(tail)).unwrap()
        })
    });
    group.finish();
}

/// The live relays' key agreement: one variable-base X25519 scalar
/// multiplication (the ladder), one fixed-base one (the comb behind
/// `public_key`), and the handshake both sides run per hop (one fixed-base
/// and two variable-base multiplications).
fn bench_x25519(c: &mut Criterion) {
    let node = NodeIdentity::derive(b"bench", 1);
    let scalar = [0x5au8; 32];
    let mut group = c.benchmark_group("x25519");
    group.bench_function("scalar_mult", |b| {
        b.iter(|| x25519::shared_secret(black_box(&scalar), node.public()))
    });
    group.bench_function("public_key", |b| {
        b.iter(|| x25519::public_key(black_box(&scalar)))
    });
    group.bench_function("handshake", |b| {
        b.iter(|| {
            let (key, eph_pub) = send_layer_key(black_box(&scalar), node.public());
            assert_eq!(node.recv_layer_key(&eph_pub), key);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hmac,
    bench_chacha20,
    bench_poly1305,
    bench_onion,
    bench_sim_hop,
    bench_x25519
);
criterion_main!(benches);
