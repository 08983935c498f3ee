//! Layered onion cells for mix-style rerouting.
//!
//! A rerouting path `x1 → x2 → … → xl → R` is realized as `l` nested
//! encryption layers. Each node peels one layer with keys derived from its
//! master key and the layer nonce, learns only its successor, and forwards
//! a cell that is bitwise unlinkable to the one it received. All cells on
//! the wire have the same fixed size (the store-and-forward *mix* property
//! from the paper's Section 2): the meaningful prefix shrinks by a constant
//! per hop and is hidden by random tail junk supplied at framing time.
//!
//! ## Layer format v2
//!
//! ```text
//! wire cell  := nonce(12) ‖ ciphertext              (fixed CELL size)
//! plaintext  := tag(16) ‖ next(2) ‖ len(2) ‖ content(len)   [+ junk]
//! content    := inner wire bytes        when next is a node id
//!             | payload                 when next = DELIVER
//! mac ‖ enc  := ChaCha20(master, nonce, counter 0)        (64 bytes)
//! tag        := Poly1305(mac, next ‖ len ‖ content)
//! ciphertext := plaintext ⊕ ChaCha20(enc, nonce, counter 1, 2, …)
//! ```
//!
//! The MAC key is the RFC 8439 §2.6 one-time Poly1305 key of the master
//! key and nonce (see [`crate::keys`]), so a (master key, nonce) pair
//! must seal one layer only. The tag is computed before encryption and
//! encrypted with the rest of the header. Format v1 had the same layout
//! with HKDF-derived keys and a truncated HMAC-SHA-256 tag; the two do
//! not interoperate.

use crate::chacha20;
use crate::error::{Error, Result};
use crate::hmac::verify_mac;
use crate::keys::{KeyStore, MasterKey};
use crate::poly1305;

/// Per-hop header bytes inside a layer: Poly1305 tag, next-hop id, length.
pub const HEADER_LEN: usize = poly1305::TAG_LEN + 2 + 2;
/// Nonce bytes prepended to every layer.
pub const NONCE_LEN: usize = 12;
/// Total overhead added by one onion layer.
pub const LAYER_OVERHEAD: usize = HEADER_LEN + NONCE_LEN;
/// `next`-field marker meaning "deliver the payload to the receiver".
pub const DELIVER: u16 = u16::MAX;

/// Result of peeling one onion layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Peeled {
    /// Forward the contained bytes (to be re-framed to the wire cell size)
    /// to the given next node.
    Forward {
        /// Member node that should receive the inner cell.
        next: u16,
        /// Meaningful inner-cell bytes (without tail junk).
        content: Vec<u8>,
    },
    /// Final hop: deliver the decrypted payload to the receiver.
    Deliver {
        /// The sender's original message.
        payload: Vec<u8>,
    },
}

/// Builds the meaningful bytes of the outermost wire cell for `payload`
/// routed along `path` (member node ids), one nonce per hop.
///
/// The returned bytes must be framed with [`frame`] before transmission.
///
/// # Errors
///
/// * [`Error::PathTooLong`] if a node id collides with the [`DELIVER`]
///   marker or the nonce count mismatches the path;
/// * the caller should check the framed size against its cell size —
///   [`frame`] reports overflow.
pub fn build(
    keys: &KeyStore,
    path: &[u16],
    payload: &[u8],
    nonces: &[[u8; NONCE_LEN]],
) -> Result<Vec<u8>> {
    if path.is_empty() {
        return Err(Error::PathTooLong(
            "onion paths need at least one hop".into(),
        ));
    }
    if nonces.len() != path.len() {
        return Err(Error::PathTooLong(format!(
            "need one nonce per hop: {} hops, {} nonces",
            path.len(),
            nonces.len()
        )));
    }
    if path.contains(&DELIVER) {
        return Err(Error::PathTooLong(format!(
            "node id {DELIVER} collides with the DELIVER marker"
        )));
    }

    // innermost first: the last hop delivers the payload
    let mut content = payload.to_vec();
    let mut next = DELIVER;
    for (&hop, nonce) in path.iter().zip(nonces.iter()).rev() {
        let master = keys.key(hop as usize);
        let wire = seal(&master, nonce, next, &content)?;
        content = wire;
        next = hop;
    }
    Ok(content)
}

/// Seals one onion layer: the exact inverse of [`peel`]. `nonce` must
/// not have sealed another layer under `master` (see the module doc).
///
/// [`build`] composes this over a pre-shared [`KeyStore`]; callers that
/// derive per-hop keys some other way (e.g. the X25519 flow in
/// [`crate::handshake`], where each layer key comes from an ephemeral
/// exchange rather than a directory of master keys) can compose it
/// themselves, innermost layer first.
///
/// # Errors
///
/// Returns [`Error::PathTooLong`] when `content` exceeds the 16-bit
/// length field.
pub fn seal(
    master: &MasterKey,
    nonce: &[u8; NONCE_LEN],
    next: u16,
    content: &[u8],
) -> Result<Vec<u8>> {
    if content.len() > u16::MAX as usize {
        return Err(Error::PathTooLong(
            "layer content exceeds 65535 bytes".into(),
        ));
    }
    let (enc_key, mac_key) = master.layer_keys(nonce);
    let mut plaintext = Vec::with_capacity(HEADER_LEN + content.len());
    // tag placeholder
    plaintext.extend_from_slice(&[0u8; 16]);
    plaintext.extend_from_slice(&next.to_be_bytes());
    plaintext.extend_from_slice(&(content.len() as u16).to_be_bytes());
    plaintext.extend_from_slice(content);
    let tag = poly1305::tag(&mac_key, &plaintext[16..]);
    plaintext[..16].copy_from_slice(&tag);
    chacha20::xor_stream(&enc_key, nonce, 1, &mut plaintext);
    let mut wire = Vec::with_capacity(NONCE_LEN + plaintext.len());
    wire.extend_from_slice(nonce);
    wire.extend_from_slice(&plaintext);
    Ok(wire)
}

/// Peels one layer of `cell` with the node's master key.
///
/// `cell` may include tail junk beyond the meaningful bytes (the normal
/// case on the wire); the embedded length field delimits the real content
/// and the MAC authenticates exactly that region. Only that region is
/// decrypted: the junk tail is never read.
///
/// # Errors
///
/// * [`Error::Malformed`] if the cell is shorter than one layer;
/// * [`Error::BadMac`] if authentication fails (wrong node, corrupted
///   cell, or forged traffic) or the length field overruns the cell.
pub fn peel(master: &MasterKey, cell: &[u8]) -> Result<Peeled> {
    if cell.len() < LAYER_OVERHEAD {
        return Err(Error::Malformed(format!(
            "cell of {} bytes is shorter than one layer ({LAYER_OVERHEAD})",
            cell.len()
        )));
    }
    let nonce: [u8; NONCE_LEN] = cell[..NONCE_LEN].try_into().expect("length checked");
    let body = &cell[NONCE_LEN..];
    let (enc_key, mac_key) = master.layer_keys(&nonce);
    // the first keystream block covers the header
    let first = chacha20::block(&enc_key, &nonce, 1);
    let next = u16::from_be_bytes([body[16] ^ first[16], body[17] ^ first[17]]);
    let len = u16::from_be_bytes([body[18] ^ first[18], body[19] ^ first[19]]) as usize;
    let end = HEADER_LEN + len;
    if end > body.len() {
        // An overrunning length field means the cell was not sealed for
        // this key (or was corrupted) — indistinguishable from a MAC
        // failure, and reported as one to avoid oracle behavior.
        return Err(Error::BadMac);
    }
    let mut plain = body[..end].to_vec();
    let (head, tail) = plain.split_at_mut(end.min(first.len()));
    head.iter_mut().zip(&first).for_each(|(b, k)| *b ^= k);
    chacha20::xor_stream(&enc_key, &nonce, 2, tail);
    let tag = poly1305::tag(&mac_key, &plain[16..]);
    if !verify_mac(&tag, &plain[..16]) {
        return Err(Error::BadMac);
    }
    plain.drain(..HEADER_LEN);
    Ok(if next == DELIVER {
        Peeled::Deliver { payload: plain }
    } else {
        Peeled::Forward {
            next,
            content: plain,
        }
    })
}

/// Frames meaningful cell bytes to the fixed wire size, filling the tail
/// with junk bytes from `junk` (use a CSPRNG-backed closure in production;
/// tests may use a counter).
///
/// # Errors
///
/// Returns [`Error::PathTooLong`] when the content does not fit the cell.
pub fn frame(content: &[u8], cell_size: usize, mut junk: impl FnMut() -> u8) -> Result<Vec<u8>> {
    frame_filled(content, cell_size, |tail| tail.fill_with(&mut junk))
}

/// [`frame`] with the whole junk tail filled by one `fill` call, for
/// generators that produce junk a word at a time.
///
/// # Errors
///
/// As [`frame`].
pub fn frame_filled(
    content: &[u8],
    cell_size: usize,
    fill: impl FnOnce(&mut [u8]),
) -> Result<Vec<u8>> {
    if content.len() > cell_size {
        return Err(Error::PathTooLong(format!(
            "content of {} bytes exceeds the {cell_size}-byte cell",
            content.len()
        )));
    }
    let mut cell = vec![0u8; cell_size];
    let (head, tail) = cell.split_at_mut(content.len());
    head.copy_from_slice(content);
    fill(tail);
    Ok(cell)
}

/// Size in bytes of the meaningful prefix of the outermost cell for a
/// payload of `payload_len` routed over `hops` hops.
pub fn wire_len(hops: usize, payload_len: usize) -> usize {
    payload_len + hops * LAYER_OVERHEAD
}

/// Largest payload that fits a `cell_size` cell across `hops` hops.
pub fn max_payload(cell_size: usize, hops: usize) -> Option<usize> {
    cell_size.checked_sub(hops * LAYER_OVERHEAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keystore() -> KeyStore {
        KeyStore::from_seed(b"onion-tests", 16)
    }

    fn nonces(k: usize) -> Vec<[u8; NONCE_LEN]> {
        (0..k)
            .map(|i| {
                let mut n = [0u8; NONCE_LEN];
                n[0] = i as u8 + 1;
                n[5] = 0xA5;
                n
            })
            .collect()
    }

    /// Simulates the full relay pipeline and returns the delivered payload.
    fn relay(keys: &KeyStore, path: &[u16], wire: Vec<u8>, cell_size: usize) -> Vec<u8> {
        let mut junk_counter = 0u8;
        let mut junk = move || {
            junk_counter = junk_counter.wrapping_add(37);
            junk_counter
        };
        let mut cell = frame(&wire, cell_size, &mut junk).unwrap();
        for (i, &hop) in path.iter().enumerate() {
            match peel(&keys.key(hop as usize), &cell).unwrap() {
                Peeled::Forward { next, content } => {
                    assert_eq!(next, path[i + 1], "hop {i} forwards to the wrong node");
                    cell = frame(&content, cell_size, &mut junk).unwrap();
                }
                Peeled::Deliver { payload } => {
                    assert_eq!(i, path.len() - 1, "delivered early at hop {i}");
                    return payload;
                }
            }
        }
        panic!("message never delivered");
    }

    #[test]
    fn single_hop_roundtrip() {
        let keys = keystore();
        let wire = build(&keys, &[3], b"hello receiver", &nonces(1)).unwrap();
        let got = relay(&keys, &[3], wire, 512);
        assert_eq!(got, b"hello receiver");
    }

    #[test]
    fn five_hop_roundtrip_onion_routing_i_style() {
        let keys = keystore();
        let path = [2u16, 7, 1, 9, 4];
        let payload = b"GET / HTTP/1.0";
        let wire = build(&keys, &path, payload, &nonces(5)).unwrap();
        assert_eq!(wire.len(), wire_len(5, payload.len()));
        let got = relay(&keys, &path, wire, 512);
        assert_eq!(got, payload);
    }

    #[test]
    fn cyclic_path_with_repeated_node_works() {
        // Crowds-style paths may revisit a node; distinct per-layer nonces
        // keep the keystreams independent.
        let keys = keystore();
        let path = [2u16, 5, 2, 5, 2];
        let wire = build(&keys, &path, b"loop", &nonces(5)).unwrap();
        let got = relay(&keys, &path, wire, 512);
        assert_eq!(got, b"loop");
    }

    #[test]
    fn wrong_node_key_fails_mac() {
        let keys = keystore();
        let wire = build(&keys, &[3, 4], b"secret", &nonces(2)).unwrap();
        let mut junk = || 0u8;
        let cell = frame(&wire, 512, &mut junk).unwrap();
        // node 5 intercepts a cell addressed to node 3
        assert_eq!(peel(&keys.key(5), &cell), Err(Error::BadMac));
    }

    #[test]
    fn tampering_detected() {
        let keys = keystore();
        let wire = build(&keys, &[3], b"secret", &nonces(1)).unwrap();
        let mut junk = || 0u8;
        let mut cell = frame(&wire, 512, &mut junk).unwrap();
        cell[20] ^= 0x01;
        assert_eq!(peel(&keys.key(3), &cell), Err(Error::BadMac));
    }

    #[test]
    fn junk_tail_does_not_affect_peeling() {
        let keys = keystore();
        let wire = build(&keys, &[6], b"payload", &nonces(1)).unwrap();
        let mut a = frame(&wire, 512, &mut || 0xAA).unwrap();
        let b = frame(&wire, 512, &mut || 0x55).unwrap();
        assert_eq!(peel(&keys.key(6), &a), peel(&keys.key(6), &b));
        // and the two framings differ on the wire (junk hides the length)
        assert_ne!(a, b);
        a.truncate(wire.len());
    }

    #[test]
    fn cells_are_unlinkable_across_a_hop() {
        // an outside observer comparing the cell entering node 3 with the
        // cell leaving it sees no shared bytes beyond chance
        let keys = keystore();
        let path = [3u16, 8];
        let wire = build(&keys, &path, &[0u8; 64], &nonces(2)).unwrap();
        // distinct junk streams, as a CSPRNG would produce
        let mut j1 = 1u8;
        let incoming = frame(&wire, 512, &mut || {
            j1 = j1.wrapping_mul(31).wrapping_add(7);
            j1
        })
        .unwrap();
        let Peeled::Forward { content, .. } = peel(&keys.key(3), &incoming).unwrap() else {
            panic!("expected forward")
        };
        let mut j2 = 101u8;
        let outgoing = frame(&content, 512, &mut || {
            j2 = j2.wrapping_mul(29).wrapping_add(13);
            j2
        })
        .unwrap();
        let matching = incoming
            .iter()
            .zip(&outgoing)
            .filter(|(a, b)| a == b)
            .count();
        // 512 positions, ~2 expected matches by chance; allow generous slack
        assert!(matching < 24, "cells share {matching} positions");
    }

    #[test]
    fn deliver_marker_collision_rejected() {
        let keys = keystore();
        assert!(build(&keys, &[DELIVER], b"x", &nonces(1)).is_err());
        assert!(build(&keys, &[], b"x", &[]).is_err());
        assert!(build(&keys, &[1, 2], b"x", &nonces(1)).is_err());
    }

    #[test]
    fn frame_rejects_oversized_content() {
        assert!(frame(&[0u8; 600], 512, &mut || 0).is_err());
        assert!(frame_filled(&[0u8; 600], 512, |_| {}).is_err());
    }

    #[test]
    fn filled_frames_keep_the_content_and_junk_only_the_tail() {
        let content = [9u8; 40];
        let mut tail_len = 0;
        let cell = frame_filled(&content, 128, |tail| {
            tail_len = tail.len();
            tail.fill(0xEE);
        })
        .unwrap();
        assert_eq!(tail_len, 88);
        assert_eq!(&cell[..40], &content);
        assert!(cell[40..].iter().all(|&b| b == 0xEE));
        let mut n = 0u8;
        let per_byte = frame(&content, 128, || {
            n = n.wrapping_add(1);
            n
        })
        .unwrap();
        let expected: Vec<u8> = (1..=88).collect();
        assert_eq!(&per_byte[40..], &expected[..], "junk is drawn in order");
    }

    #[test]
    fn truncated_cell_rejected() {
        let keys = keystore();
        assert!(matches!(
            peel(&keys.key(0), &[0u8; 10]),
            Err(Error::Malformed(_))
        ));
    }

    /// Reference `peel` that decrypts the whole body, junk tail
    /// included, before it reads the header.
    fn peel_full_body(master: &MasterKey, cell: &[u8]) -> Result<Peeled> {
        if cell.len() < LAYER_OVERHEAD {
            return Err(Error::Malformed(format!(
                "cell of {} bytes is shorter than one layer ({LAYER_OVERHEAD})",
                cell.len()
            )));
        }
        let nonce: [u8; NONCE_LEN] = cell[..NONCE_LEN].try_into().expect("length checked");
        let (enc_key, mac_key) = master.layer_keys(&nonce);
        let mut body = cell[NONCE_LEN..].to_vec();
        chacha20::xor_stream(&enc_key, &nonce, 1, &mut body);
        let next = u16::from_be_bytes([body[16], body[17]]);
        let len = u16::from_be_bytes([body[18], body[19]]) as usize;
        if HEADER_LEN + len > body.len() {
            return Err(Error::BadMac);
        }
        let tag = poly1305::tag(&mac_key, &body[16..HEADER_LEN + len]);
        if !verify_mac(&tag, &body[..16]) {
            return Err(Error::BadMac);
        }
        let content = body[HEADER_LEN..HEADER_LEN + len].to_vec();
        Ok(if next == DELIVER {
            Peeled::Deliver { payload: content }
        } else {
            Peeled::Forward { next, content }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        #[test]
        fn peel_matches_the_full_body_oracle(
            hops in 1usize..5,
            payload in proptest::collection::vec(any::<u8>(), 0..100),
            cell_size in 240usize..2049,
            junk_seed in any::<u8>(),
            mode in 0usize..6,
            at in any::<u64>(),
            flip in 1u8..=255,
            peeler in 0usize..16,
        ) {
            let keys = keystore();
            let path: Vec<u16> = (0..hops).map(|i| ((i * 5 + 3) % 16) as u16).collect();
            let wire = build(&keys, &path, &payload, &nonces(hops)).unwrap();
            let mut state = junk_seed;
            let mut cell = frame(&wire, cell_size, || {
                state = state.wrapping_mul(167).wrapping_add(13);
                state
            })
            .unwrap();
            let pick = |len: usize| (at % len as u64) as usize;
            match mode {
                // intact
                0 => {}
                // one tampered byte anywhere: nonce, header, content or junk
                1 => {
                    let i = pick(cell.len());
                    cell[i] ^= flip;
                }
                // a tampered length field, usually overrunning the cell
                2 => {
                    cell[NONCE_LEN + 18] ^= flip;
                    cell[NONCE_LEN + 19] ^= (at >> 8) as u8;
                }
                // a short cell: cut inside the header, content or junk
                3 => cell.truncate(pick(cell.len() + 1)),
                // random bytes
                4 => {
                    let mut x = at | 1;
                    cell.truncate(pick(cell.len() + 1));
                    for b in &mut cell {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        *b = x as u8;
                    }
                }
                // junk only, from another stream
                _ => {
                    for b in &mut cell[wire.len()..] {
                        *b ^= flip;
                    }
                }
            }
            // usually the first hop's key; sometimes a node it is not for
            let key = keys.key(if peeler < 12 { path[0] as usize } else { peeler });
            prop_assert_eq!(peel(&key, &cell), peel_full_body(&key, &cell));
        }
    }

    #[test]
    fn max_payload_accounting() {
        assert_eq!(max_payload(512, 5), Some(512 - 5 * LAYER_OVERHEAD));
        assert_eq!(max_payload(64, 3), None);
        // a payload at exactly the bound fits
        let keys = keystore();
        let hops = [1u16, 2, 3];
        let payload = vec![7u8; max_payload(512, 3).unwrap()];
        let wire = build(&keys, &hops, &payload, &nonces(3)).unwrap();
        assert_eq!(wire.len(), 512);
        let got = relay(&keys, &hops, wire, 512);
        assert_eq!(got, payload);
    }
}
