//! Long-term node keys and deterministic key provisioning.
//!
//! The paper's systems predate modern key-exchange; classic Chaum mixes
//! assume the sender knows a key for every mix. We model that with
//! symmetric 256-bit master keys per node, provisioned from a deployment
//! seed via HKDF.
//!
//! Per-packet layer keys (layer format v2) come from one ChaCha20 block
//! keyed by the master key under the packet nonce, with block counter 0:
//! bytes 0..32 are the layer's Poly1305 key, exactly the one-time key
//! generation of RFC 8439 §2.6, and bytes 32..64 its encryption key. So a
//! master key never encrypts data itself, and each (master key, nonce)
//! pair must seal one layer only: a second layer under the same pair
//! would reuse both the keystream and the one-time MAC key.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::chacha20;
use crate::hkdf;
use crate::hmac::HmacKey;

/// A node's long-term 256-bit master key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MasterKey(pub [u8; 32]);

impl std::fmt::Debug for MasterKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // never print key material
        write!(f, "MasterKey(…)")
    }
}

impl MasterKey {
    /// Derives the per-packet `(encryption, mac)` key pair bound to a
    /// packet nonce: the two halves of `ChaCha20(master, nonce, 0)`, the
    /// MAC key first (see the module doc). The nonce must not repeat
    /// under one master key.
    pub fn layer_keys(&self, nonce: &[u8; 12]) -> ([u8; 32], [u8; 32]) {
        let block = chacha20::block(&self.0, nonce, 0);
        let (mac, enc) = block.split_at(32);
        (
            enc.try_into().expect("32-byte half"),
            mac.try_into().expect("32-byte half"),
        )
    }
}

/// Key material for a whole deployment: one master key per member node.
///
/// A key is a pure function of `(seed, id)`, so each is derived by HKDF on
/// first use and memoized: a store for a large network costs nothing for
/// the nodes no route ever visits. The seed's HKDF-Extract is the same
/// for every key, so the store runs it once and keeps the PRK as an
/// [`HmacKey`].
///
/// # Examples
///
/// ```
/// use anonroute_crypto::keys::KeyStore;
/// let ks = KeyStore::from_seed(b"deployment-2026", 16);
/// assert_eq!(ks.len(), 16);
/// assert_ne!(ks.key(0), ks.key(1));
/// ```
#[derive(Debug)]
pub struct KeyStore {
    prk: HmacKey,
    n: usize,
    derived: Mutex<HashMap<usize, MasterKey>>,
}

impl Clone for KeyStore {
    fn clone(&self) -> Self {
        KeyStore {
            prk: self.prk.clone(),
            n: self.n,
            derived: Mutex::new(self.derived.lock().expect("key memo lock").clone()),
        }
    }
}

impl KeyStore {
    /// A deployment of `n` node keys provisioned from a seed; each key is
    /// derived when first asked for.
    pub fn from_seed(seed: &[u8], n: usize) -> Self {
        KeyStore {
            prk: HmacKey::new(&hkdf::extract(b"anonroute-keystore", seed)),
            n,
            derived: Mutex::new(HashMap::new()),
        }
    }

    /// Number of provisioned nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The master key of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn key(&self, id: usize) -> MasterKey {
        assert!(id < self.n, "node {id} out of range (n={})", self.n);
        *self
            .derived
            .lock()
            .expect("key memo lock")
            .entry(id)
            .or_insert_with(|| {
                // HKDF-Expand of the node's label under the seed's PRK
                let mut info = [0u8; NODE_KEY_LABEL.len() + 8];
                info[..NODE_KEY_LABEL.len()].copy_from_slice(NODE_KEY_LABEL);
                info[NODE_KEY_LABEL.len()..].copy_from_slice(&(id as u64).to_be_bytes());
                let mut key = [0u8; 32];
                hkdf::expand_with(&self.prk, &info, &mut key);
                MasterKey(key)
            })
    }
}

/// HKDF-Expand label of a node key; the node id follows it, big-endian.
const NODE_KEY_LABEL: &[u8] = b"anonroute-node-key-v1";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_is_deterministic() {
        let a = KeyStore::from_seed(b"seed", 4);
        let b = KeyStore::from_seed(b"seed", 4);
        for i in 0..4 {
            assert_eq!(a.key(i), b.key(i));
        }
    }

    #[test]
    fn different_seeds_give_different_keys() {
        let a = KeyStore::from_seed(b"seed-a", 2);
        let b = KeyStore::from_seed(b"seed-b", 2);
        assert_ne!(a.key(0), b.key(0));
    }

    #[test]
    fn all_node_keys_are_distinct() {
        let ks = KeyStore::from_seed(b"x", 64);
        for i in 0..64 {
            for j in (i + 1)..64 {
                assert_ne!(ks.key(i), ks.key(j), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn lazy_keys_equal_eagerly_derived_keys() {
        let n = 1000;
        let ks = KeyStore::from_seed(b"lazy", n);
        for id in [0, 1, n - 1] {
            // the eager provisioning loop every key store used to run
            let mut eager = [0u8; 32];
            let info = [
                b"anonroute-node-key-v1" as &[u8],
                &(id as u64).to_be_bytes(),
            ]
            .concat();
            hkdf::derive(b"anonroute-keystore", b"lazy", &info, &mut eager);
            assert_eq!(ks.key(id), MasterKey(eager), "node {id}");
            assert_eq!(ks.key(id), MasterKey(eager), "memoized node {id}");
        }
        assert_eq!(
            ks.derived.lock().unwrap().len(),
            3,
            "only asked-for keys are derived"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn keys_past_the_deployment_are_rejected() {
        KeyStore::from_seed(b"x", 4).key(4);
    }

    #[test]
    fn layer_keys_bound_to_nonce_and_purpose() {
        let k = KeyStore::from_seed(b"x", 1).key(0);
        let (e1, m1) = k.layer_keys(&[1u8; 12]);
        let (e2, m2) = k.layer_keys(&[2u8; 12]);
        assert_ne!(e1, e2);
        assert_ne!(m1, m2);
        assert_ne!(e1, m1);
    }

    #[test]
    fn layer_keys_are_the_halves_of_chacha20_block_zero() {
        let k = KeyStore::from_seed(b"layers", 3).key(2);
        for nonce in [[0u8; 12], [7u8; 12], *b"nonce-bytes!"] {
            let block = chacha20::block(&k.0, &nonce, 0);
            let (enc, mac) = k.layer_keys(&nonce);
            assert_eq!(mac[..], block[..32], "MAC key: bytes 0..32");
            assert_eq!(enc[..], block[32..], "encryption key: bytes 32..64");
        }
    }

    #[test]
    fn mac_key_is_the_rfc8439_poly1305_key() {
        // RFC 8439 section 2.6.2
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        let (_, mac) = MasterKey(key).layer_keys(&nonce);
        assert_eq!(
            mac,
            [
                0x8a, 0xd5, 0xa0, 0x8b, 0x90, 0x5f, 0x81, 0xcc, 0x81, 0x50, 0x40, 0x27, 0x4a, 0xb2,
                0x94, 0x71, 0xa8, 0x33, 0xb6, 0x37, 0xe3, 0xfd, 0x0d, 0xa5, 0x08, 0xdb, 0xb8, 0xe2,
                0xfd, 0xd1, 0xa6, 0x46,
            ]
        );
    }

    #[test]
    fn debug_never_leaks_key_bytes() {
        let k = MasterKey([0xab; 32]);
        let s = format!("{k:?}");
        assert!(!s.contains("ab"));
    }
}
