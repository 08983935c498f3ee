//! HMAC-SHA-256 (RFC 2104), validated against the RFC 4231 test vectors.

use crate::sha256::{digest, Sha256, BLOCK_LEN, DIGEST_LEN};

/// An HMAC-SHA-256 key, kept as the SHA-256 midstates after its inner
/// and outer pad blocks: each MAC under it hashes only the message and
/// the inner digest, not the two pad blocks again.
///
/// # Examples
///
/// ```
/// use anonroute_crypto::hmac::{hmac_sha256, HmacKey};
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"message"), hmac_sha256(b"key", b"message"));
/// assert_eq!(key.mac_parts(&[b"mess", b"age"]), key.mac(b"message"));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // the midstates are key material
        write!(f, "HmacKey(…)")
    }
}

impl HmacKey {
    /// Absorbs `key`'s pad blocks. Keys longer than the SHA-256 block
    /// size are hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let padded = |pad: u8| {
            let mut block = key_block;
            block.iter_mut().for_each(|b| *b ^= pad);
            let mut h = Sha256::new();
            h.update(&block);
            h
        };
        HmacKey {
            inner: padded(0x36),
            outer: padded(0x5c),
        }
    }

    /// `HMAC-SHA-256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        self.mac_parts(&[message])
    }

    /// The MAC of the concatenation of `parts`, without joining them.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA-256(key, message)`.
///
/// Keys longer than the SHA-256 block size are hashed first, per RFC 2104.
/// A key that MACs many messages should be made an [`HmacKey`] once.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

/// Constant-time equality for MAC verification: the comparison time does
/// not depend on where the first mismatching byte is.
pub fn verify_mac(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut acc = 0u8;
    for (a, b) in expected.iter().zip(actual) {
        acc |= a ^ b;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        let data = [0xcdu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than \
                    block-size data. The key needs to be hashed before being used by the \
                    HMAC algorithm.";
        let mac = hmac_sha256(&key, msg);
        assert_eq!(
            hex(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn reused_keys_match_one_shot_macs_on_the_rfc4231_vectors() {
        let case7: &[u8] = b"This is a test using a larger than block-size key and a larger than \
                    block-size data. The key needs to be hashed before being used by the \
                    HMAC algorithm.";
        let case4_key: Vec<u8> = (1u8..=25).collect();
        let vectors: [(&[u8], &[u8]); 7] = [
            (&[0x0b; 20], b"Hi There"),
            (b"Jefe", b"what do ya want for nothing?"),
            (&[0xaa; 20], &[0xdd; 50]),
            (&case4_key, &[0xcd; 50]),
            (&[0x0c; 20], b"Test With Truncation"),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
            ),
            (&[0xaa; 131], case7),
        ];
        for (i, (key, msg)) in vectors.iter().enumerate() {
            let want = hmac_sha256(key, msg);
            let reused = HmacKey::new(key);
            for _ in 0..3 {
                assert_eq!(reused.mac(msg), want, "vector {i}");
            }
            for split in 0..=msg.len() {
                let (a, b) = msg.split_at(split);
                assert_eq!(reused.mac_parts(&[a, b]), want, "vector {i}, split {split}");
            }
        }
    }

    #[test]
    fn hmac_key_debug_hides_its_midstates() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey(…)");
    }

    #[test]
    fn verify_mac_accepts_equal_rejects_unequal() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(verify_mac(&a, &b));
        b[31] ^= 1;
        assert!(!verify_mac(&a, &b));
        assert!(!verify_mac(&a, &a[..16]));
    }
}
