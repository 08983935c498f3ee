//! HKDF with SHA-256 (RFC 5869): extract-and-expand key derivation, used
//! to derive independent per-layer encryption and MAC keys from a node's
//! long-term key and a packet nonce.

use crate::hmac::{hmac_sha256, HmacKey};
use crate::sha256::DIGEST_LEN;

/// HKDF-Extract: `PRK = HMAC-SHA-256(salt, ikm)`.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derives `out.len()` bytes of keying material from `prk`
/// and `info`.
///
/// # Panics
///
/// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit).
pub fn expand(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) {
    expand_with(&HmacKey::new(prk), info, out);
}

/// [`expand`] from a PRK already made an [`HmacKey`], for callers that
/// expand one PRK more than once.
///
/// # Panics
///
/// As [`expand`].
pub fn expand_with(prk: &HmacKey, info: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 255 * DIGEST_LEN, "hkdf output too long");
    // T(i) = HMAC(PRK, T(i-1) ‖ info ‖ i), with T(0) empty
    let mut t = [0u8; DIGEST_LEN];
    for (i, chunk) in out.chunks_mut(DIGEST_LEN).enumerate() {
        let prev: &[u8] = if i == 0 { &[] } else { &t };
        t = prk.mac_parts(&[prev, info, &[i as u8 + 1]]);
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// One-call extract-then-expand.
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) {
    let prk = extract(salt, ikm);
    expand(&prk, info, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc5869_test_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_test_case_2_long_io() {
        let ikm: Vec<u8> = (0x00u8..=0x4f).collect();
        let salt: Vec<u8> = (0x60u8..=0xaf).collect();
        let info: Vec<u8> = (0xb0u8..=0xff).collect();
        let mut okm = [0u8; 82];
        derive(&salt, &ikm, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_test_case_3_empty_salt_info() {
        let ikm = [0x0bu8; 22];
        let mut okm = [0u8; 42];
        derive(&[], &ikm, &[], &mut okm);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn distinct_infos_yield_independent_keys() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        derive(b"salt", b"ikm", b"enc", &mut a);
        derive(b"salt", b"ikm", b"mac", &mut b);
        assert_ne!(a, b);
    }
}
