//! Poly1305 one-time authenticator (RFC 8439 §2.5), implemented from
//! scratch and validated against the RFC test vectors.
//!
//! The 32-byte key is `r ‖ s`: the message is read as 16-byte little-endian
//! blocks, each with a 1 appended above its top byte, and evaluated as a
//! polynomial at the clamped `r` modulo the prime 2¹³⁰ − 5; the tag is
//! that value plus `s`, modulo 2¹²⁸.
//!
//! The accumulator and `r` are held in three u64 limbs of 44, 44 and 42
//! bits (the "donna-64" layout), so each block costs nine u64 × u64 → u128
//! products and one carry chain. Between blocks the accumulator is only
//! partially reduced; [`tag`] reduces it fully before adding `s`.
//!
//! A key must authenticate one message only: two tags under the same key
//! reveal `r`. The onion layers get a fresh key per (master key, nonce)
//! pair from the ChaCha20 block function (RFC 8439 §2.6; see
//! [`crate::keys::MasterKey::layer_keys`]).

/// Key length in bytes: `r` (16) ‖ `s` (16).
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

const BLOCK_LEN: usize = 16;
const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// The Poly1305 tag of `message` under the one-time `key`.
///
/// # Examples
///
/// ```
/// use anonroute_crypto::poly1305::tag;
/// let key = [7u8; 32];
/// assert_eq!(tag(&key, b"message"), tag(&key, b"message"));
/// assert_ne!(tag(&key, b"message"), tag(&key, b"messagf"));
/// ```
pub fn tag(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
    let (t0, t1) = halves(&key[..16]);
    // r clamped as RFC 8439 §2.5 requires, split into 44/44/42-bit limbs
    let r0 = t0 & 0xffc_0fff_ffff;
    let r1 = ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff;
    let r2 = (t1 >> 24) & 0x00f_ffff_fc0f;
    // h1·r2 and h2·r1 weigh 2¹³² = 4 · 2¹³⁰ ≡ 20 (mod p), and h2·r2 weighs
    // 2¹⁷⁶ ≡ 20 · 2⁴⁴: those products fold back into lower limbs times 20
    let r1_20 = r1 * 20;
    let r2_20 = r2 * 20;

    let mut h = [0u64; 3];
    let mut absorb = |block: &[u8; BLOCK_LEN], hibit: u64| {
        let (m0, m1) = halves(block);
        let h0 = h[0] + (m0 & MASK44);
        let h1 = h[1] + (((m0 >> 44) | (m1 << 20)) & MASK44);
        let h2 = h[2] + ((m1 >> 24) | hibit);
        let wide = |a: u64, b: u64| a as u128 * b as u128;
        let d0 = wide(h0, r0) + wide(h1, r2_20) + wide(h2, r1_20);
        let d1 = wide(h0, r1) + wide(h1, r0) + wide(h2, r2_20);
        let d2 = wide(h0, r2) + wide(h1, r1) + wide(h2, r0);
        let d1 = d1 + (d0 >> 44);
        let d2 = d2 + (d1 >> 44);
        let carry = (d2 >> 42) as u64;
        let h0 = (d0 as u64 & MASK44) + carry * 5;
        h = [
            h0 & MASK44,
            (d1 as u64 & MASK44) + (h0 >> 44),
            d2 as u64 & MASK42,
        ];
    };
    let mut blocks = message.chunks_exact(BLOCK_LEN);
    for block in &mut blocks {
        // every full block carries its appended 1 at bit 128 (limb 2, bit 40)
        absorb(block.try_into().expect("exact chunk"), 1 << 40);
    }
    let rest = blocks.remainder();
    if !rest.is_empty() {
        // a short final block carries its 1 right after its last byte
        let mut last = [0u8; BLOCK_LEN];
        last[..rest.len()].copy_from_slice(rest);
        last[rest.len()] = 1;
        absorb(&last, 0);
    }

    // two full carry passes leave h below 2¹³⁰
    let [mut h0, mut h1, mut h2] = h;
    for _ in 0..2 {
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
    }

    // g = h + 5 − 2¹³⁰ = h − p; keep it (without a branch) when h ≥ p
    let mut g0 = h0 + 5;
    let mut carry = g0 >> 44;
    g0 &= MASK44;
    let mut g1 = h1 + carry;
    carry = g1 >> 44;
    g1 &= MASK44;
    let g2 = (h2 + carry).wrapping_sub(1 << 42);
    let keep_g = (g2 >> 63).wrapping_sub(1);
    h0 = (h0 & !keep_g) | (g0 & keep_g);
    h1 = (h1 & !keep_g) | (g1 & keep_g);
    h2 = (h2 & !keep_g) | (g2 & keep_g);

    // tag = (h + s) mod 2¹²⁸
    let (s0, s1) = halves(&key[16..]);
    h0 += s0 & MASK44;
    carry = h0 >> 44;
    h0 &= MASK44;
    h1 += (((s0 >> 44) | (s1 << 20)) & MASK44) + carry;
    carry = h1 >> 44;
    h1 &= MASK44;
    h2 += (s1 >> 24) + carry;
    let mut out = [0u8; TAG_LEN];
    out[..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
    out[8..].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
    out
}

/// The two little-endian u64 words of a 16-byte block.
fn halves(block: &[u8]) -> (u64, u64) {
    let word = |i: usize| u64::from_le_bytes(block[i..i + 8].try_into().expect("8 bytes"));
    (word(0), word(8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn key_from(r: &str, s: &str) -> [u8; KEY_LEN] {
        [unhex(r), unhex(s)].concat().try_into().unwrap()
    }

    #[test]
    fn rfc8439_tag_vector() {
        // RFC 8439 section 2.5.2
        let key = key_from(
            "85 d6 be 78 57 55 6d 33 7f 44 52 fe 42 d5 06 a8",
            "01 03 80 8a fb 0d b2 fd 4a bf f6 af 41 49 f5 1b",
        );
        assert_eq!(
            tag(&key, b"Cryptographic Forum Research Group").to_vec(),
            unhex("a8 06 1d c1 30 51 36 c6 c2 2b 8b af 0c 01 27 a9")
        );
    }

    /// Edge cases of the final reduction and the `s` addition, in the
    /// style of RFC 8439 appendix A.3; each expected tag follows from
    /// the definition by hand (2¹³⁰ ≡ 5 mod p).
    #[test]
    fn reduction_edge_cases() {
        let r2 = "02 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00";
        let r1 = "01 00 00 00 00 00 00 00 00 00 00 00 00 00 00 00";
        let zero = "00".repeat(16);
        let ones = "ff".repeat(16);
        let cases = [
            // h = 2·(2¹²⁹ − 1) = p + 3, not fully reduced until the end
            (r2, zero.as_str(), ones.clone(), "03"),
            // h + s overflows 2¹²⁸
            (r2, ones.as_str(), format!("02{}", "00".repeat(15)), "03"),
            // a carry out of every limb: h = 2¹³⁰ + 2¹²⁸ ≡ 2¹²⁸ + 5
            (
                r1,
                zero.as_str(),
                format!("{ones}f0{}11{}", "ff".repeat(15), "00".repeat(15)),
                "05",
            ),
            // h = 2¹³⁰ − 6 = p − 1: just below p, kept as is
            (
                r2,
                zero.as_str(),
                format!("fd{}", "ff".repeat(15)),
                "faffffffffffffffffffffffffffffff",
            ),
        ];
        for (r, s, message, expected) in cases {
            let mut want = unhex(expected);
            want.resize(TAG_LEN, 0);
            assert_eq!(
                tag(&key_from(r, s), &unhex(&message)).to_vec(),
                want,
                "{message}"
            );
        }
    }

    /// Unsigned big numbers as little-endian u32 limbs, for a reference
    /// Poly1305 that shares no arithmetic with [`tag`].
    mod big {
        use std::cmp::Ordering;

        pub type Big = Vec<u32>;

        pub fn from_le_bytes(bytes: &[u8]) -> Big {
            bytes
                .chunks(4)
                .map(|c| c.iter().rev().fold(0u32, |acc, &b| acc << 8 | b as u32))
                .collect()
        }

        fn trim(mut a: Big) -> Big {
            while a.last() == Some(&0) {
                a.pop();
            }
            a
        }

        pub fn add(a: &[u32], b: &[u32]) -> Big {
            let mut out = Vec::new();
            let mut carry = 0u64;
            for i in 0..a.len().max(b.len()) {
                let sum = *a.get(i).unwrap_or(&0) as u64 + *b.get(i).unwrap_or(&0) as u64 + carry;
                out.push(sum as u32);
                carry = sum >> 32;
            }
            out.push(carry as u32);
            trim(out)
        }

        pub fn mul(a: &[u32], b: &[u32]) -> Big {
            let mut out = vec![0u32; a.len() + b.len() + 1];
            for (i, &x) in a.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &y) in b.iter().enumerate() {
                    let t = out[i + j] as u64 + x as u64 * y as u64 + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                out[i + b.len()] = carry as u32;
            }
            trim(out)
        }

        fn cmp(a: &[u32], b: &[u32]) -> Ordering {
            let (a, b) = (trim(a.to_vec()), trim(b.to_vec()));
            a.len()
                .cmp(&b.len())
                .then_with(|| a.iter().rev().cmp(b.iter().rev()))
        }

        fn sub(a: &[u32], b: &[u32]) -> Big {
            let mut out = Vec::new();
            let mut borrow = 0i64;
            for (i, &x) in a.iter().enumerate() {
                let d = x as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
                out.push(d.rem_euclid(1 << 32) as u32);
                borrow = (d < 0) as i64;
            }
            trim(out)
        }

        fn shl(a: &[u32], bits: usize) -> Big {
            let mut out = vec![0u32; bits / 32];
            let mut carry = 0u32;
            for &x in a {
                let shift = bits % 32;
                out.push(if shift == 0 { x } else { x << shift | carry });
                carry = if shift == 0 { 0 } else { x >> (32 - shift) };
            }
            out.push(carry);
            trim(out)
        }

        /// `a mod m` by binary long division.
        pub fn rem(a: &[u32], m: &[u32]) -> Big {
            let mut a = trim(a.to_vec());
            for bits in (0..32 * a.len()).rev() {
                let shifted = shl(m, bits);
                if cmp(&a, &shifted) != Ordering::Less {
                    a = sub(&a, &shifted);
                }
            }
            a
        }
    }

    /// Poly1305 straight from its definition: clamp `r` byte by byte,
    /// evaluate the polynomial with full reduction mod 2¹³⁰ − 5 after
    /// every block, add `s` and keep the low 16 bytes.
    fn reference_tag(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
        let mut r = key[..16].to_vec();
        for i in [3, 7, 11, 15] {
            r[i] &= 0x0f;
        }
        for i in [4, 8, 12] {
            r[i] &= 0xfc;
        }
        let r = big::from_le_bytes(&r);
        let mut p_bytes = [0xffu8; 17];
        p_bytes[0] = 0xfb;
        p_bytes[16] = 0x03;
        let p = big::from_le_bytes(&p_bytes);
        let mut h = big::Big::new();
        for chunk in message.chunks(16) {
            let mut n = chunk.to_vec();
            n.push(1);
            h = big::rem(&big::mul(&big::add(&h, &big::from_le_bytes(&n)), &r), &p);
        }
        let mut h = big::add(&h, &big::from_le_bytes(&key[16..]));
        h.resize(4, 0);
        let mut out = [0u8; TAG_LEN];
        for (i, limb) in h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    #[test]
    fn reference_matches_the_rfc_vector() {
        let key = key_from(
            "85 d6 be 78 57 55 6d 33 7f 44 52 fe 42 d5 06 a8",
            "01 03 80 8a fb 0d b2 fd 4a bf f6 af 41 49 f5 1b",
        );
        let message = b"Cryptographic Forum Research Group";
        assert_eq!(reference_tag(&key, message), tag(&key, message));
    }

    // Random keys and messages cannot reach the final `h ≥ p`
    // reduction: only five accumulator values take it. So `r` is
    // random, at its clamp maxima, 1 or 2, and each full block is
    // random or one of the blocks that keep the accumulator near
    // 2¹³⁰ (all ones, 2¹²⁸ − 3) or zero; an optional partial block
    // of random bytes ends the message.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(600))]
        #[test]
        fn tag_matches_the_reference(
            key in proptest::collection::vec(any::<u8>(), KEY_LEN),
            r_kind in 0usize..4,
            picks in proptest::collection::vec(0usize..4, 0..5),
            random in proptest::collection::vec(any::<u8>(), 5 * BLOCK_LEN),
            tail in 0usize..32,
        ) {
            let mut key: [u8; KEY_LEN] = key.try_into().unwrap();
            match r_kind {
                0 => {}
                1 => key[..16].fill(0xff),
                k => {
                    key[..16].fill(0);
                    key[0] = k as u8 - 1;
                }
            }
            let mut message = Vec::new();
            for (i, &pick) in picks.iter().enumerate() {
                let mut block = [0xffu8; BLOCK_LEN];
                match pick {
                    0 => {}
                    1 => block[0] = 0xfd,
                    2 => block = [0; BLOCK_LEN],
                    _ => block.copy_from_slice(&random[i * BLOCK_LEN..][..BLOCK_LEN]),
                }
                message.extend_from_slice(&block);
            }
            if tail < BLOCK_LEN {
                message.extend_from_slice(&random[4 * BLOCK_LEN..][..tail]);
            }
            prop_assert_eq!(tag(&key, &message), reference_tag(&key, &message));
        }
    }
}
