//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The mix/onion substrate needs a collision-resistant hash for its MACs
//! and key derivation; no external crypto crates are available offline, so
//! this is a self-contained implementation validated against the FIPS and
//! NIST test vectors in the test module.
//!
//! The compression function has two implementations with bit-identical
//! output. On x86_64 CPUs with the SHA extensions (`sha`, plus `sse4.1`
//! and `ssse3`), `compress` runs a kernel built on `sha256rnds2` and
//! `sha256msg1`/`sha256msg2`, about five times as fast per block. Every
//! other CPU and target runs the portable Rust code, which also serves as
//! the oracle: the tests run the FIPS/NIST vectors and the padding oracle
//! through both paths and proptest the kernel against the portable code
//! on arbitrary states and blocks. The check is made at run time (std
//! caches it) and nothing selects a path by hand. The call into the
//! kernel is the crate's one `unsafe` block.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 compression function: folds one block into a state.
type Compress = fn(&mut [u32; 8], &[u8; BLOCK_LEN]);

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use anonroute_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), anonroute_crypto::sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] on a given compression function.
    fn update_with(&mut self, data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("exact chunk"));
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// [`Sha256::finalize`] on a given compression function.
    fn finalize_with(mut self, compress: Compress) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, zeroes, then the 64-bit length: one block, or two when
        // fewer than 9 bytes are left after the buffered input
        let mut block = [0u8; BLOCK_LEN];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        block[self.buffered] = 0x80;
        if self.buffered >= BLOCK_LEN - 8 {
            compress(&mut self.state, &block);
            block = [0u8; BLOCK_LEN];
        }
        block[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &block);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Folds one block into `state`: the SHA-NI kernel when this CPU has the
/// SHA extensions, the portable code otherwise.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::detected() {
        // SAFETY: `sha_ni::detected` has just reported `sha`, `sse4.1` and
        // `ssse3` on this CPU (`sse2` is part of x86_64), the features
        // `sha_ni::compress` is compiled for; it reads and writes no memory
        // but its two reference arguments.
        #[allow(unsafe_code)]
        unsafe {
            sha_ni::compress(state, block)
        };
        return;
    }
    compress_portable(state, block);
}

/// The SHA-256 compression function in portable Rust: the fallback on
/// every CPU without SHA-NI, and the oracle the SHA-NI kernel is tested
/// against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // eight rounds per pass, renaming the working variables instead of
    // shifting them
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add(($e & $f) ^ (!$e & $g))
                .wrapping_add(K[$i])
                .wrapping_add(w[$i]);
            let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        };
    }
    for i in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The compression function on the x86 SHA extensions (Gulley et al.,
/// "Intel SHA Extensions", 2013).
///
/// The state lives in two vectors, ABEF and CDGH, the order
/// `sha256rnds2` takes; each `sha256rnds2` runs two rounds and each group
/// of four message words feeds two of them. `sha256msg1`/`sha256msg2`
/// extend the message schedule four words at a time. Vectors are built
/// with `_mm_set_epi32` from big-endian words and read back with
/// `_mm_extract_epi32`, so the kernel loads and stores through no pointer.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::*;

    /// Whether this CPU runs [`compress`]. std caches the CPUID probe, so
    /// each check is an atomic load.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// Message words `4i..4i + 4` of `block`, word `4i` in lane 0.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn words(block: &[u8; BLOCK_LEN], i: usize) -> __m128i {
        let w = |j: usize| {
            let at = 16 * i + 4 * j;
            u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
        };
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    /// Extends the schedule by four words: `w0..w3` hold words
    /// `t - 16..t`, the result words `t..t + 4`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let minus7 = _mm_alignr_epi8::<4>(w3, w2);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, minus7), w3)
    }

    /// Runs rounds `4i..4i + 4` on message words `w`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// Folds one block into `state`, as `super::compress_portable` does.
    /// Call it only where [`detected`] holds: the CPU must have every
    /// feature the kernel is compiled for.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let start_abef = _mm_set_epi32(a, b, e, f);
        let start_cdgh = _mm_set_epi32(c, d, g, h);
        let (mut abef, mut cdgh) = (start_abef, start_cdgh);
        let mut w = [
            words(block, 0),
            words(block, 1),
            words(block, 2),
            words(block, 3),
        ];
        for (i, &wi) in w.iter().enumerate() {
            rounds4(&mut abef, &mut cdgh, wi, i);
        }
        // group i replaces group i - 4 in slot i % 4
        for i in 4..16 {
            let next = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
            w[i % 4] = next;
            rounds4(&mut abef, &mut cdgh, next, i);
        }
        abef = _mm_add_epi32(abef, start_abef);
        cdgh = _mm_add_epi32(cdgh, start_cdgh);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

/// One-shot SHA-256 of `data`.
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The compression functions under test: the portable code on every
    /// CPU, and `compress` as well when it takes the SHA-NI path.
    fn paths() -> Vec<(&'static str, Compress)> {
        let mut paths: Vec<(&'static str, Compress)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            paths.push(("sha-ni", compress));
        }
        if paths.len() == 1 {
            eprintln!("no SHA-NI on this CPU: testing the portable path only");
        }
        paths
    }

    /// A hasher on a given compression function.
    struct Hasher {
        inner: Sha256,
        compress: Compress,
    }

    impl Hasher {
        fn new(compress: Compress) -> Self {
            Hasher {
                inner: Sha256::new(),
                compress,
            }
        }

        fn update(&mut self, data: &[u8]) {
            self.inner.update_with(data, self.compress);
        }

        fn finalize(self) -> [u8; DIGEST_LEN] {
            self.inner.finalize_with(self.compress)
        }
    }

    /// Checks `digest(data)` against `want` on every path.
    fn check_vector(data: &[u8], want: &str) {
        for (name, compress) in paths() {
            let mut h = Hasher::new(compress);
            h.update(data);
            assert_eq!(hex(&h.finalize()), want, "{name}");
        }
        assert_eq!(hex(&digest(data)), want);
    }

    #[test]
    fn fips_vector_abc() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_empty() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn nist_vector_million_a() {
        for (name, compress) in paths() {
            let mut h = Hasher::new(compress);
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn incremental_equals_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let want = digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    /// Reference padding for `finalize`, one byte at a time: `0x80`,
    /// zero bytes until 56 bytes are buffered, then the bit length.
    fn finalize_bytewise(mut h: Hasher) -> [u8; DIGEST_LEN] {
        let bit_len = h.inner.total_len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.inner.buffered != 56 {
            h.update(&[0]);
        }
        let mut block = h.inner.buffer;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        (h.compress)(&mut h.inner.state, &block);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in h.inner.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn block_padding_matches_the_bytewise_oracle_at_every_length() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 151 + 7) as u8).collect();
        for (name, compress) in paths() {
            let mut state = 0x2545_F491_4F6C_DD1Du64;
            for len in 0..=data.len() {
                let msg = &data[..len];
                let mut oracle = Hasher::new(compress);
                for b in msg {
                    oracle.update(std::slice::from_ref(b));
                }
                let want = finalize_bytewise(oracle);
                for _ in 0..4 {
                    // xorshift64: two split points per round
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let a = (state % (len as u64 + 1)) as usize;
                    let b = ((state >> 32) % (len as u64 + 1)) as usize;
                    let (a, b) = (a.min(b), a.max(b));
                    let mut h = Hasher::new(compress);
                    h.update(&msg[..a]);
                    h.update(&msg[a..b]);
                    h.update(&msg[b..]);
                    assert_eq!(
                        h.finalize(),
                        want,
                        "{name}: len {len}, split at {a} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn exact_block_boundary_messages() {
        // messages of exactly 55, 56, 63, 64, 65 bytes hit all padding paths
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let data = vec![0xabu8; len];
            let d1 = digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn compress_matches_the_portable_oracle(
            state in proptest::collection::vec(any::<u32>(), 8..=8),
            block in proptest::collection::vec(any::<u8>(), 64..=64),
        ) {
            let state: [u32; 8] = state.try_into().expect("8 words");
            let block: [u8; BLOCK_LEN] = block.try_into().expect("64 bytes");
            let (mut fast, mut oracle) = (state, state);
            compress(&mut fast, &block);
            compress_portable(&mut oracle, &block);
            prop_assert_eq!(fast, oracle);
        }
    }
}
