//! # anonroute-crypto
//!
//! Self-contained cryptographic substrate for the `anonroute` mix-network
//! reproduction: SHA-256, HMAC-SHA-256, HKDF, the ChaCha20 stream cipher,
//! and fixed-size layered **onion cells** in the style of Chaum mixes /
//! Onion Routing (the systems analyzed by Guan et al., ICDCS 2002).
//!
//! Everything is implemented from scratch (no crypto crates are available
//! in this offline environment) and validated against the official test
//! vectors: FIPS 180-4 for SHA-256, RFC 4231 for HMAC, RFC 5869 for HKDF
//! and RFC 8439 for ChaCha20.
//!
//! SHA-256 compresses blocks with the x86 SHA extensions when the CPU
//! has them and with portable Rust otherwise; the digests are the same
//! (see [`sha256`]). The lint is `deny(unsafe_code)`, not `forbid`, for
//! the one `unsafe` block in the crate: the call into that kernel, made
//! only after a run-time check that the CPU has the features it was
//! compiled for.
//!
//! **Scope note:** this crate exists so that the simulated protocols carry
//! real layered encryption with authenticated peeling and bitwise
//! unlinkability — the properties the paper's system model presumes. It has
//! not been audited and is not intended for production use outside the
//! simulator.
//!
//! ## Example: route a message through three mixes
//!
//! ```
//! use anonroute_crypto::keys::KeyStore;
//! use anonroute_crypto::onion::{build, frame, peel, Peeled};
//!
//! let keys = KeyStore::from_seed(b"example", 8);
//! let path = [2u16, 5, 7];
//! let nonces = [[1u8; 12], [2u8; 12], [3u8; 12]];
//! let wire = build(&keys, &path, b"hi", &nonces)?;
//! let mut junk = || 0u8; // use a CSPRNG in production
//! let cell = frame(&wire, 512, &mut junk)?;
//!
//! // first mix peels its layer and learns only the next hop
//! match peel(&keys.key(2), &cell)? {
//!     Peeled::Forward { next, .. } => assert_eq!(next, 5),
//!     Peeled::Deliver { .. } => unreachable!(),
//! }
//! # Ok::<(), anonroute_crypto::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod error;
pub mod handshake;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod onion;
pub mod sha256;
pub mod x25519;

pub use error::{Error, Result};
