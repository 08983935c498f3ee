//! Property tests for the relay layer's decoders of outside input: the
//! signed-descriptor wire decoder and the directory text parser return
//! `Ok` or `Err` on any input and never panic, whether the input is
//! arbitrary or one byte away from a valid encoding; and a descriptor
//! survives an encode/decode round trip whatever its fields.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

use anonroute_relay::{Directory, RelayDescriptor, SignedDescriptor};
use proptest::prelude::*;

fn bytes(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), len)
}

/// Any IPv4 or IPv6 socket address that `SocketAddr`'s text form can
/// carry (no IPv6 flow label or scope id).
fn socket_addr(v6: bool, octets: &[u8], port: u16) -> SocketAddr {
    let ip = if v6 {
        let mut raw = [0u8; 16];
        raw.copy_from_slice(&octets[..16]);
        IpAddr::V6(Ipv6Addr::from(raw))
    } else {
        IpAddr::V4(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
    };
    SocketAddr::new(ip, port)
}

fn valid_descriptor() -> Vec<u8> {
    let addr = "127.0.0.1:9001".parse().expect("loopback addr");
    RelayDescriptor::derive(b"decoder-props", 3, addr, 7)
        .sign(b"decoder-props")
        .encode()
}

const VALID_DIRECTORY: &str = "\
# a small directory
receiver 127.0.0.1:9000
0 127.0.0.1:9001
1 127.0.0.1:9002

2 [::1]:9003
";

/// Characters the directory format is made of, plus a few it is not,
/// so arbitrary text often gets past the first checks.
const DIRECTORY_ALPHABET: &[u8] = b"receiver 0123456789.:[]#\n\r\t -abcxyz\xff";

fn directory_text(picks: &[u8]) -> String {
    let raw: Vec<u8> = picks
        .iter()
        .map(|&p| DIRECTORY_ALPHABET[p as usize % DIRECTORY_ALPHABET.len()])
        .collect();
    String::from_utf8_lossy(&raw).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn descriptor_decode_never_panics_on_arbitrary_bytes(input in bytes(0..=300)) {
        let _ = SignedDescriptor::decode(&input);
    }

    #[test]
    fn descriptor_decode_never_panics_one_byte_from_valid(
        at in any::<usize>(),
        value in any::<u8>(),
        cut in any::<usize>(),
    ) {
        let valid = valid_descriptor();
        let mut mutated = valid.clone();
        let at = at % mutated.len();
        mutated[at] = value;
        let _ = SignedDescriptor::decode(&mutated);
        // every proper prefix is truncated
        let cut = cut % valid.len();
        prop_assert!(SignedDescriptor::decode(&valid[..cut]).is_err());
    }

    #[test]
    fn arbitrary_descriptors_roundtrip(
        id in any::<u64>(),
        version in any::<u64>(),
        bandwidth_weight in any::<u32>(),
        leaving in any::<bool>(),
        v6 in any::<bool>(),
        octets in bytes(16..=16),
        port in any::<u16>(),
        public in bytes(32..=32),
        sig in bytes(32..=32),
    ) {
        let signed = SignedDescriptor {
            descriptor: RelayDescriptor {
                id,
                addr: socket_addr(v6, &octets, port),
                public: public.try_into().expect("32 bytes"),
                bandwidth_weight,
                version,
                leaving,
            },
            sig: sig.try_into().expect("32 bytes"),
        };
        prop_assert_eq!(SignedDescriptor::decode(&signed.encode()).unwrap(), signed);
    }

    #[test]
    fn directory_parse_never_panics_on_arbitrary_text(
        picks in bytes(0..=200),
        raw in bytes(0..=64),
    ) {
        let _ = Directory::parse(&directory_text(&picks), b"decoder-props");
        let _ = Directory::parse(&String::from_utf8_lossy(&raw), b"decoder-props");
    }

    #[test]
    fn directory_parse_never_panics_one_byte_from_valid(
        at in any::<usize>(),
        value in any::<u8>(),
        cut in any::<usize>(),
    ) {
        prop_assert!(Directory::parse(VALID_DIRECTORY, b"decoder-props").is_ok());
        let mut mutated = VALID_DIRECTORY.as_bytes().to_vec();
        let at = at % mutated.len();
        mutated[at] = value;
        let _ = Directory::parse(&String::from_utf8_lossy(&mutated), b"decoder-props");
        let cut = cut % VALID_DIRECTORY.len();
        let truncated = String::from_utf8_lossy(&VALID_DIRECTORY.as_bytes()[..cut]);
        let _ = Directory::parse(&truncated, b"decoder-props");
    }
}
