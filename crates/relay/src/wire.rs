//! The length-prefixed TCP wire protocol.
//!
//! Every message on a relay connection is one frame:
//!
//! ```text
//! frame := len(u32 BE) ‖ tag(u8) ‖ body          len = |tag ‖ body|
//! CELL    (tag 1): body = msg(u64 BE) ‖ relay cell bytes
//! DELIVER (tag 2): body = msg(u64 BE) ‖ from(u16 BE) ‖ payload
//! GOSSIP  (tag 3): body = encoded directory snapshot
//! ```
//!
//! `CELL` carries one fixed-size onion relay cell (see [`crate::circuit`])
//! between members; `DELIVER` carries a decrypted payload from the exit
//! relay (or directly from a sender, for the paper's `l = 0` case) to the
//! receiver; `GOSSIP` carries a serialized [`crate::authority::NetworkView`]
//! snapshot pushed by a peer maintaining topology (see [`crate::gossip`]).
//!
//! The cleartext `msg` field is a correlation tag, not an addressing
//! field: it models the paper's worst-case Section-4 assumption that the
//! adversary can correlate sightings of the same message across links
//! (exactly the semantics of [`anonroute_sim::MsgId`] in the simulator).
//! Honest relays never interpret it.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};

/// Upper bound on a frame body, guarding allocation on malformed input.
pub const MAX_FRAME: usize = 1 << 20;

/// How long an outbound dial, or the write of one frame on a relay
/// connection, may take before the send fails. A peer that accepts but
/// stops reading fills the socket buffers and then holds a writer for at
/// most this long. It matches the read side's give-up time for a
/// stalled peer ([`MAX_STALLS`] × [`IO_TIMEOUT`]) and the authority
/// client's timeout.
pub(crate) const SEND_DEADLINE: Duration = Duration::from_secs(5);

/// How long one read on a server connection blocks: the tick at which
/// every relay, receiver and authority worker checks its stop flag.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_millis(50);

/// Consecutive stalled mid-frame reads a worker tolerates before it
/// declares its peer wedged and drops the connection: 5 s of
/// [`IO_TIMEOUT`] ticks.
pub(crate) const MAX_STALLS: u32 = 100;

/// How long winding a cluster down waits for each relay and for the
/// receiver, and the directory authority's shutdown for its accept loop.
pub(crate) const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

const TAG_CELL: u8 = 1;
const TAG_DELIVER: u8 = 2;
const TAG_GOSSIP: u8 = 3;

/// One wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A fixed-size onion relay cell in transit, with its correlation tag.
    Cell {
        /// Correlation tag (see the module docs).
        msg: u64,
        /// The relay cell bytes.
        cell: Vec<u8>,
    },
    /// A decrypted payload handed to the receiver.
    Deliver {
        /// Correlation tag.
        msg: u64,
        /// Member node that produced the delivery (the exit relay, or the
        /// sender itself for direct sends) — the receiver's predecessor,
        /// which the threat model grants the adversary anyway.
        from: u16,
        /// The sender's original payload.
        payload: Vec<u8>,
    },
    /// A directory snapshot pushed by a gossiping peer.
    Gossip {
        /// Encoded [`crate::authority::NetworkView`] snapshot bytes.
        snapshot: Vec<u8>,
    },
}

/// Outcome of one read attempt on a relay connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame arrived.
    Frame(Frame),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The read timed out before the first byte of a frame — the
    /// connection is idle; poll again (after checking shutdown flags).
    Idle,
}

/// Serializes and writes one frame with a single `write_all`.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode(frame))?;
    w.flush()
}

/// Writes one frame to a socket whose write timeout is
/// [`SEND_DEADLINE`], failing with [`ErrorKind::TimedOut`] once the whole
/// frame has taken longer than that. `write_all` would restart the
/// socket timeout after every partial write, so a frame larger than the
/// free buffer space could block for two deadlines, and a peer that
/// drains a little now and then for many.
pub(crate) fn send_frame(stream: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    let bytes = encode(frame);
    let deadline = Instant::now() + SEND_DEADLINE;
    let mut rest = &bytes[..];
    let mut shortened = false;
    loop {
        match stream.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(k) => rest = &rest[k..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if rest.is_empty() {
            break;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        shortened = true;
    }
    if shortened {
        // the connection stays cached: give the next frame a full deadline
        stream.set_write_timeout(Some(SEND_DEADLINE))?;
    }
    Ok(())
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    match frame {
        Frame::Cell { msg, cell } => {
            body.push(TAG_CELL);
            body.extend_from_slice(&msg.to_be_bytes());
            body.extend_from_slice(cell);
        }
        Frame::Deliver { msg, from, payload } => {
            body.push(TAG_DELIVER);
            body.extend_from_slice(&msg.to_be_bytes());
            body.extend_from_slice(&from.to_be_bytes());
            body.extend_from_slice(payload);
        }
        Frame::Gossip { snapshot } => {
            body.push(TAG_GOSSIP);
            body.extend_from_slice(snapshot);
        }
    }
    let mut out = Vec::with_capacity(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&body);
    out
}

/// Reads one frame, distinguishing idle timeouts from real errors.
///
/// The stream should have a read timeout configured; a timeout **before
/// any byte** of a frame yields [`ReadOutcome::Idle`] so the caller can
/// poll a shutdown flag. A timeout **inside** a frame keeps reading (a
/// frame in flight on loopback completes quickly) up to `max_stalls`
/// consecutive stalled reads, then fails — a peer must not be able to
/// wedge a relay worker with a half-written frame.
///
/// # Errors
///
/// [`Error::Protocol`] on truncated/oversized/unknown frames,
/// [`Error::Timeout`] on a stalled mid-frame read, [`Error::Io`] on
/// other socket failures.
pub fn read_frame(r: &mut impl Read, max_stalls: u32) -> Result<ReadOutcome> {
    let mut len_buf = [0u8; 4];
    match read_exact_stalling(r, &mut len_buf, true, max_stalls)? {
        FillOutcome::Done => {}
        FillOutcome::CleanEof => return Ok(ReadOutcome::Eof),
        FillOutcome::Idle => return Ok(ReadOutcome::Idle),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 {
        return Err(Error::Protocol("empty frame".into()));
    }
    if len > MAX_FRAME {
        return Err(Error::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte bound"
        )));
    }
    let mut body = vec![0u8; len];
    match read_exact_stalling(r, &mut body, false, max_stalls)? {
        FillOutcome::Done => {}
        _ => return Err(Error::Protocol("truncated frame body".into())),
    }
    parse_body(&body).map(ReadOutcome::Frame)
}

fn parse_body(body: &[u8]) -> Result<Frame> {
    let (tag, rest) = (body[0], &body[1..]);
    match tag {
        TAG_CELL => {
            if rest.len() < 8 {
                return Err(Error::Protocol("CELL frame shorter than its header".into()));
            }
            Ok(Frame::Cell {
                msg: u64::from_be_bytes(rest[..8].try_into().expect("length checked")),
                cell: rest[8..].to_vec(),
            })
        }
        TAG_DELIVER => {
            if rest.len() < 10 {
                return Err(Error::Protocol(
                    "DELIVER frame shorter than its header".into(),
                ));
            }
            Ok(Frame::Deliver {
                msg: u64::from_be_bytes(rest[..8].try_into().expect("length checked")),
                from: u16::from_be_bytes(rest[8..10].try_into().expect("length checked")),
                payload: rest[10..].to_vec(),
            })
        }
        TAG_GOSSIP => Ok(Frame::Gossip {
            snapshot: rest.to_vec(),
        }),
        other => Err(Error::Protocol(format!("unknown frame tag {other}"))),
    }
}

enum FillOutcome {
    Done,
    CleanEof,
    Idle,
}

/// Fills `buf`, tolerating read timeouts: before the first byte a timeout
/// is reported as `Idle` (when `idle_ok`); after it, up to `max_stalls`
/// consecutive timeouts are retried.
fn read_exact_stalling(
    r: &mut impl Read,
    buf: &mut [u8],
    idle_ok: bool,
    max_stalls: u32,
) -> Result<FillOutcome> {
    let mut filled = 0usize;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && idle_ok {
                    Ok(FillOutcome::CleanEof)
                } else {
                    Err(Error::Protocol("connection closed mid-frame".into()))
                };
            }
            Ok(k) => {
                filled += k;
                stalls = 0;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if filled == 0 && idle_ok {
                    return Ok(FillOutcome::Idle);
                }
                stalls += 1;
                if stalls > max_stalls {
                    return Err(Error::Timeout(format!(
                        "peer stalled mid-frame ({filled}/{} bytes)",
                        buf.len()
                    )));
                }
            }
            Err(e) => return Err(Error::Io(e)),
        }
    }
    Ok(FillOutcome::Done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut cursor = &buf[..];
        match read_frame(&mut cursor, 4).unwrap() {
            ReadOutcome::Frame(got) => assert_eq!(got, frame),
            other => panic!("unexpected {other:?}"),
        }
        assert!(cursor.is_empty(), "frame must consume exactly its bytes");
    }

    #[test]
    fn cell_and_deliver_roundtrip() {
        roundtrip(Frame::Cell {
            msg: 42,
            cell: vec![7u8; 128],
        });
        roundtrip(Frame::Deliver {
            msg: u64::MAX,
            from: 9,
            payload: b"hello".to_vec(),
        });
        roundtrip(Frame::Deliver {
            msg: 0,
            from: 0,
            payload: vec![],
        });
        roundtrip(Frame::Gossip {
            snapshot: b"ASNP-ish".to_vec(),
        });
        roundtrip(Frame::Gossip { snapshot: vec![] });
    }

    #[test]
    fn eof_at_boundary_is_clean() {
        let mut empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut empty, 4).unwrap(),
            ReadOutcome::Eof
        ));
    }

    #[test]
    fn eof_mid_frame_is_a_protocol_error() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Cell {
                msg: 1,
                cell: vec![0u8; 64],
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 10);
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor, 4),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn oversized_and_unknown_frames_rejected() {
        let mut huge = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        huge.push(TAG_CELL);
        assert!(matches!(
            read_frame(&mut &huge[..], 4),
            Err(Error::Protocol(_))
        ));

        let bad_tag = [0u8, 0, 0, 1, 99];
        assert!(matches!(
            read_frame(&mut &bad_tag[..], 4),
            Err(Error::Protocol(_))
        ));

        let empty_frame = [0u8, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut &empty_frame[..], 4),
            Err(Error::Protocol(_))
        ));
    }

    #[test]
    fn short_headers_rejected() {
        // CELL with a 4-byte body (needs >= 9 incl. tag)
        let frame = [0u8, 0, 0, 3, TAG_CELL, 1, 2];
        assert!(matches!(
            read_frame(&mut &frame[..], 4),
            Err(Error::Protocol(_))
        ));
        let frame = [0u8, 0, 0, 3, TAG_DELIVER, 1, 2];
        assert!(matches!(
            read_frame(&mut &frame[..], 4),
            Err(Error::Protocol(_))
        ));
    }

    /// A reader that times out between chunks, exercising the stall path.
    struct Chunky<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        timeout_next: bool,
    }
    impl Read for Chunky<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.timeout_next {
                self.timeout_next = false;
                return Err(io::Error::new(ErrorKind::WouldBlock, "stall"));
            }
            self.timeout_next = true;
            let k = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..k].copy_from_slice(&self.data[self.pos..self.pos + k]);
            self.pos += k;
            Ok(k)
        }
    }

    #[test]
    fn interleaved_timeouts_mid_frame_are_retried() {
        let mut buf = Vec::new();
        let frame = Frame::Cell {
            msg: 5,
            cell: vec![0xEE; 40],
        };
        write_frame(&mut buf, &frame).unwrap();
        let mut chunky = Chunky {
            data: &buf,
            pos: 0,
            chunk: 7,
            timeout_next: true, // leading timeout => Idle first
        };
        assert!(matches!(
            read_frame(&mut chunky, 4).unwrap(),
            ReadOutcome::Idle
        ));
        match read_frame(&mut chunky, 4).unwrap() {
            ReadOutcome::Frame(got) => assert_eq!(got, frame),
            other => panic!("unexpected {other:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        // Arbitrary bytes, either noise or a small length and any tag
        // before noise, read in chunks with timeouts in between: every
        // read ends in a frame, an idle tick, a clean end or an error,
        // and every frame re-encodes to exactly the bytes it consumed.
        #[test]
        fn read_frame_survives_arbitrary_bytes(
            noise in proptest::prelude::any::<bool>(),
            len in 0u32..48,
            tag in 0u8..5,
            rest in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            chunk in 1usize..16,
            timeout_first in proptest::prelude::any::<bool>(),
        ) {
            let mut data = Vec::new();
            if !noise {
                data.extend_from_slice(&len.to_be_bytes());
                data.push(tag);
            }
            data.extend_from_slice(&rest);
            let mut reader = Chunky { data: &data, pos: 0, chunk, timeout_next: timeout_first };
            // every read either consumes bytes or is followed by one that does
            for _ in 0..2 * data.len() + 2 {
                let start = reader.pos;
                match read_frame(&mut reader, 4) {
                    Ok(ReadOutcome::Frame(frame)) => {
                        let mut encoded = Vec::new();
                        write_frame(&mut encoded, &frame).unwrap();
                        proptest::prop_assert_eq!(&encoded[..], &data[start..reader.pos]);
                    }
                    Ok(ReadOutcome::Idle) => proptest::prop_assert_eq!(reader.pos, start),
                    Ok(ReadOutcome::Eof) => {
                        proptest::prop_assert_eq!(reader.pos, data.len());
                        break;
                    }
                    Err(_) => break,
                }
            }
        }
    }

    /// A reader that stalls forever after a prefix.
    struct Wedged {
        sent: bool,
    }
    impl Read for Wedged {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.sent {
                Err(io::Error::new(ErrorKind::WouldBlock, "stall"))
            } else {
                self.sent = true;
                buf[0] = 0;
                Ok(1)
            }
        }
    }

    #[test]
    fn wedged_peer_times_out_instead_of_hanging() {
        let mut wedged = Wedged { sent: false };
        assert!(matches!(read_frame(&mut wedged, 3), Err(Error::Timeout(_))));
    }
}
