//! Directory authority: signed, versioned relay descriptors with
//! join/leave tracking and a consensus-lite snapshot protocol.
//!
//! The static text directory ([`crate::Directory::parse`]) freezes the
//! topology at process start. This module replaces it for multi-process
//! deployments with a small directory service:
//!
//! * [`RelayDescriptor`] — one relay's advertisement (id, address,
//!   onion public key, bandwidth weight) carrying a **monotone version
//!   number** so replays and stale re-announcements are rejected.
//! * [`SignedDescriptor`] — the descriptor plus an HMAC-SHA256
//!   signature in the ed25519 detached-signature shape (canonical bytes
//!   ‖ 32-byte tag). The MAC key is derived per relay id from the
//!   shared network seed via HKDF, which matches the trust model of the
//!   rest of the stack: everyone who knows the net seed can already
//!   derive every relay's *private* onion key, so a shared-seed MAC
//!   loses nothing over true public-key signatures while staying inside
//!   the vendored crypto toolbox (no ed25519 available offline).
//! * [`NetworkView`] — a mergeable membership map (per-id
//!   latest-version-wins, tombstones for departures). Merging is
//!   commutative, associative, and idempotent over the member and
//!   tombstone sets, so gossiping snapshots in any order converges.
//! * [`AuthorityServer`] / [`AuthorityClient`] — a line-oriented TCP
//!   protocol (`PUT`/`GET`/`DOWN`/`EVENTS`/`PING`) serving snapshots
//!   and accepting descriptor publishes, with optional lease expiry so
//!   relays that stop refreshing are tombstoned automatically. The
//!   server runs on the crate's shared accept loop: it serves at most
//!   [`crate::MAX_CONNECTIONS`] clients at once (a new one displaces
//!   the idlest when it is full), and its shutdown is bounded whatever
//!   its clients do.
//!
//! Every accepted change appends a [`MembershipEvent`] to a log that
//! clients read with `EVENTS`: the *real* churn observations of a live
//! network, where the simulation draws synthetic `ChurnModel` coin flips.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use anonroute_crypto::handshake::NodeIdentity;
use anonroute_crypto::{hkdf, hmac};

use crate::directory::{Directory, NodeInfo};
use crate::error::{Error, Result};
use crate::obs::DirectoryMetrics;
use crate::wire::{self, JOIN_TIMEOUT, SEND_DEADLINE};
use crate::workers::{Conn, Server, MAX_CONNECTIONS};

/// Domain-separation salt for descriptor MAC keys.
const MAC_SALT: &[u8] = b"anonroute-authority-v1";
/// Magic prefix of a canonically encoded descriptor.
const DESC_MAGIC: &[u8; 4] = b"ARD1";
/// Magic prefix of an encoded directory snapshot.
const SNAP_MAGIC: &[u8; 4] = b"ASNP";
/// Signature (HMAC-SHA256 tag) length in bytes.
const SIG_LEN: usize = 32;
/// Hard cap on encoded descriptor size (the address string is the only
/// variable-length field).
const MAX_DESC_LEN: usize = 512;
/// Longest request line the authority reads, newline included. The
/// longest valid request, a `PUT` of a [`MAX_DESC_LEN`]-byte descriptor
/// in hex, takes 1,029 bytes; a longer line is answered with `ERR` and
/// the connection is closed.
const MAX_REQUEST_LINE: usize = 4096;
/// How long an authority connection may take over a request line,
/// counted from when the authority starts waiting for it until the line's
/// first byte, and again from that byte until its newline. A connection
/// over either answers `ERR` and is closed, so a client that trickles a
/// line a byte at a time holds its worker for at most twice this.
const IDLE_LIMIT: Duration = Duration::from_secs(10);
/// Longest first reply line [`AuthorityClient`] reads, newline
/// included: room for a `SNAP` line carrying a snapshot as large as a
/// gossip frame may hold.
const MAX_REPLY_LINE: usize = 2 * wire::MAX_FRAME + 16;
/// Longest `EV` (or closing `END`) line after the first:
/// `EV <u64> LEFT <u64>` takes at most 50 bytes.
const MAX_EVENT_LINE: usize = 64;
/// Most `EV` lines one reply may carry before the client gives up.
const MAX_EVENT_LINES: usize = 100_000;

/// Derives the MAC key that signs relay `id`'s descriptors on a network
/// provisioned from `net_seed`.
fn descriptor_key(net_seed: &[u8], id: u64) -> [u8; 32] {
    let mut info = Vec::with_capacity(24);
    info.extend_from_slice(b"descriptor ");
    info.extend_from_slice(&id.to_be_bytes());
    let mut key = [0u8; 32];
    hkdf::derive(MAC_SALT, net_seed, &info, &mut key);
    key
}

/// One relay's signed advertisement: who it is, where it listens, the
/// onion public key clients encrypt to, and a relative bandwidth weight
/// for weighted route sampling. `version` must increase on every
/// re-announcement; stale versions are rejected by [`NetworkView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayDescriptor {
    /// Dense relay id (the directory index clients route by).
    pub id: u64,
    /// Socket address the relay daemon listens on.
    pub addr: SocketAddr,
    /// X25519 public key for onion-circuit handshakes.
    pub public: [u8; 32],
    /// Relative bandwidth weight (reserved for weighted sampling).
    pub bandwidth_weight: u32,
    /// Monotone per-relay version; higher supersedes lower.
    pub version: u64,
    /// True when this descriptor announces a graceful departure.
    pub leaving: bool,
}

impl RelayDescriptor {
    /// The descriptor a relay derives for itself from the shared
    /// network seed (same provisioning as [`Directory::parse`]).
    pub fn derive(net_seed: &[u8], id: u64, addr: SocketAddr, version: u64) -> RelayDescriptor {
        RelayDescriptor {
            id,
            addr,
            public: *NodeIdentity::derive(net_seed, id).public(),
            bandwidth_weight: 1,
            version,
            leaving: false,
        }
    }

    /// Canonical byte encoding (the bytes that get signed).
    fn canonical(&self) -> Vec<u8> {
        let addr = self.addr.to_string();
        let mut out = Vec::with_capacity(64 + addr.len());
        out.extend_from_slice(DESC_MAGIC);
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(&self.bandwidth_weight.to_be_bytes());
        out.push(u8::from(self.leaving));
        out.extend_from_slice(&(addr.len() as u16).to_be_bytes());
        out.extend_from_slice(addr.as_bytes());
        out.extend_from_slice(&self.public);
        out
    }

    /// Signs the canonical encoding with the per-id key derived from
    /// `net_seed`.
    pub fn sign(&self, net_seed: &[u8]) -> SignedDescriptor {
        let key = descriptor_key(net_seed, self.id);
        let sig = hmac::hmac_sha256(&key, &self.canonical());
        SignedDescriptor {
            descriptor: self.clone(),
            sig,
        }
    }
}

/// A [`RelayDescriptor`] plus its detached signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedDescriptor {
    /// The signed payload.
    pub descriptor: RelayDescriptor,
    /// HMAC-SHA256 tag over the canonical descriptor bytes.
    pub sig: [u8; SIG_LEN],
}

impl SignedDescriptor {
    /// Constant-time signature check against the key derived for the
    /// descriptor's claimed id.
    pub fn verify(&self, net_seed: &[u8]) -> bool {
        let key = descriptor_key(net_seed, self.descriptor.id);
        let expected = hmac::hmac_sha256(&key, &self.descriptor.canonical());
        hmac::verify_mac(&expected, &self.sig)
    }

    /// Wire encoding: canonical bytes followed by the signature.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.descriptor.canonical();
        out.extend_from_slice(&self.sig);
        out
    }

    /// Parses an encoded signed descriptor. Rejects truncated, trailing
    /// or oversized input; does **not** check the signature (call
    /// [`SignedDescriptor::verify`]).
    pub fn decode(bytes: &[u8]) -> Result<SignedDescriptor> {
        if bytes.len() > MAX_DESC_LEN {
            return Err(Error::Protocol(format!(
                "descriptor too large: {} bytes (max {MAX_DESC_LEN})",
                bytes.len()
            )));
        }
        let mut r = Reader::new(bytes);
        let magic = r.take(4)?;
        if magic != DESC_MAGIC {
            return Err(Error::Protocol("bad descriptor magic".into()));
        }
        let id = r.u64()?;
        let version = r.u64()?;
        let bandwidth_weight = r.u32()?;
        let leaving = r.u8()? != 0;
        let addr_len = r.u16()? as usize;
        let addr_bytes = r.take(addr_len)?;
        let addr: SocketAddr = std::str::from_utf8(addr_bytes)
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::Protocol("bad descriptor address".into()))?;
        let mut public = [0u8; 32];
        public.copy_from_slice(r.take(32)?);
        let mut sig = [0u8; SIG_LEN];
        sig.copy_from_slice(r.take(SIG_LEN)?);
        r.finish()?;
        Ok(SignedDescriptor {
            descriptor: RelayDescriptor {
                id,
                addr,
                public,
                bandwidth_weight,
                version,
                leaving,
            },
            sig,
        })
    }
}

/// Bounds-checked cursor over an encoded buffer.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| Error::Protocol("truncated encoding".into()))?;
        let out = &self.bytes[self.at..end];
        self.at = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().expect("len")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().expect("len")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().expect("len")))
    }

    fn finish(&self) -> Result<()> {
        if self.at != self.bytes.len() {
            return Err(Error::Protocol("trailing bytes in encoding".into()));
        }
        Ok(())
    }
}

/// What happened to a relay's membership, in view-version order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// The relay joined (first accepted descriptor).
    Joined,
    /// The relay left: graceful `leaving` descriptor, a `DOWN` report,
    /// or lease expiry.
    Left,
}

/// One accepted membership change; `version` is the view version the
/// change produced, so replaying events in order reconstructs the
/// active set at any point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// View version after this change was applied.
    pub version: u64,
    /// Relay id the change concerns.
    pub id: u64,
    /// Join or leave.
    pub kind: MembershipChange,
}

/// A mergeable view of network membership: the latest verified
/// descriptor per relay plus tombstones for departed ones.
///
/// Local mutations ([`NetworkView::publish`], [`NetworkView::report_down`])
/// bump the view version; [`NetworkView::merge_snapshot`] folds a
/// peer's snapshot in with per-id latest-version-wins semantics and
/// takes the max of the two view versions, so any gossip order reaches
/// the same fixed point (checked by a property test).
#[derive(Debug, Clone)]
pub struct NetworkView {
    net_seed: Vec<u8>,
    receiver: SocketAddr,
    members: BTreeMap<u64, SignedDescriptor>,
    tombstones: BTreeMap<u64, u64>,
    version: u64,
    events: Vec<MembershipEvent>,
}

impl NetworkView {
    /// An empty view of the network identified by `net_seed`, with the
    /// delivery endpoint at `receiver`.
    pub fn new(net_seed: &[u8], receiver: SocketAddr) -> NetworkView {
        NetworkView {
            net_seed: net_seed.to_vec(),
            receiver,
            members: BTreeMap::new(),
            tombstones: BTreeMap::new(),
            version: 0,
            events: Vec::new(),
        }
    }

    /// Current view version (bumped by every accepted change).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The delivery endpoint this network routes final hops to.
    pub fn receiver(&self) -> SocketAddr {
        self.receiver
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no relay has joined (or all have left).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Sorted ids of the live members.
    pub fn member_ids(&self) -> Vec<u64> {
        self.members.keys().copied().collect()
    }

    /// The live descriptor for `id`, if any.
    pub fn member(&self, id: u64) -> Option<&SignedDescriptor> {
        self.members.get(&id)
    }

    /// All accepted membership events, in version order.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// Events strictly after view version `since`.
    pub fn events_since(&self, since: u64) -> &[MembershipEvent] {
        let from = self.events.partition_point(|ev| ev.version <= since);
        &self.events[from..]
    }

    /// Accepts a signed descriptor: verifies the signature, rejects
    /// stale versions (≤ the live descriptor's, or ≤ a tombstone's),
    /// and applies join/update/leave. Returns the new view version.
    pub fn publish(&mut self, signed: SignedDescriptor) -> Result<u64> {
        if !signed.verify(&self.net_seed) {
            return Err(Error::Protocol(format!(
                "descriptor for relay {} has a bad signature",
                signed.descriptor.id
            )));
        }
        let id = signed.descriptor.id;
        let version = signed.descriptor.version;
        if let Some(&dead) = self.tombstones.get(&id) {
            if version <= dead {
                return Err(Error::Protocol(format!(
                    "stale descriptor for relay {id}: version {version} <= tombstone {dead}"
                )));
            }
        }
        if let Some(live) = self.members.get(&id) {
            if version <= live.descriptor.version {
                return Err(Error::Protocol(format!(
                    "stale descriptor for relay {id}: version {version} <= live {}",
                    live.descriptor.version
                )));
            }
        }
        if signed.descriptor.leaving {
            self.tombstones.insert(id, version);
            let was_member = self.members.remove(&id).is_some();
            self.version += 1;
            if was_member {
                self.push_event(id, MembershipChange::Left);
            }
        } else {
            let joined = !self.members.contains_key(&id);
            self.tombstones.remove(&id);
            self.members.insert(id, signed);
            self.version += 1;
            if joined {
                self.push_event(id, MembershipChange::Joined);
            }
        }
        Ok(self.version)
    }

    /// Tombstones `id` at its current descriptor version (a peer-health
    /// or lease-expiry departure). Returns the new view version, or the
    /// unchanged one when `id` was not a member.
    pub fn report_down(&mut self, id: u64) -> u64 {
        if let Some(signed) = self.members.remove(&id) {
            self.tombstones.insert(id, signed.descriptor.version);
            self.version += 1;
            self.push_event(id, MembershipChange::Left);
        }
        self.version
    }

    fn push_event(&mut self, id: u64, kind: MembershipChange) {
        self.events.push(MembershipEvent {
            version: self.version,
            id,
            kind,
        });
    }

    /// Serializes the full view (version, receiver, members,
    /// tombstones) for gossip or an authority `GET`.
    pub fn snapshot(&self) -> Vec<u8> {
        let receiver = self.receiver.to_string();
        let mut out = Vec::with_capacity(64 + self.members.len() * 96);
        out.extend_from_slice(SNAP_MAGIC);
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(&(receiver.len() as u16).to_be_bytes());
        out.extend_from_slice(receiver.as_bytes());
        out.extend_from_slice(&(self.members.len() as u32).to_be_bytes());
        for signed in self.members.values() {
            let enc = signed.encode();
            out.extend_from_slice(&(enc.len() as u32).to_be_bytes());
            out.extend_from_slice(&enc);
        }
        out.extend_from_slice(&(self.tombstones.len() as u32).to_be_bytes());
        for (&id, &version) in &self.tombstones {
            out.extend_from_slice(&id.to_be_bytes());
            out.extend_from_slice(&version.to_be_bytes());
        }
        out
    }

    /// Folds a peer's snapshot into this view. Returns true when
    /// anything changed. Descriptors that fail verification and stale
    /// versions are skipped (a malicious or lagging peer cannot regress
    /// the view); the view version becomes the max of the two.
    pub fn merge_snapshot(&mut self, bytes: &[u8]) -> Result<bool> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != SNAP_MAGIC {
            return Err(Error::Protocol("bad snapshot magic".into()));
        }
        let their_version = r.u64()?;
        let receiver_len = r.u16()? as usize;
        let _receiver = r.take(receiver_len)?;
        let member_count = r.u32()? as usize;
        let mut incoming = Vec::with_capacity(member_count.min(1024));
        for _ in 0..member_count {
            let len = r.u32()? as usize;
            incoming.push(SignedDescriptor::decode(r.take(len)?)?);
        }
        let tombstone_count = r.u32()? as usize;
        let mut tombstones = Vec::with_capacity(tombstone_count.min(1024));
        for _ in 0..tombstone_count {
            tombstones.push((r.u64()?, r.u64()?));
        }
        r.finish()?;

        let mut changed = false;
        for (id, dead) in tombstones {
            let newer = self.tombstones.get(&id).is_none_or(|&have| dead > have);
            if newer {
                self.tombstones.insert(id, dead);
                changed = true;
            }
            let buried = self
                .members
                .get(&id)
                .is_some_and(|live| live.descriptor.version <= dead);
            if buried {
                self.members.remove(&id);
                self.push_event(id, MembershipChange::Left);
                changed = true;
            }
        }
        for signed in incoming {
            if !signed.verify(&self.net_seed) {
                continue;
            }
            let id = signed.descriptor.id;
            let version = signed.descriptor.version;
            let dead = self.tombstones.get(&id).is_some_and(|&t| version <= t);
            let stale = self
                .members
                .get(&id)
                .is_some_and(|live| version <= live.descriptor.version);
            if dead || stale {
                continue;
            }
            let joined = !self.members.contains_key(&id);
            self.members.insert(id, signed);
            if joined {
                self.push_event(id, MembershipChange::Joined);
            }
            changed = true;
        }
        self.version = self.version.max(their_version);
        // Late events recorded above carry the merged version so replay
        // stays consistent with `events_since`.
        let version = self.version;
        for ev in self.events.iter_mut().rev() {
            if ev.version > version {
                ev.version = version;
            } else {
                break;
            }
        }
        Ok(changed)
    }

    /// Content fingerprint over members and tombstones (not the event
    /// log, which is order-dependent). Two views that gossiped to a
    /// fixed point have equal fingerprints.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut hasher = anonroute_crypto::sha256::Sha256::new();
        for signed in self.members.values() {
            hasher.update(&signed.encode());
        }
        for (&id, &version) in &self.tombstones {
            hasher.update(&id.to_be_bytes());
            hasher.update(&version.to_be_bytes());
        }
        hasher.finalize()
    }

    /// Materializes a routable [`Directory`] from the live members.
    /// Requires dense ids `0..len` (the onion format addresses relays
    /// by directory index); a view made sparse by churn keeps serving
    /// its previous directory — see [`crate::DirectoryCell`].
    pub fn to_directory(&self) -> Result<Directory> {
        let nodes: Vec<NodeInfo> = self
            .members
            .values()
            .map(|signed| NodeInfo {
                id: signed.descriptor.id as usize,
                addr: signed.descriptor.addr,
                public: signed.descriptor.public,
            })
            .collect();
        Directory::new(nodes, self.receiver)
    }
}

/// Encodes bytes as lowercase hex for the line protocol.
pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        out.push(char::from_digit((b & 0xF) as u32, 16).expect("nibble"));
    }
    out
}

/// Decodes the hex produced by [`hex_encode`].
pub(crate) fn hex_decode(text: &str) -> Result<Vec<u8>> {
    if !text.len().is_multiple_of(2) {
        return Err(Error::Protocol("odd-length hex".into()));
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16);
        let lo = (pair[1] as char).to_digit(16);
        match (hi, lo) {
            (Some(hi), Some(lo)) => out.push(((hi << 4) | lo) as u8),
            _ => return Err(Error::Protocol("bad hex digit".into())),
        }
    }
    Ok(out)
}

/// Shared state behind the authority's accept loop and lease sweeper.
struct AuthorityState {
    view: Mutex<NetworkView>,
    /// Last refresh instant per member, for lease expiry.
    leases: Mutex<HashMap<u64, Instant>>,
    lease: Option<Duration>,
}

/// A directory authority serving the line protocol over TCP.
///
/// Commands (one per line, responses one per line):
///
/// * `PUT <hex signed descriptor>` → `OK <version>` | `ERR <reason>`
/// * `GET <have-version>` → `SNAP <hex snapshot>` | `SAME <version>`
/// * `DOWN <id>` → `OK <version>` (peer-health departure report)
/// * `EVENTS <since-version>` → zero or more
///   `EV <version> <JOIN|LEFT> <id>` lines, then `END <version>`
/// * `PING` → `PONG <version>`
/// * `RECV` → `ADDR <receiver>` (delivery endpoint, for bootstrap)
///
/// With a lease configured, members that don't re-`PUT` (or re-`GET`
/// with their id) within the lease window are tombstoned.
pub struct AuthorityServer {
    addr: SocketAddr,
    state: Arc<AuthorityState>,
    server: Option<Server>,
    /// The lease sweeper, and the sender whose drop wakes it to exit.
    sweeper: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
}

impl AuthorityServer {
    /// Binds `addr` and serves the authority protocol for the network
    /// identified by `net_seed`, delivering to `receiver`. `lease` of
    /// `None` disables expiry.
    pub fn spawn(
        addr: &str,
        net_seed: &[u8],
        receiver: SocketAddr,
        lease: Option<Duration>,
    ) -> Result<AuthorityServer> {
        let listener = TcpListener::bind(addr).map_err(|e| {
            Error::Config(format!("directory authority failed to bind {addr}: {e}"))
        })?;
        let state = Arc::new(AuthorityState {
            view: Mutex::new(NetworkView::new(net_seed, receiver)),
            leases: Mutex::new(HashMap::new()),
            lease,
        });
        let server = {
            let state = Arc::clone(&state);
            Server::spawn(
                listener,
                "directory authority".into(),
                || MAX_CONNECTIONS,
                move |stream, conn| {
                    let _ = serve_conn(stream, &state, conn, IDLE_LIMIT);
                },
            )
        };
        let sweeper = lease.map(|lease| {
            let state = Arc::clone(&state);
            let (wake, sleep) = mpsc::channel::<()>();
            let tick = (lease / 4).max(Duration::from_millis(10));
            let thread = thread::spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = sleep.recv_timeout(tick) {
                    sweep_leases(&state, lease);
                }
            });
            (wake, thread)
        });

        Ok(AuthorityServer {
            addr: server.addr(),
            state,
            server: Some(server),
            sweeper,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current view version.
    pub fn version(&self) -> u64 {
        self.state.view.lock().expect("authority view").version()
    }

    /// Sorted live member ids.
    pub fn member_ids(&self) -> Vec<u64> {
        self.state.view.lock().expect("authority view").member_ids()
    }

    /// Membership events strictly after `since`.
    pub fn events_since(&self, since: u64) -> Vec<MembershipEvent> {
        self.state
            .view
            .lock()
            .expect("authority view")
            .events_since(since)
            .to_vec()
    }

    /// Stops accepting, wakes the sweeper, and joins both threads. Every
    /// connection worker sees the stop within one read tick, so this
    /// returns promptly even with clients connected, and never later
    /// than the shared join bound (10 s).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            if let Err(e) = server.join(JOIN_TIMEOUT) {
                eprintln!("directory authority: {e}");
            }
        }
        if let Some((wake, sweeper)) = self.sweeper.take() {
            drop(wake);
            let _ = sweeper.join();
        }
    }
}

impl Drop for AuthorityServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Tombstones every member whose lease expired.
fn sweep_leases(state: &AuthorityState, lease: Duration) {
    let now = Instant::now();
    let expired: Vec<u64> = {
        let leases = state.leases.lock().expect("authority leases");
        leases
            .iter()
            .filter(|(_, &at)| now.duration_since(at) > lease)
            .map(|(&id, _)| id)
            .collect()
    };
    if expired.is_empty() {
        return;
    }
    let metrics = DirectoryMetrics::global();
    let mut view = state.view.lock().expect("authority view");
    let mut leases = state.leases.lock().expect("authority leases");
    for id in expired {
        if view.member(id).is_some() {
            view.report_down(id);
            metrics.peers_dropped.inc();
        }
        leases.remove(&id);
    }
}

/// Reads one line of at most `cap` bytes, newline included, and returns
/// it without its line ending; `None` at the end of the stream.
///
/// # Errors
///
/// [`Error::Protocol`] for a line longer than `cap` or not UTF-8,
/// [`Error::Io`] on socket failures.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> Result<Option<String>> {
    let mut line = Vec::new();
    reader
        .take(cap as u64)
        .read_until(b'\n', &mut line)
        .map_err(Error::Io)?;
    finish_line(line, cap)
}

/// Reads the next request line as [`read_line_capped`] does, on a stream
/// whose reads time out every [`wire::IO_TIMEOUT`]. Before every read it
/// returns `None` once the server is stopping, so neither an idle client
/// nor one that trickles bytes holds the worker past a shutdown. It
/// fails once `limit` passed without the line's first byte, or from that
/// byte without the whole line (see [`IDLE_LIMIT`]). A partial line is
/// kept across reads, and every byte stamps the connection as active.
fn read_request(reader: &mut impl BufRead, conn: &Conn, limit: Duration) -> Result<Option<String>> {
    let mut line = Vec::new();
    let mut deadline = Instant::now() + limit;
    loop {
        if conn.stopping() {
            return Ok(None);
        }
        if Instant::now() >= deadline {
            return Err(Error::Timeout(format!(
                "no complete request line within {limit:?}"
            )));
        }
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(Error::Io(e)),
        };
        if chunk.is_empty() {
            return finish_line(line, MAX_REQUEST_LINE);
        }
        if line.is_empty() {
            deadline = Instant::now() + limit;
        }
        conn.touch();
        let room = chunk.len().min(MAX_REQUEST_LINE - line.len());
        let (used, ended) = match chunk[..room].iter().position(|&b| b == b'\n') {
            Some(at) => (at + 1, true),
            None => (room, line.len() + room == MAX_REQUEST_LINE),
        };
        line.extend_from_slice(&chunk[..used]);
        reader.consume(used);
        if ended {
            return finish_line(line, MAX_REQUEST_LINE);
        }
    }
}

/// A line read under a `cap`-byte limit, without its line ending; `None`
/// for an empty read (the end of the stream).
fn finish_line(mut line: Vec<u8>, cap: usize) -> Result<Option<String>> {
    if line.is_empty() {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() == cap {
        return Err(Error::Protocol(format!("line exceeds {cap} bytes")));
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| Error::Protocol("line is not UTF-8".into()))
}

/// Handles one authority connection until EOF, shutdown, or a request
/// line it cannot read within `limit` (see [`read_request`]), which is
/// answered with `ERR` before the close. A reply that the client does not
/// read within [`SEND_DEADLINE`] ends the connection.
fn serve_conn(
    stream: TcpStream,
    state: &AuthorityState,
    conn: &Conn,
    limit: Duration,
) -> Result<()> {
    stream
        .set_write_timeout(Some(SEND_DEADLINE))
        .map_err(Error::Io)?;
    let mut writer = stream.try_clone().map_err(Error::Io)?;
    let mut reader = BufReader::new(stream);
    let metrics = DirectoryMetrics::global();
    loop {
        let line = match read_request(&mut reader, conn, limit) {
            Ok(Some(line)) => line,
            Ok(None) => break,
            Err(e) => {
                let _ = writer.write_all(format!("ERR {e}\n").as_bytes());
                break;
            }
        };
        let mut reply = String::new();
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("PUT"), Some(hex)) => {
                let outcome = hex_decode(hex)
                    .and_then(|bytes| SignedDescriptor::decode(&bytes))
                    .and_then(|signed| {
                        let id = signed.descriptor.id;
                        let mut view = state.view.lock().expect("authority view");
                        let version = view.publish(signed)?;
                        if state.lease.is_some() {
                            state
                                .leases
                                .lock()
                                .expect("authority leases")
                                .insert(id, Instant::now());
                        }
                        Ok(version)
                    });
                match outcome {
                    Ok(version) => {
                        metrics.publishes.inc();
                        reply = format!("OK {version}\n");
                    }
                    Err(e) => reply = format!("ERR {e}\n"),
                }
            }
            (Some("GET"), Some(have)) => {
                let have: u64 = have.parse().unwrap_or(0);
                let view = state.view.lock().expect("authority view");
                if view.version() > have {
                    metrics.snapshots_served.inc();
                    reply = format!("SNAP {}\n", hex_encode(&view.snapshot()));
                } else {
                    reply = format!("SAME {}\n", view.version());
                }
            }
            (Some("DOWN"), Some(id)) => match id.parse::<u64>() {
                Ok(id) => {
                    let mut view = state.view.lock().expect("authority view");
                    let before = view.version();
                    let version = view.report_down(id);
                    if version != before {
                        metrics.peers_dropped.inc();
                        state.leases.lock().expect("authority leases").remove(&id);
                    }
                    reply = format!("OK {version}\n");
                }
                Err(_) => reply = "ERR bad relay id\n".to_string(),
            },
            (Some("EVENTS"), Some(since)) => {
                let since: u64 = since.parse().unwrap_or(0);
                let view = state.view.lock().expect("authority view");
                for ev in view.events_since(since) {
                    let kind = match ev.kind {
                        MembershipChange::Joined => "JOIN",
                        MembershipChange::Left => "LEFT",
                    };
                    reply.push_str(&format!("EV {} {} {}\n", ev.version, kind, ev.id));
                }
                reply.push_str(&format!("END {}\n", view.version()));
            }
            (Some("PING"), _) => {
                let view = state.view.lock().expect("authority view");
                reply = format!("PONG {}\n", view.version());
            }
            (Some("RECV"), _) => {
                let view = state.view.lock().expect("authority view");
                reply = format!("ADDR {}\n", view.receiver());
            }
            (Some(_), _) => reply = "ERR unknown command\n".to_string(),
            (None, _) => continue,
        }
        if writer.write_all(reply.as_bytes()).is_err() {
            break;
        }
    }
    Ok(())
}

/// Client side of the authority line protocol. Opens one connection
/// per call — the protocol is request/response and calls are rare
/// (publish on boot, periodic refresh).
#[derive(Debug, Clone)]
pub struct AuthorityClient {
    addr: SocketAddr,
    timeout: Duration,
}

impl AuthorityClient {
    /// A client for the authority at `addr`.
    pub fn new(addr: SocketAddr) -> AuthorityClient {
        AuthorityClient {
            addr,
            timeout: Duration::from_secs(5),
        }
    }

    fn call(&self, request: &str) -> Result<Vec<String>> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout).map_err(|e| {
            Error::Config(format!(
                "cannot reach directory authority at {}: {e}",
                self.addr
            ))
        })?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(Error::Io)?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(Error::Io)?;
        let mut writer = stream.try_clone().map_err(Error::Io)?;
        writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(Error::Io)?;
        let _ = writer.flush();
        let mut reader = BufReader::new(stream);
        let mut lines: Vec<String> = Vec::new();
        loop {
            let cap = if lines.is_empty() {
                MAX_REPLY_LINE
            } else {
                MAX_EVENT_LINE
            };
            let Some(line) = read_line_capped(&mut reader, cap)? else {
                break;
            };
            let line = line.trim_end().to_string();
            let terminal = !line.starts_with("EV ");
            lines.push(line);
            if terminal {
                break;
            }
            if lines.len() > MAX_EVENT_LINES {
                return Err(Error::Protocol(format!(
                    "authority sent more than {MAX_EVENT_LINES} event lines"
                )));
            }
        }
        if lines.is_empty() {
            return Err(Error::Protocol("authority closed without replying".into()));
        }
        Ok(lines)
    }

    fn expect_version(&self, request: &str, ok: &str) -> Result<u64> {
        let lines = self.call(request)?;
        let line = &lines[lines.len() - 1];
        match line.split_once(' ') {
            Some((word, rest)) if word == ok => rest
                .parse()
                .map_err(|_| Error::Protocol(format!("bad authority reply: {line}"))),
            _ => Err(Error::Protocol(format!("authority replied: {line}"))),
        }
    }

    /// Publishes a signed descriptor; returns the new view version.
    pub fn publish(&self, signed: &SignedDescriptor) -> Result<u64> {
        self.expect_version(&format!("PUT {}", hex_encode(&signed.encode())), "OK")
    }

    /// Fetches a snapshot newer than `have`, or `None` when the
    /// authority has nothing newer.
    pub fn fetch(&self, have: u64) -> Result<Option<Vec<u8>>> {
        let lines = self.call(&format!("GET {have}"))?;
        let line = &lines[lines.len() - 1];
        match line.split_once(' ') {
            Some(("SNAP", hex)) => Ok(Some(hex_decode(hex)?)),
            Some(("SAME", _)) => Ok(None),
            _ => Err(Error::Protocol(format!("authority replied: {line}"))),
        }
    }

    /// Reports `id` as unreachable; returns the view version.
    pub fn report_down(&self, id: u64) -> Result<u64> {
        self.expect_version(&format!("DOWN {id}"), "OK")
    }

    /// Current authority view version.
    pub fn ping(&self) -> Result<u64> {
        self.expect_version("PING", "PONG")
    }

    /// The network's delivery endpoint. Lets a joining relay bootstrap
    /// a [`NetworkView`] before any snapshot exists to fetch.
    pub fn receiver(&self) -> Result<SocketAddr> {
        let lines = self.call("RECV")?;
        let line = &lines[lines.len() - 1];
        match line.split_once(' ') {
            Some(("ADDR", addr)) => addr
                .parse()
                .map_err(|_| Error::Protocol(format!("bad authority reply: {line}"))),
            _ => Err(Error::Protocol(format!("authority replied: {line}"))),
        }
    }

    /// Membership events after `since`, plus the current view version.
    pub fn events(&self, since: u64) -> Result<(Vec<MembershipEvent>, u64)> {
        let lines = self.call(&format!("EVENTS {since}"))?;
        let mut events = Vec::new();
        let mut version = 0;
        for line in &lines {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some("EV"), Some(v), Some(kind), Some(id)) => {
                    let kind = match kind {
                        "JOIN" => MembershipChange::Joined,
                        "LEFT" => MembershipChange::Left,
                        _ => return Err(Error::Protocol(format!("bad event line: {line}"))),
                    };
                    events.push(MembershipEvent {
                        version: v
                            .parse()
                            .map_err(|_| Error::Protocol(format!("bad event line: {line}")))?,
                        id: id
                            .parse()
                            .map_err(|_| Error::Protocol(format!("bad event line: {line}")))?,
                        kind,
                    });
                }
                (Some("END"), Some(v), _, _) => {
                    version = v
                        .parse()
                        .map_err(|_| Error::Protocol(format!("bad end line: {line}")))?;
                }
                _ => return Err(Error::Protocol(format!("authority replied: {line}"))),
            }
        }
        Ok((events, version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("addr")
    }

    fn signed(net_seed: &[u8], id: u64, version: u64) -> SignedDescriptor {
        RelayDescriptor::derive(net_seed, id, addr(9000 + id as u16), version).sign(net_seed)
    }

    #[test]
    fn over_long_request_lines_get_an_error_and_the_server_keeps_serving() {
        let server = AuthorityServer::spawn("127.0.0.1:0", b"seed", addr(8999), None).unwrap();
        let conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = conn.try_clone().unwrap();
        let flood = thread::spawn(move || {
            // the server hangs up long before the line ends
            let _ = writer.write_all(&vec![b'A'; 10 << 20]);
        });
        let mut reply = String::new();
        BufReader::new(&conn).read_line(&mut reply).unwrap();
        assert!(
            reply.starts_with("ERR ")
                && reply.contains(&format!("line exceeds {MAX_REQUEST_LINE} bytes")),
            "{reply:?}"
        );
        flood.join().unwrap();
        let client = AuthorityClient::new(server.addr());
        client.publish(&signed(b"seed", 1, 1)).unwrap();
        assert_eq!(client.ping().unwrap(), 1, "the next client is served");
        server.shutdown();
    }

    #[test]
    fn a_full_authority_closes_its_idlest_connections_and_keeps_serving() {
        let server = AuthorityServer::spawn("127.0.0.1:0", b"seed", addr(8999), None).unwrap();
        let (flood, closed) = crate::fault::flood(server.addr(), MAX_CONNECTIONS + 8);
        assert!(
            closed >= 8,
            "only {closed} of the 8 connections past the cap were closed"
        );
        // with the flood's sockets still open, a new client displaces an
        // idle one and is served
        let client = AuthorityClient::new(server.addr());
        let deadline = Instant::now() + Duration::from_secs(5);
        while client.ping().is_err() {
            assert!(
                Instant::now() < deadline,
                "the authority never served again"
            );
            thread::sleep(Duration::from_millis(20));
        }
        drop(flood);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_bounded_with_idle_and_trickling_clients() {
        // a worker must see the stop flag both while its client is idle
        // and while every read returns a byte, well inside the join bound
        for trickle in [false, true] {
            let server = AuthorityServer::spawn("127.0.0.1:0", b"seed", addr(8999), None).unwrap();
            let mut conn = TcpStream::connect(server.addr()).unwrap();
            // the worker is serving the client before the shutdown starts
            conn.write_all(b"PING\n").unwrap();
            let mut reply = String::new();
            BufReader::new(&conn).read_line(&mut reply).unwrap();
            assert!(reply.starts_with("PONG"), "{reply:?}");
            let trickler = trickle.then(|| {
                let mut conn = conn.try_clone().unwrap();
                thread::spawn(move || {
                    while conn.write_all(b"P").is_ok() {
                        thread::sleep(Duration::from_millis(20));
                    }
                })
            });
            thread::sleep(4 * wire::IO_TIMEOUT);
            let start = Instant::now();
            server.shutdown();
            let elapsed = start.elapsed();
            assert!(
                elapsed < Duration::from_secs(1),
                "shutdown took {elapsed:?}"
            );
            drop(conn);
            if let Some(trickler) = trickler {
                trickler.join().unwrap();
            }
        }
    }

    #[test]
    fn a_trickled_request_line_is_cut_off_at_the_limit() {
        // the server's own worker and reader, under a short limit
        let limit = Duration::from_millis(300);
        let state = Arc::new(AuthorityState {
            view: Mutex::new(NetworkView::new(b"seed", addr(8999))),
            leases: Mutex::new(HashMap::new()),
            lease: None,
        });
        let server = Server::spawn(
            TcpListener::bind("127.0.0.1:0").unwrap(),
            "trickle test".into(),
            || MAX_CONNECTIONS,
            move |stream, conn| {
                let _ = serve_conn(stream, &state, conn, limit);
            },
        );
        let trickler = TcpStream::connect(server.addr()).unwrap();
        trickler
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let start = Instant::now();
        let writer = {
            let mut conn = trickler.try_clone().unwrap();
            // a byte every 20 ms: a limit counted from the last byte
            // would never run out
            thread::spawn(move || {
                while conn.write_all(b"P").is_ok() {
                    thread::sleep(Duration::from_millis(20));
                }
            })
        };
        // a fresh client is served while the trickler holds its worker
        let mut fresh = TcpStream::connect(server.addr()).unwrap();
        fresh.write_all(b"PING\n").unwrap();
        let mut pong = String::new();
        BufReader::new(&fresh).read_line(&mut pong).unwrap();
        assert_eq!(pong, "PONG 0\n");

        let mut reply = String::new();
        BufReader::new(&trickler).read_line(&mut reply).unwrap();
        let elapsed = start.elapsed();
        assert!(
            reply.starts_with("ERR ") && reply.contains("no complete request line"),
            "{reply:?}"
        );
        assert!(
            elapsed >= limit && elapsed < limit + Duration::from_secs(2),
            "cut off after {elapsed:?}"
        );
        drop(trickler);
        writer.join().unwrap();
        server.join(JOIN_TIMEOUT).unwrap();
    }

    #[test]
    fn partial_request_lines_survive_read_ticks() {
        let server = AuthorityServer::spawn("127.0.0.1:0", b"seed", addr(8999), None).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"PI").unwrap();
        thread::sleep(4 * wire::IO_TIMEOUT);
        conn.write_all(b"NG\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&conn).read_line(&mut reply).unwrap();
        assert_eq!(reply, "PONG 0\n");
        server.shutdown();
    }

    #[test]
    fn endless_event_streams_are_cut_off() {
        let fake = TcpListener::bind("127.0.0.1:0").unwrap();
        let fake_addr = fake.local_addr().unwrap();
        let streamer = thread::spawn(move || {
            let (mut conn, _) = fake.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&conn).read_line(&mut request).unwrap();
            let lines = b"EV 1 JOIN 1\n".repeat(1024);
            while conn.write_all(&lines).is_ok() {}
        });
        let err = AuthorityClient::new(fake_addr).events(0).unwrap_err();
        assert!(err.to_string().contains("event lines"), "{err}");
        streamer.join().unwrap();
    }

    #[test]
    fn descriptors_roundtrip_and_verify() {
        let sd = signed(b"seed", 3, 7);
        let decoded = SignedDescriptor::decode(&sd.encode()).expect("decode");
        assert_eq!(decoded, sd);
        assert!(decoded.verify(b"seed"));
        assert!(!decoded.verify(b"other-seed"));
    }

    #[test]
    fn views_reject_stale_and_unsigned_descriptors() {
        let mut view = NetworkView::new(b"seed", addr(8999));
        view.publish(signed(b"seed", 0, 2)).expect("publish");
        let stale = view.publish(signed(b"seed", 0, 2));
        assert!(stale.is_err(), "equal version must be stale");
        let forged = view.publish(signed(b"evil", 1, 1));
        assert!(forged.is_err(), "wrong-seed signature must be rejected");
        view.publish(signed(b"seed", 0, 3)).expect("newer version");
        assert_eq!(view.member_ids(), vec![0]);
    }

    #[test]
    fn leaves_tombstone_and_block_stale_rejoins() {
        let mut view = NetworkView::new(b"seed", addr(8999));
        view.publish(signed(b"seed", 0, 1)).expect("join");
        let mut leave = RelayDescriptor::derive(b"seed", 0, addr(9000), 2);
        leave.leaving = true;
        view.publish(leave.sign(b"seed")).expect("leave");
        assert!(view.is_empty());
        assert!(view.publish(signed(b"seed", 0, 2)).is_err(), "tombstoned");
        view.publish(signed(b"seed", 0, 3))
            .expect("rejoin at newer");
        assert_eq!(view.member_ids(), vec![0]);
        let kinds: Vec<MembershipChange> = view.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                MembershipChange::Joined,
                MembershipChange::Left,
                MembershipChange::Joined
            ]
        );
    }

    #[test]
    fn merge_is_idempotent_and_converges() {
        let mut a = NetworkView::new(b"seed", addr(8999));
        let mut b = NetworkView::new(b"seed", addr(8999));
        a.publish(signed(b"seed", 0, 1)).expect("a0");
        a.publish(signed(b"seed", 1, 1)).expect("a1");
        b.publish(signed(b"seed", 2, 1)).expect("b2");
        b.report_down(2);
        b.publish(signed(b"seed", 3, 1)).expect("b3");

        let snap_a = a.snapshot();
        let snap_b = b.snapshot();
        a.merge_snapshot(&snap_b).expect("merge b into a");
        b.merge_snapshot(&snap_a).expect("merge a into b");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.member_ids(), vec![0, 1, 3]);
        let again = a.merge_snapshot(&b.snapshot()).expect("re-merge");
        assert!(!again, "idempotent merge must report no change");
    }

    #[test]
    fn authority_serves_put_get_down_events() {
        let receiver = addr(8999);
        let server = AuthorityServer::spawn("127.0.0.1:0", b"seed", receiver, None).expect("spawn");
        let client = AuthorityClient::new(server.addr());
        assert_eq!(client.ping().expect("ping"), 0);
        assert_eq!(
            client.receiver().expect("receiver"),
            receiver,
            "RECV must work before any member joins"
        );
        for id in 0..3 {
            client.publish(&signed(b"seed", id, 1)).expect("publish");
        }
        let snapshot = client.fetch(0).expect("fetch").expect("some");
        let mut view = NetworkView::new(b"seed", receiver);
        view.merge_snapshot(&snapshot).expect("merge");
        assert_eq!(view.member_ids(), vec![0, 1, 2]);
        assert!(client.fetch(view.version()).expect("same").is_none());

        let version = client.report_down(1).expect("down");
        assert_eq!(version, 4);
        let (events, at) = client.events(3).expect("events");
        assert_eq!(at, 4);
        assert_eq!(
            events,
            vec![MembershipEvent {
                version: 4,
                id: 1,
                kind: MembershipChange::Left
            }]
        );
        assert_eq!(server.member_ids(), vec![0, 2]);
        server.shutdown();
    }

    #[test]
    fn leases_expire_silent_members() {
        let server = AuthorityServer::spawn(
            "127.0.0.1:0",
            b"seed",
            addr(8999),
            Some(Duration::from_millis(60)),
        )
        .expect("spawn");
        let client = AuthorityClient::new(server.addr());
        client.publish(&signed(b"seed", 0, 1)).expect("publish");
        client.publish(&signed(b"seed", 1, 1)).expect("publish");
        let deadline = Instant::now() + Duration::from_secs(5);
        // keep relay 0 alive with fresh versions; let relay 1 lapse
        loop {
            if server.member_ids() == vec![0] || Instant::now() > deadline {
                break;
            }
            let next = server.version() + 10;
            let _ = client.publish(&signed(b"seed", 0, next));
            thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(server.member_ids(), vec![0], "silent member must expire");
        server.shutdown();
    }

    #[test]
    fn hex_roundtrips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).expect("decode"), bytes);
        assert!(hex_decode("0g").is_err());
        assert!(hex_decode("abc").is_err());
    }
}
