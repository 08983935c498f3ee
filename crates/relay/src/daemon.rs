//! The relay daemon: accepts connections, peels one layer, forwards.
//!
//! Each relay owns one `TcpListener`; every accepted connection gets a
//! worker thread that reads [`wire`] frames, peels cells with the relay's
//! static identity ([`crate::circuit::peel`]), re-frames the inner prefix
//! with fresh junk, and writes it to the next hop (or the receiver). All
//! of a relay's workers share one outbound connection per next hop, so a
//! cluster of `n` relays holds at most `n + 1` connections out of each
//! relay, however many routes pass through it. Dialing and writing there
//! each give up after a 5 s send deadline, and for one deadline after
//! that the hop's cells are dropped without waiting, so a next hop that
//! stops reading costs the workers dropped cells, not the rest of their
//! lives.
//!
//! A relay serves a capped number of connections at once, sized from
//! its network's `n` ([`crate::max_connections_for`]): the static
//! [`Directory`]'s, or for a gossiped topology the members its view
//! holds at each accept, never below [`crate::MAX_CONNECTIONS`]. A full
//! relay closes its idlest connection to serve a new one.
//! Shutdown is graceful and bounded: [`Relay::shutdown`] raises a flag
//! and wakes the blocked `accept`; workers observe the flag within one
//! read-timeout tick; [`Relay::join`] waits with a deadline and
//! propagates worker panics as [`Error::WorkerPanic`] instead of hanging
//! the caller — the discipline the in-process cluster harness (and its
//! tests) rely on. That lifecycle is the crate's one shared server loop.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anonroute_obs::Registry;

use anonroute_crypto::handshake::NodeIdentity;
use anonroute_crypto::onion::{self, Peeled};
use anonroute_sim::{Endpoint, MsgId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::authority::NetworkView;
use crate::circuit;
use crate::directory::{Directory, DirectoryCell};
use crate::error::{Error, Result};
use crate::gossip;
use crate::obs;
use crate::tap::LinkTap;
use crate::wire::{self, Frame, ReadOutcome, MAX_STALLS};
use crate::workers::{max_connections_for, Conn, Server, MAX_CONNECTIONS};

/// Settings of one relay daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayConfig {
    /// Fixed relay-cell size in bytes; cells of any other size are
    /// dropped.
    pub cell_size: usize,
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            cell_size: circuit::DEFAULT_CELL_SIZE,
        }
    }
}

/// Traffic counters of one relay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelayStats {
    /// Cells peeled and forwarded to another member.
    pub relayed: u64,
    /// Payloads delivered to the receiver.
    pub delivered: u64,
    /// Cells dropped: wrong size, failed authentication, unknown next
    /// hop, unexpected frame type, or a dead downstream link.
    pub dropped: u64,
    /// The handshake-failure subset of `dropped`: correctly sized cells
    /// whose layer failed to authenticate/decrypt at this relay — the
    /// signal that distinguishes a misdelivered or corrupted circuit
    /// from transport-level trouble.
    pub peel_failures: u64,
    /// Inbound connections accepted.
    pub accepted: u64,
}

#[derive(Debug, Default)]
struct Counters {
    relayed: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    peel_failures: AtomicU64,
    accepted: AtomicU64,
    /// Inbound queue: worker connections currently open. The honest
    /// depth for a thread-per-connection daemon — there is no buffered
    /// queue of cells, connections *are* the backlog.
    inbound: obs::QueueDepth,
    /// Outbound queue: downstream frame writes currently in progress.
    outbound: obs::QueueDepth,
}

impl Counters {
    fn snapshot(&self) -> RelayStats {
        RelayStats {
            relayed: self.relayed.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            peel_failures: self.peel_failures.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
        }
    }
}

/// How a serving relay resolves the current network map.
#[derive(Debug, Clone)]
enum Topology {
    /// Directory pinned at serve time (cluster harness, static CLI).
    Fixed(Arc<Directory>),
    /// Hot-swappable gossiped topology: the cell is refreshed whenever a
    /// merged snapshot changes the member set (see [`crate::gossip`]).
    Dynamic {
        /// The routable directory, swapped atomically on merges.
        cell: DirectoryCell,
        /// The mergeable membership state behind the cell.
        view: Arc<Mutex<NetworkView>>,
    },
}

impl Topology {
    /// The directory to route the next cell against.
    fn directory(&self) -> Arc<Directory> {
        match self {
            Topology::Fixed(directory) => Arc::clone(directory),
            Topology::Dynamic { cell, .. } => cell.load(),
        }
    }
}

/// What every connection worker of one relay shares.
#[derive(Debug)]
struct Hop {
    id: NodeId,
    identity: NodeIdentity,
    topology: Topology,
    tap: LinkTap,
    counters: Arc<Counters>,
    outbound: Arc<Outbound>,
    cell_size: usize,
}

/// Takes a connection off the inbound queue when its worker unwinds,
/// panic or not.
struct InboundGuard<'a>(&'a obs::QueueDepth);

impl Drop for InboundGuard<'_> {
    fn drop(&mut self) {
        self.0.exit();
    }
}

/// A bound-but-not-yet-serving relay: the two-phase start lets the
/// cluster harness bind every listener first, build the [`Directory`]
/// from the resulting addresses, then start serving against it.
#[derive(Debug)]
pub struct PendingRelay {
    id: NodeId,
    identity: NodeIdentity,
    listener: TcpListener,
    config: RelayConfig,
}

impl PendingRelay {
    /// Binds member `id` on a loopback ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(id: NodeId, identity: NodeIdentity, config: RelayConfig) -> Result<Self> {
        Self::bind_to(
            id,
            identity,
            "127.0.0.1:0".parse().expect("static addr"),
            config,
        )
    }

    /// Binds member `id` on an explicit address (for standalone daemons).
    ///
    /// # Errors
    ///
    /// Socket errors, wrapped so the message names the relay id and the
    /// address that failed — a multi-process bring-up with a port taken
    /// or an interface missing must say *which* relay could not bind.
    pub fn bind_to(
        id: NodeId,
        identity: NodeIdentity,
        addr: SocketAddr,
        config: RelayConfig,
    ) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| {
            Error::Io(std::io::Error::new(
                e.kind(),
                format!("relay {id}: failed to bind {addr}: {e}"),
            ))
        })?;
        Ok(PendingRelay {
            id,
            identity,
            listener,
            config,
        })
    }

    /// The member id this relay will serve.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// The relay's static public key for the directory.
    pub fn public(&self) -> [u8; 32] {
        *self.identity.public()
    }

    /// Starts serving against `directory`, recording forwarded links into
    /// `tap`. `seed` only feeds the junk-byte generators (framing
    /// padding), never key material. The connection cap is sized from
    /// the directory ([`crate::max_connections_for`]).
    pub fn serve(self, directory: Arc<Directory>, tap: LinkTap, seed: u64) -> Relay {
        let cap = max_connections_for(directory.n());
        self.serve_with(Topology::Fixed(directory), tap, seed, move || cap)
    }

    /// Starts serving against a gossiped topology: routing reads the
    /// hot-swappable `cell`, and incoming [`Frame::Gossip`] snapshots
    /// are merged into `view` (refreshing the cell on change), so the
    /// relay learns the network from its peers instead of a static
    /// file. Pair with a [`crate::gossip::GossipRunner`] sharing the
    /// same handles. The network's size changes, so the connection cap
    /// is sized at each accept from the members `view` holds then, and
    /// is never below [`crate::MAX_CONNECTIONS`].
    pub fn serve_dynamic(
        self,
        cell: DirectoryCell,
        view: Arc<Mutex<NetworkView>>,
        tap: LinkTap,
        seed: u64,
    ) -> Relay {
        let members = Arc::clone(&view);
        let cap = move || {
            let n = members.lock().expect("network view").len();
            max_connections_for(n).max(MAX_CONNECTIONS)
        };
        self.serve_with(Topology::Dynamic { cell, view }, tap, seed, cap)
    }

    fn serve_with(
        self,
        topology: Topology,
        tap: LinkTap,
        seed: u64,
        cap: impl Fn() -> usize + Send + 'static,
    ) -> Relay {
        let PendingRelay {
            id,
            identity,
            listener,
            config,
        } = self;
        let hop = Hop {
            id,
            identity,
            topology,
            tap,
            counters: Arc::new(Counters::default()),
            outbound: Arc::new(Outbound::default()),
            cell_size: config.cell_size,
        };
        let counters = Arc::clone(&hop.counters);
        let outbound = Arc::clone(&hop.outbound);
        let server = Server::spawn(listener, format!("relay {id}"), cap, move |stream, conn| {
            let junk_rng =
                StdRng::seed_from_u64(seed ^ conn.index().wrapping_mul(0x9E37_79B9_7F4A_7C15));
            serve_conn(stream, &hop, conn, junk_rng);
        });
        Relay {
            id,
            server,
            counters,
            outbound,
        }
    }
}

/// A serving relay daemon.
#[derive(Debug)]
pub struct Relay {
    id: NodeId,
    server: Server,
    counters: Arc<Counters>,
    outbound: Arc<Outbound>,
}

impl Relay {
    /// The member id this relay serves.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The address the relay listens on.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Current traffic counters.
    pub fn stats(&self) -> RelayStats {
        self.counters.snapshot()
    }

    /// Registers this relay's live counters as polled series in
    /// `registry`, labeled `relay="<id>"` — the wiring for a standalone
    /// daemon's `--metrics-addr` endpoint. Per-relay label cardinality is
    /// deliberate here and wrong for ephemeral cluster members; sweeps
    /// aggregate through [`crate::obs::ClusterMetrics`] instead.
    pub fn register_metrics(&self, registry: &'static Registry) {
        let id = self.id.to_string();
        let labels: &[(&str, &str)] = &[("relay", &id)];
        for (outcome, read) in [
            ("relayed", {
                let c = Arc::clone(&self.counters);
                Box::new(move || c.relayed.load(Ordering::Relaxed) as f64)
                    as Box<dyn Fn() -> f64 + Send + Sync>
            }),
            ("delivered", {
                let c = Arc::clone(&self.counters);
                Box::new(move || c.delivered.load(Ordering::Relaxed) as f64)
            }),
            ("dropped", {
                let c = Arc::clone(&self.counters);
                Box::new(move || c.dropped.load(Ordering::Relaxed) as f64)
            }),
        ] {
            registry.counter_fn(
                "anonroute_relay_cells_total",
                "Cells handled by this relay, by outcome.",
                &[("outcome", outcome), ("relay", &id)],
                read,
            );
        }
        let counters = Arc::clone(&self.counters);
        registry.counter_fn(
            "anonroute_relay_handshake_failures_total",
            "Cells whose onion layer failed to authenticate at this relay.",
            labels,
            move || counters.peel_failures.load(Ordering::Relaxed) as f64,
        );
        let shutdown = self.server.stop_flag();
        registry.gauge_fn(
            "anonroute_relay_shutting_down",
            "1 once shutdown has been requested, else 0.",
            labels,
            move || f64::from(u8::from(shutdown.load(Ordering::SeqCst))),
        );
        for (queue, depth, high_water) in [
            (
                "inbound",
                {
                    let c = Arc::clone(&self.counters);
                    Box::new(move || c.inbound.depth() as f64) as Box<dyn Fn() -> f64 + Send + Sync>
                },
                {
                    let c = Arc::clone(&self.counters);
                    Box::new(move || c.inbound.high_water() as f64)
                        as Box<dyn Fn() -> f64 + Send + Sync>
                },
            ),
            (
                "outbound",
                {
                    let c = Arc::clone(&self.counters);
                    Box::new(move || c.outbound.depth() as f64)
                },
                {
                    let c = Arc::clone(&self.counters);
                    Box::new(move || c.outbound.high_water() as f64)
                },
            ),
        ] {
            registry.gauge_fn(
                "anonroute_relay_queue_depth",
                "Current work-queue depth on this relay (inbound = live worker \
                 connections, outbound = downstream writes in progress).",
                &[("queue", queue), ("relay", &id)],
                depth,
            );
            registry.gauge_fn(
                "anonroute_relay_queue_high_water",
                "Deepest the queue has been since the relay started.",
                &[("queue", queue), ("relay", &id)],
                high_water,
            );
        }
    }

    /// Requests shutdown: raises the flag, wakes the blocked accept, and
    /// closes the idle outbound connections, so the next hops' workers
    /// read their end of file instead of waiting out a read poll.
    /// Idempotent; returns immediately — pair with [`Relay::join`].
    pub fn shutdown(&self) {
        self.server.signal();
        self.outbound.close_idle();
    }

    /// Stops the relay and waits for every thread, with a deadline.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if the daemon does not wind down in time (the
    /// thread is leaked rather than blocked on), [`Error::WorkerPanic`]
    /// when a connection worker or the accept loop panicked, or the
    /// first error the accept loop itself hit.
    pub fn join(self, timeout: Duration) -> Result<RelayStats> {
        self.shutdown();
        self.server.join(timeout)?;
        Ok(self.counters.snapshot())
    }
}

/// Serves one inbound connection until end of file, a protocol error, or
/// shutdown.
fn serve_conn(mut stream: TcpStream, hop: &Hop, conn: &Conn, mut junk_rng: StdRng) {
    let counters = &hop.counters;
    counters.accepted.fetch_add(1, Ordering::Relaxed);
    counters.inbound.enter();
    let _open = InboundGuard(&counters.inbound);
    while !conn.stopping() {
        let frame = match wire::read_frame(&mut stream, MAX_STALLS) {
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Eof) => break,
            Ok(ReadOutcome::Frame(frame)) => frame,
            Err(_) => {
                // protocol violation or dead socket: drop the connection
                counters.dropped.fetch_add(1, Ordering::Relaxed);
                break;
            }
        };
        conn.touch();
        match frame {
            Frame::Cell { msg, cell } => {
                handle_cell(msg, &cell, hop, &hop.topology.directory(), &mut junk_rng);
            }
            Frame::Deliver { .. } => {
                // relays are not the receiver; a DELIVER here is misrouted
                counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
            Frame::Gossip { snapshot } => match &hop.topology {
                // a gossip push to a statically provisioned relay is
                // misrouted, like a DELIVER
                Topology::Fixed(_) => {
                    counters.dropped.fetch_add(1, Ordering::Relaxed);
                }
                Topology::Dynamic { cell, view } => {
                    gossip::ingest(view, cell, &snapshot);
                }
            },
        }
    }
}

fn handle_cell(msg: u64, cell: &[u8], hop: &Hop, directory: &Directory, junk_rng: &mut StdRng) {
    let (id, counters) = (hop.id, &hop.counters);
    if cell.len() != hop.cell_size {
        counters.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let _cell_span = anonroute_obs::span("relay.cell", "relay");
    let peeled = {
        let _peel_span = anonroute_obs::span("relay.peel", "relay");
        circuit::peel(&hop.identity, cell)
    };
    match peeled {
        Ok(Peeled::Forward { next, content }) => {
            let next_id = next as usize;
            let Some(info) = directory.node(next_id) else {
                counters.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            };
            let framed = onion::frame(&content, hop.cell_size, &mut || junk_rng.gen::<u8>())
                .expect("peeled content is strictly smaller than the incoming cell");
            // record before sending: per-message tap order = path order
            hop.tap
                .record(Endpoint::Node(id), Endpoint::Node(next_id), MsgId(msg));
            let frame = Frame::Cell { msg, cell: framed };
            let _fwd_span = anonroute_obs::span("relay.forward", "relay");
            counters.outbound.enter();
            let sent = hop.outbound.send(next_id, info.addr, &frame);
            counters.outbound.exit();
            if sent.is_ok() {
                counters.relayed.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(Peeled::Deliver { payload }) => {
            hop.tap
                .record(Endpoint::Node(id), Endpoint::Receiver, MsgId(msg));
            let frame = Frame::Deliver {
                msg,
                from: id as u16,
                payload,
            };
            let _deliver_span = anonroute_obs::span("relay.deliver", "relay");
            counters.outbound.enter();
            let sent = hop.outbound.send(usize::MAX, directory.receiver(), &frame);
            counters.outbound.exit();
            if sent.is_ok() {
                counters.delivered.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        Err(_) => {
            // not addressed to us / corrupted: a real router drops it,
            // but the handshake-failure count is what an operator
            // diagnoses a misrouted or corrupted circuit from
            counters.peel_failures.fetch_add(1, Ordering::Relaxed);
            counters.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A relay's outbound connections: one slot per next hop (the receiver
/// is `usize::MAX`), shared by all of the relay's workers. The map lock
/// is held only to find or insert a slot; a slot's own lock is held
/// across its dial and write, which keeps each frame whole on the shared
/// stream.
#[derive(Debug, Default)]
struct Outbound {
    slots: Mutex<HashMap<usize, Arc<Mutex<Slot>>>>,
}

/// One next hop's connection, and when a send to it last timed out.
#[derive(Debug, Default)]
struct Slot {
    stream: Option<TcpStream>,
    stalled_at: Option<Instant>,
}

impl Outbound {
    /// Writes `frame` to next hop `key` at `addr` over the shared
    /// connection, as [`send_cached`] does. A worker queued behind a send
    /// that timed out does not wait out a deadline of its own: for one
    /// [`wire::SEND_DEADLINE`] after a timeout, sends to that hop fail at
    /// once.
    fn send(&self, key: usize, addr: SocketAddr, frame: &Frame) -> Result<()> {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("outbound map lock")
                .entry(key)
                .or_default(),
        );
        let mut slot = slot.lock().expect("outbound slot lock");
        if slot
            .stalled_at
            .is_some_and(|at| at.elapsed() < wire::SEND_DEADLINE)
        {
            return Err(Error::Timeout(format!(
                "a send to {addr} timed out within the last {:?}",
                wire::SEND_DEADLINE
            )));
        }
        let sent = send_on(&mut slot.stream, addr, frame);
        if matches!(&sent, Err(Error::Io(e)) if timed_out(e)) {
            slot.stalled_at = Some(Instant::now());
        }
        sent
    }

    /// Closes every connection no worker is writing to.
    fn close_idle(&self) {
        for slot in self.slots.lock().expect("outbound map lock").values() {
            if let Ok(mut slot) = slot.try_lock() {
                slot.stream = None;
            }
        }
    }
}

/// Writes `frame` over the cached connection to `key`, dialing (or
/// re-dialing a stale socket) on demand.
///
/// The dial and the frame's write are each bounded by
/// [`wire::SEND_DEADLINE`], so one call returns within two deadlines
/// even against a peer that accepts but never reads. A cached write that
/// times out is not retried on a fresh connection: the peer is alive but
/// not reading, and the half-written frame has spoiled the stream, so
/// the connection is dropped and the error returned.
pub(crate) fn send_cached(
    conns: &mut HashMap<usize, TcpStream>,
    key: usize,
    addr: SocketAddr,
    frame: &Frame,
) -> Result<()> {
    let mut stream = conns.remove(&key);
    let sent = send_on(&mut stream, addr, frame);
    if let Some(stream) = stream {
        conns.insert(key, stream);
    }
    sent
}

/// [`send_cached`] over one connection slot, which is left empty when
/// the connection is spoiled.
fn send_on(slot: &mut Option<TcpStream>, addr: SocketAddr, frame: &Frame) -> Result<()> {
    if let Some(stream) = slot {
        match wire::send_frame(stream, frame) {
            Ok(()) => return Ok(()),
            Err(e) if timed_out(&e) => {
                *slot = None;
                return Err(e.into());
            }
            // stale: the peer restarted or timed us out
            Err(_) => *slot = None,
        }
    }
    let mut stream = TcpStream::connect_timeout(&addr, wire::SEND_DEADLINE)?;
    stream.set_write_timeout(Some(wire::SEND_DEADLINE))?;
    let _ = stream.set_nodelay(true);
    wire::send_frame(&mut stream, frame)?;
    *slot = Some(stream);
    Ok(())
}

/// Whether a socket error is a missed deadline rather than a dead peer.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::NodeInfo;
    use crate::fault::within;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::Read;

    fn identity(id: u64) -> NodeIdentity {
        NodeIdentity::derive(b"daemon-tests", id)
    }

    /// One relay, a fake receiver socket, and a hand-built 1-hop circuit.
    #[test]
    fn relay_peels_and_delivers_over_tcp() {
        let receiver_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let receiver_addr = receiver_listener.local_addr().unwrap();
        let config = RelayConfig { cell_size: 512 };
        let pending = PendingRelay::bind(0, identity(0), config).unwrap();
        let directory = Arc::new(
            Directory::new(
                vec![NodeInfo {
                    id: 0,
                    addr: pending.addr(),
                    public: pending.public(),
                }],
                receiver_addr,
            )
            .unwrap(),
        );
        let tap = LinkTap::new();
        let relay = pending.serve(Arc::clone(&directory), tap.clone(), 1);

        let mut rng = StdRng::seed_from_u64(9);
        let wire_bytes = circuit::build(
            &[directory.node(0).unwrap().public],
            &[0u16],
            b"over real sockets",
            &mut rng,
        )
        .unwrap();
        let cell = onion::frame(&wire_bytes, 512, &mut || rng.gen::<u8>()).unwrap();
        let mut conn = TcpStream::connect(relay.addr()).unwrap();
        wire::write_frame(&mut conn, &Frame::Cell { msg: 7, cell }).unwrap();

        let (mut from_relay, _) = receiver_listener.accept().unwrap();
        match wire::read_frame(&mut from_relay, 100).unwrap() {
            ReadOutcome::Frame(Frame::Deliver { msg, from, payload }) => {
                assert_eq!(msg, 7);
                assert_eq!(from, 0);
                assert_eq!(payload, b"over real sockets");
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = relay.join(Duration::from_secs(5)).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 0);
        assert_eq!(tap.len(), 1); // the exit→receiver edge
    }

    #[test]
    fn a_full_relay_closes_its_idlest_connections_and_keeps_serving() {
        let tap = LinkTap::new();
        let receiver = crate::ReceiverServer::spawn(tap.clone(), 8).unwrap();
        let config = RelayConfig { cell_size: 512 };
        let pending = PendingRelay::bind(0, identity(0), config).unwrap();
        let directory = Arc::new(
            Directory::new(
                vec![NodeInfo {
                    id: 0,
                    addr: pending.addr(),
                    public: pending.public(),
                }],
                receiver.addr(),
            )
            .unwrap(),
        );
        let relay = pending.serve(Arc::clone(&directory), tap, 1);
        let cap = max_connections_for(1);
        let (flood, closed) = crate::fault::flood(relay.addr(), cap + 28);
        assert!(
            closed >= 28,
            "only {closed} of the 28 connections past the cap of {cap} were closed"
        );

        // with the flood's sockets still open, a new connection displaces
        // an idle one and its circuit is carried
        let mut rng = StdRng::seed_from_u64(9);
        let public = directory.node(0).unwrap().public;
        let wire_bytes = circuit::build(&[public], &[0u16], b"during the flood", &mut rng).unwrap();
        let cell = onion::frame(&wire_bytes, 512, &mut || rng.gen::<u8>()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut msg = 0;
        while !receiver.wait_for(1, Duration::from_millis(100)) {
            assert!(Instant::now() < deadline, "the relay never served again");
            msg += 1;
            if let Ok(mut conn) = TcpStream::connect(relay.addr()) {
                let frame = Frame::Cell {
                    msg,
                    cell: cell.clone(),
                };
                let _ = wire::write_frame(&mut conn, &frame);
            }
        }
        assert_eq!(receiver.take()[0].payload, b"during the flood");
        let most = relay.counters.inbound.high_water();
        assert!(most <= cap as i64, "{most} connections open at once");
        drop(flood);
        relay.join(Duration::from_secs(5)).unwrap();
        receiver.join(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn garbage_cells_are_dropped_not_fatal() {
        let receiver = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = RelayConfig { cell_size: 256 };
        let pending = PendingRelay::bind(0, identity(0), config).unwrap();
        let directory = Arc::new(
            Directory::new(
                vec![NodeInfo {
                    id: 0,
                    addr: pending.addr(),
                    public: pending.public(),
                }],
                receiver.local_addr().unwrap(),
            )
            .unwrap(),
        );
        let relay = pending.serve(directory, LinkTap::new(), 2);
        let mut conn = TcpStream::connect(relay.addr()).unwrap();
        // wrong size
        wire::write_frame(
            &mut conn,
            &Frame::Cell {
                msg: 1,
                cell: vec![0u8; 10],
            },
        )
        .unwrap();
        // right size, not addressed to this relay
        wire::write_frame(
            &mut conn,
            &Frame::Cell {
                msg: 2,
                cell: vec![0u8; 256],
            },
        )
        .unwrap();
        // misrouted DELIVER
        wire::write_frame(
            &mut conn,
            &Frame::Deliver {
                msg: 3,
                from: 0,
                payload: vec![],
            },
        )
        .unwrap();
        drop(conn);
        // shutdown may discard unprocessed input, so await the counters
        // before joining
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while relay.stats().dropped < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = relay.join(Duration::from_secs(5)).unwrap();
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.relayed, 0);
    }

    #[test]
    fn shutdown_is_bounded_even_with_open_idle_connections() {
        let receiver = TcpListener::bind("127.0.0.1:0").unwrap();
        let pending = PendingRelay::bind(0, identity(0), RelayConfig::default()).unwrap();
        let directory = Arc::new(
            Directory::new(
                vec![NodeInfo {
                    id: 0,
                    addr: pending.addr(),
                    public: pending.public(),
                }],
                receiver.local_addr().unwrap(),
            )
            .unwrap(),
        );
        let relay = pending.serve(directory, LinkTap::new(), 3);
        // an idle connection that never sends and never closes
        let _idle = TcpStream::connect(relay.addr()).unwrap();
        let start = std::time::Instant::now();
        relay.join(Duration::from_secs(5)).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "join exceeded its bound"
        );
    }

    #[test]
    fn bind_errors_name_the_relay_and_address() {
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap();
        let err = PendingRelay::bind_to(7, identity(7), addr, RelayConfig::default())
            .expect_err("double bind must fail");
        let msg = err.to_string();
        assert!(msg.contains("relay 7"), "got: {msg}");
        assert!(msg.contains(&addr.to_string()), "got: {msg}");
    }

    #[test]
    fn dynamic_relays_merge_gossip_frames_into_their_topology() {
        use crate::authority::{NetworkView, RelayDescriptor};

        let receiver = TcpListener::bind("127.0.0.1:0").unwrap();
        let receiver_addr = receiver.local_addr().unwrap();
        let net_seed = b"daemon-gossip";
        let pending =
            PendingRelay::bind(0, NodeIdentity::derive(net_seed, 0), RelayConfig::default())
                .unwrap();
        let mut bootstrap = NetworkView::new(net_seed, receiver_addr);
        bootstrap
            .publish(RelayDescriptor::derive(net_seed, 0, pending.addr(), 1).sign(net_seed))
            .unwrap();
        let cell = DirectoryCell::new(bootstrap.to_directory().unwrap());
        let view = Arc::new(Mutex::new(bootstrap.clone()));
        let relay = pending.serve_dynamic(cell.clone(), Arc::clone(&view), LinkTap::new(), 5);

        // a peer that also knows relay 1 pushes its snapshot at us
        let other = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer_view = bootstrap;
        peer_view
            .publish(
                RelayDescriptor::derive(net_seed, 1, other.local_addr().unwrap(), 1).sign(net_seed),
            )
            .unwrap();
        let mut conn = TcpStream::connect(relay.addr()).unwrap();
        wire::write_frame(
            &mut conn,
            &Frame::Gossip {
                snapshot: peer_view.snapshot(),
            },
        )
        .unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while view.lock().unwrap().len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(view.lock().unwrap().member_ids(), vec![0, 1]);
        assert_eq!(cell.load().n(), 2, "merged topology must become routable");
        relay.join(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn dynamic_relays_size_their_cap_from_the_members_they_know() {
        use crate::authority::{NetworkView, RelayDescriptor};

        let receiver = TcpListener::bind("127.0.0.1:0").unwrap();
        let net_seed = b"daemon-cap";
        let pending =
            PendingRelay::bind(0, NodeIdentity::derive(net_seed, 0), RelayConfig::default())
                .unwrap();
        let mut view = NetworkView::new(net_seed, receiver.local_addr().unwrap());
        view.publish(RelayDescriptor::derive(net_seed, 0, pending.addr(), 1).sign(net_seed))
            .unwrap();
        let cell = DirectoryCell::new(view.to_directory().unwrap());
        let view = Arc::new(Mutex::new(view));
        let relay = pending.serve_dynamic(cell, Arc::clone(&view), LinkTap::new(), 5);

        // one known member: the cap is the floor
        let (flood, closed) = crate::fault::flood(relay.addr(), MAX_CONNECTIONS + 8);
        assert!(closed >= 8, "only {closed} of 8 were closed at the floor");
        drop(flood);

        // once the view holds 40 members, 40 more links all fit
        for id in 1..40 {
            let addr = receiver.local_addr().unwrap();
            let signed = RelayDescriptor::derive(net_seed, id, addr, 1).sign(net_seed);
            view.lock().unwrap().publish(signed).unwrap();
        }
        assert!(max_connections_for(40) >= MAX_CONNECTIONS + 40);
        let (flood, closed) = crate::fault::flood(relay.addr(), 40);
        assert_eq!(closed, 0, "links within the view's cap are kept open");
        drop(flood);
        relay.join(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn send_cached_redials_stale_connections() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut conns = HashMap::new();
        let frame = Frame::Deliver {
            msg: 1,
            from: 0,
            payload: b"a".to_vec(),
        };
        send_cached(&mut conns, 0, addr, &frame).unwrap();
        let (mut first, _) = listener.accept().unwrap();
        // kill the server side of the cached connection and drain it
        let mut buf = Vec::new();
        first
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let _ = first.read_to_end(&mut buf);
        drop(first);
        // writes eventually fail; a redial must recover (the first failed
        // write can be absorbed by socket buffers, so retry a few times)
        listener.set_nonblocking(true).unwrap();
        let mut recovered = false;
        for _ in 0..100 {
            let _ = send_cached(&mut conns, 0, addr, &frame);
            if let Ok((second, _)) = listener.accept() {
                drop(second);
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(recovered, "send_cached never re-dialed");
    }

    #[test]
    fn send_cached_gives_up_on_a_peer_that_never_reads() {
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = stalled.local_addr().unwrap();
        let limit = wire::SEND_DEADLINE + Duration::from_secs(2);
        let (elapsed, err) = within(3 * wire::SEND_DEADLINE, move || {
            let frame = Frame::Cell {
                msg: 1,
                cell: vec![0u8; wire::MAX_FRAME - 9],
            };
            let mut conns = HashMap::new();
            let start = std::time::Instant::now();
            // the socket buffers absorb the first few megabytes
            let err = loop {
                if let Err(e) = send_cached(&mut conns, 0, addr, &frame) {
                    break e;
                }
            };
            assert!(conns.is_empty(), "a stalled connection stays cached");
            (start.elapsed(), err)
        });
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert!(elapsed < limit, "send_cached returned after {elapsed:?}");
    }

    #[test]
    fn shared_sends_to_a_stalled_hop_fail_at_once_for_a_deadline() {
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = stalled.local_addr().unwrap();
        within(3 * wire::SEND_DEADLINE, move || {
            let outbound = Outbound::default();
            let frame = Frame::Cell {
                msg: 1,
                cell: vec![0u8; wire::MAX_FRAME - 9],
            };
            // the socket buffers absorb the first few megabytes
            let first = loop {
                if let Err(e) = outbound.send(0, addr, &frame) {
                    break e;
                }
            };
            assert!(matches!(first, Error::Io(_)), "{first}");
            // a worker queued behind that send does not wait out a
            // deadline of its own
            let start = std::time::Instant::now();
            let next = outbound.send(0, addr, &frame).unwrap_err();
            assert!(matches!(next, Error::Timeout(_)), "{next}");
            assert!(start.elapsed() < Duration::from_secs(1));
            drop(stalled);
        });
    }

    #[test]
    fn relays_drop_cells_for_a_next_hop_that_never_reads() {
        let stalled = TcpListener::bind("127.0.0.1:0").unwrap();
        let receiver = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = RelayConfig { cell_size: 1 << 18 };
        let pending = PendingRelay::bind(0, identity(0), config).unwrap();
        let directory = Arc::new(
            Directory::new(
                vec![
                    NodeInfo {
                        id: 0,
                        addr: pending.addr(),
                        public: pending.public(),
                    },
                    NodeInfo {
                        id: 1,
                        addr: stalled.local_addr().unwrap(),
                        public: *identity(1).public(),
                    },
                ],
                receiver.local_addr().unwrap(),
            )
            .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let publics = [pending.public(), *identity(1).public()];
        let wire_bytes = circuit::build(&publics, &[0u16, 1], b"into the void", &mut rng).unwrap();
        let cell = onion::frame(&wire_bytes, config.cell_size, &mut || rng.gen::<u8>()).unwrap();
        let relay = pending.serve(directory, LinkTap::new(), 6);
        let stats = within(6 * wire::SEND_DEADLINE, move || {
            let mut conn = TcpStream::connect(relay.addr()).unwrap();
            // flood until the relay gives up on its stalled next hop once
            let mut sent = 0u64;
            while relay.stats().dropped == 0 {
                let frame = Frame::Cell {
                    msg: sent,
                    cell: cell.clone(),
                };
                wire::write_frame(&mut conn, &frame).unwrap();
                sent += 1;
            }
            // every cell sent is accounted for as relayed or dropped
            loop {
                let stats = relay.stats();
                if stats.relayed + stats.dropped == sent {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            relay.join(Duration::from_secs(1))
        })
        .expect("no relay worker may stay wedged");
        assert!(stats.dropped >= 1, "{stats:?}");
        assert_eq!(stats.peel_failures, 0);
    }
}
