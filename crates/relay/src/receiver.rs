//! The destination server: collects deliveries from exit relays.
//!
//! In the paper's threat model the receiver is always compromised; here
//! it is simply the TCP endpoint that terminates every circuit, recording
//! [`anonroute_sim::Delivery`] values the harness can await and inspect.
//! A cluster run awaits its cell's count with [`ReceiverServer::wait_for`]
//! and then [`ReceiverServer::take`]s everything delivered; a standalone
//! receiver daemon prints [`ReceiverServer::deliveries_since`] as they
//! arrive. Its workers poll their stop flag every 50 ms and give up on a
//! sender stalled mid-frame after 5 s, as a relay's do.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use anonroute_sim::{Delivery, Endpoint, MsgId};

use crate::error::{Error, Result};
use crate::tap::LinkTap;
use crate::wire::{self, Frame, ReadOutcome, MAX_STALLS};
use crate::workers::{Conn, Server};

/// A serving receiver endpoint.
#[derive(Debug)]
pub struct ReceiverServer {
    inbox: Arc<Inbox>,
    /// The connection cap, read at every accept.
    cap: Arc<AtomicUsize>,
    server: Server,
}

#[derive(Debug, Default)]
struct Inbox {
    deliveries: Mutex<Vec<Delivery>>,
    arrived: Condvar,
}

impl Inbox {
    fn take(&self) -> Vec<Delivery> {
        std::mem::take(&mut *self.deliveries.lock().expect("inbox lock"))
    }
}

impl ReceiverServer {
    /// Binds a loopback ephemeral port and starts collecting, serving at
    /// most `max_connections` senders at once (see
    /// [`crate::max_connections_for`]); past that, a new sender displaces
    /// the idlest one. Timestamps come from `tap` so
    /// deliveries share the cluster's clock.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the bind.
    pub fn spawn(tap: LinkTap, max_connections: usize) -> Result<Self> {
        Self::spawn_at(
            "127.0.0.1:0".parse().expect("static addr"),
            tap,
            max_connections,
        )
    }

    /// Like [`ReceiverServer::spawn`] on an explicit address (for
    /// standalone daemons serving a published directory entry).
    ///
    /// # Errors
    ///
    /// Socket errors from the bind, wrapped to name the receiver and
    /// the address that failed.
    pub fn spawn_at(addr: SocketAddr, tap: LinkTap, max_connections: usize) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| {
            Error::Io(std::io::Error::new(
                e.kind(),
                format!("receiver: failed to bind {addr}: {e}"),
            ))
        })?;
        let inbox = Arc::new(Inbox::default());
        let cap = Arc::new(AtomicUsize::new(max_connections));
        let server = {
            let inbox = Arc::clone(&inbox);
            let cap = Arc::clone(&cap);
            Server::spawn(
                listener,
                "receiver".into(),
                move || cap.load(Ordering::Relaxed),
                move |stream, conn| serve_conn(stream, &inbox, &tap, conn),
            )
        };
        Ok(ReceiverServer { inbox, cap, server })
    }

    /// Resizes the connection cap, for a receiver whose network grows
    /// or shrinks while it serves; new connections see it at once.
    pub fn set_max_connections(&self, max_connections: usize) {
        self.cap.store(max_connections, Ordering::Relaxed);
    }

    /// The address exit relays (and direct senders) dial.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// A copy of the deliveries from index `from` on — incremental drains
    /// (e.g. a printing daemon) copy only the tail instead of the whole
    /// history on every wakeup.
    pub fn deliveries_since(&self, from: usize) -> Vec<Delivery> {
        let guard = self.inbox.deliveries.lock().expect("inbox lock");
        guard
            .get(from..)
            .map(<[Delivery]>::to_vec)
            .unwrap_or_default()
    }

    /// Blocks until at least `count` deliveries arrived or `timeout`
    /// elapsed; returns whether the count was reached.
    pub fn wait_for(&self, count: usize, timeout: Duration) -> bool {
        let guard = self.inbox.deliveries.lock().expect("inbox lock");
        let (guard, _) = self
            .inbox
            .arrived
            .wait_timeout_while(guard, timeout, |all| all.len() < count)
            .expect("inbox lock");
        guard.len() >= count
    }

    /// Moves every delivery so far out of the inbox, in arrival order;
    /// later counts start from zero again.
    pub fn take(&self) -> Vec<Delivery> {
        self.inbox.take()
    }

    /// Stops the server and returns everything delivered and not taken.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] when the server does not wind down in time,
    /// [`Error::WorkerPanic`] when a worker panicked.
    pub fn join(self, timeout: Duration) -> Result<Vec<Delivery>> {
        let ReceiverServer { inbox, server, .. } = self;
        server.join(timeout)?;
        Ok(inbox.take())
    }
}

fn serve_conn(mut stream: TcpStream, inbox: &Inbox, tap: &LinkTap, conn: &Conn) {
    while !conn.stopping() {
        let frame = match wire::read_frame(&mut stream, MAX_STALLS) {
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Frame(frame)) => frame,
            Ok(ReadOutcome::Eof) | Err(_) => break,
        };
        conn.touch();
        match frame {
            Frame::Deliver { msg, from, payload } => {
                let delivery = Delivery {
                    time: tap.now(),
                    msg: MsgId(msg),
                    last_hop: Endpoint::Node(from as usize),
                    payload,
                };
                inbox.deliveries.lock().expect("inbox lock").push(delivery);
                inbox.arrived.notify_all();
            }
            // the receiver terminates circuits; raw CELL and GOSSIP
            // frames are misrouted here
            Frame::Cell { .. } | Frame::Gossip { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn collects_and_awaits_deliveries() {
        let tap = LinkTap::new();
        let server = ReceiverServer::spawn(tap, 8).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        for i in 0..3u64 {
            wire::write_frame(
                &mut conn,
                &Frame::Deliver {
                    msg: i,
                    from: 4,
                    payload: vec![i as u8],
                },
            )
            .unwrap();
        }
        assert!(server.wait_for(3, Duration::from_secs(5)));
        assert_eq!(server.deliveries_since(2).len(), 1);
        assert_eq!(server.deliveries_since(2)[0].msg, MsgId(2));
        assert!(server.deliveries_since(5).is_empty());
        // what was taken leaves the inbox; later deliveries stay for join
        let taken = server.take();
        assert_eq!(taken.iter().map(|d| d.msg.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(taken[2].payload, vec![2u8]);
        assert_eq!(taken[0].last_hop, Endpoint::Node(4));
        assert!(server.deliveries_since(0).is_empty());
        wire::write_frame(
            &mut conn,
            &Frame::Deliver {
                msg: 3,
                from: 4,
                payload: vec![3],
            },
        )
        .unwrap();
        assert!(server.wait_for(1, Duration::from_secs(5)));
        let got = server.join(Duration::from_secs(5)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].msg, MsgId(3));
    }

    #[test]
    fn wait_for_times_out_honestly() {
        let server = ReceiverServer::spawn(LinkTap::new(), 8).unwrap();
        let start = Instant::now();
        assert!(!server.wait_for(1, Duration::from_millis(120)));
        assert!(start.elapsed() >= Duration::from_millis(100));
        assert!(server.take().is_empty());
        server.join(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn a_resized_cap_applies_to_new_connections() {
        let server = ReceiverServer::spawn(LinkTap::new(), 2).unwrap();
        let (flood, closed) = crate::fault::flood(server.addr(), 4);
        assert!(closed >= 2, "only {closed} of 2 were closed at a cap of 2");
        server.set_max_connections(10);
        let (more, closed) = crate::fault::flood(server.addr(), 4);
        assert_eq!(closed, 0, "a cap of 10 keeps 4 more open");
        drop((flood, more));
        server.join(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn misrouted_cells_are_ignored() {
        let server = ReceiverServer::spawn(LinkTap::new(), 8).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        wire::write_frame(
            &mut conn,
            &Frame::Cell {
                msg: 1,
                cell: vec![0; 64],
            },
        )
        .unwrap();
        wire::write_frame(
            &mut conn,
            &Frame::Deliver {
                msg: 2,
                from: 0,
                payload: vec![9],
            },
        )
        .unwrap();
        assert!(server.wait_for(1, Duration::from_secs(5)));
        let got = server.join(Duration::from_secs(5)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].msg, MsgId(2));
    }
}
