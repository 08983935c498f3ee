//! The destination server: collects deliveries from exit relays.
//!
//! In the paper's threat model the receiver is always compromised; here
//! it is simply the TCP endpoint that terminates every circuit, recording
//! [`anonroute_sim::Delivery`] values the harness can await and inspect.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use anonroute_sim::{Delivery, Endpoint, MsgId};

use crate::error::{panic_text, Error, Result};
use crate::tap::LinkTap;
use crate::wire::{self, Frame, ReadOutcome};
use crate::workers;

/// A serving receiver endpoint.
///
/// `Sync`: the done-channel receiver sits behind a mutex so one server
/// can be shared across threads — concurrent cells of a
/// [`crate::cluster::SharedCluster`] each block in
/// [`ReceiverServer::take_range`] on their own message ids.
#[derive(Debug)]
pub struct ReceiverServer {
    addr: SocketAddr,
    inbox: Arc<Inbox>,
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<Result<()>>,
    done: Mutex<mpsc::Receiver<()>>,
}

#[derive(Debug)]
struct Inbox {
    deliveries: Mutex<Vec<Delivery>>,
    arrived: Condvar,
}

impl ReceiverServer {
    /// Binds a loopback ephemeral port and starts collecting. Timestamps
    /// come from `tap` so deliveries share the cluster's clock;
    /// `io_timeout` bounds how long workers block between reads (the
    /// shutdown-poll granularity).
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the bind.
    pub fn spawn(tap: LinkTap, io_timeout: Duration) -> Result<Self> {
        Self::spawn_at("127.0.0.1:0".parse().expect("static addr"), tap, io_timeout)
    }

    /// Like [`ReceiverServer::spawn`] on an explicit address (for
    /// standalone daemons serving a published directory entry).
    ///
    /// # Errors
    ///
    /// Socket errors from the bind, wrapped to name the receiver and
    /// the address that failed.
    pub fn spawn_at(addr: SocketAddr, tap: LinkTap, io_timeout: Duration) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| {
            crate::error::Error::Io(std::io::Error::new(
                e.kind(),
                format!("receiver: failed to bind {addr}: {e}"),
            ))
        })?;
        let addr = listener.local_addr()?;
        let inbox = Arc::new(Inbox {
            deliveries: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let thread = {
            let inbox = Arc::clone(&inbox);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let _done = workers::DoneGuard(done_tx);
                accept_loop(listener, inbox, tap, shutdown, io_timeout)
            })
        };
        Ok(ReceiverServer {
            addr,
            inbox,
            shutdown,
            thread,
            done: Mutex::new(done_rx),
        })
    }

    /// The address exit relays (and direct senders) dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
        self.wait_until(timeout, |all| all.len() >= count)
    }

    /// Blocks until every message id in `ids` was delivered or `timeout`
    /// elapsed, moving the deliveries of those ids out of the inbox as
    /// they arrive; returns them in arrival order. Deliveries of other
    /// ids (another cell's traffic) stay, and each wakeup scans only what
    /// arrived since the last one.
    pub fn take_range(&self, ids: Range<u64>, timeout: Duration) -> Vec<Delivery> {
        let want = (ids.end - ids.start) as usize;
        let mut taken = Vec::with_capacity(want);
        let mut scanned = 0;
        self.wait_until(timeout, |inbox| {
            for d in inbox.split_off(scanned) {
                if ids.contains(&d.msg.0) {
                    taken.push(d);
                } else {
                    inbox.push(d);
                }
            }
            scanned = inbox.len();
            taken.len() >= want
        });
        taken
    }

    /// Re-checks `done` against the inbox on every delivery (the inbox
    /// condvar) until it holds or `timeout` elapses; returns whether it
    /// held.
    fn wait_until(
        &self,
        timeout: Duration,
        mut done: impl FnMut(&mut Vec<Delivery>) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.inbox.deliveries.lock().expect("inbox lock");
        loop {
            if done(&mut guard) {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            guard = self
                .inbox
                .arrived
                .wait_timeout(guard, remaining)
                .expect("inbox lock")
                .0;
        }
    }

    /// Stops the server and returns everything delivered.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] when the server does not wind down in time,
    /// [`Error::WorkerPanic`] when a worker panicked.
    pub fn join(self, timeout: Duration) -> Result<Vec<Delivery>> {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let ReceiverServer {
            inbox,
            thread,
            done,
            ..
        } = self;
        let done = done.into_inner().expect("done-channel lock");
        match done.recv_timeout(timeout) {
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(Error::Timeout(format!(
                    "receiver did not stop within {timeout:?}"
                )));
            }
        }
        match thread.join() {
            Ok(Ok(())) => Ok(inbox.deliveries.lock().expect("inbox lock").clone()),
            Ok(Err(e)) => Err(e),
            Err(p) => Err(Error::WorkerPanic(format!(
                "receiver accept loop: {}",
                panic_text(p)
            ))),
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    inbox: Arc<Inbox>,
    tap: LinkTap,
    shutdown: Arc<AtomicBool>,
    io_timeout: Duration,
) -> Result<()> {
    workers::accept_loop(
        listener,
        &shutdown,
        io_timeout,
        "receiver",
        None,
        |stream, _| {
            let inbox = Arc::clone(&inbox);
            let tap = tap.clone();
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || serve_conn(stream, inbox, tap, shutdown))
        },
    )
}

/// Mirrors [`crate::daemon::RelayConfig::default`]'s `max_stalls`: the
/// receiver has no per-daemon config, but tolerates the same number of
/// stalled mid-frame reads before declaring a peer wedged.
const MAX_STALLS: u32 = 100;

fn serve_conn(mut stream: TcpStream, inbox: Arc<Inbox>, tap: LinkTap, shutdown: Arc<AtomicBool>) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match wire::read_frame(&mut stream, MAX_STALLS) {
            Ok(ReadOutcome::Idle) => continue,
            Ok(ReadOutcome::Eof) => break,
            Ok(ReadOutcome::Frame(Frame::Deliver { msg, from, payload })) => {
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
            Ok(ReadOutcome::Frame(Frame::Cell { .. } | Frame::Gossip { .. })) => {}
            Err(_) => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_and_awaits_deliveries() {
        let tap = LinkTap::new();
        let server = ReceiverServer::spawn(tap, Duration::from_millis(50)).unwrap();
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
        // a taken range leaves the inbox; the rest stays for join
        let taken = server.take_range(1..3, Duration::from_secs(5));
        assert_eq!(taken.iter().map(|d| d.msg.0).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(taken[1].payload, vec![2u8]);
        let got = server.join(Duration::from_secs(5)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].msg, MsgId(0));
        assert_eq!(got[0].last_hop, Endpoint::Node(4));
    }

    #[test]
    fn wait_for_times_out_honestly() {
        let server = ReceiverServer::spawn(LinkTap::new(), Duration::from_millis(50)).unwrap();
        let start = Instant::now();
        assert!(!server.wait_for(1, Duration::from_millis(120)));
        assert!(start.elapsed() >= Duration::from_millis(100));
        assert!(server
            .take_range(0..2, Duration::from_millis(50))
            .is_empty());
        server.join(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn misrouted_cells_are_ignored() {
        let server = ReceiverServer::spawn(LinkTap::new(), Duration::from_millis(50)).unwrap();
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
