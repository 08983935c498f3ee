//! The one lifecycle of the crate's TCP servers. The relay daemon, the
//! receiver and the directory authority each hand [`Server::spawn`] a
//! bound listener and a per-connection handler, and keep only that
//! handler and their own state:
//!
//! * the accept thread runs each connection on its own worker thread,
//!   with reads that time out every [`IO_TIMEOUT`]. At the server's
//!   connection cap it makes room before it starts a thread: it closes
//!   the connection whose peer has been silent longest (the handlers
//!   stamp [`Conn::touch`] on every read) and, once that worker has
//!   exited, serves the new one. So idle sockets cannot lock a full
//!   server: a new connection always displaces the idlest one;
//! * [`Server::signal`] raises the stop flag, which workers check on
//!   every read tick, and wakes the blocked `accept` with a
//!   self-connect while the accept thread still runs;
//! * [`Server::join`] waits for the accept thread, which joins every
//!   worker, no longer than its timeout, and reports worker panics as
//!   one [`Error::WorkerPanic`].
//!
//! A long-running server keeps O(live connections) thread handles, not
//! O(all connections ever): the accept loop reaps finished workers
//! before it counts a new connection against the cap.

use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::error::{panic_text, Error, Result};
use crate::wire::IO_TIMEOUT;

/// Connection cap of the directory authority, whose clients hold one
/// short request connection each, and the floor of the cap of the
/// daemons it feeds, which size theirs from the members they know
/// ([`max_connections_for`]). It matches the obs HTTP server's cap of
/// 32.
pub const MAX_CONNECTIONS: usize = 32;

/// Connection cap of a relay or receiver serving a network of `n`
/// relays. A server there holds one inbound connection from each
/// relay's shared outbound link and one from the sending client, n + 1
/// in all; the cap doubles that for re-dials whose old connection has
/// not closed yet and leaves 8 to spare, so no cluster run reaches it.
pub fn max_connections_for(n: usize) -> usize {
    n.saturating_add(1).saturating_mul(2).saturating_add(8)
}

/// A serving TCP server: its address, its stop flag, and its accept
/// thread. Dropping it without [`Server::join`] still signals it to
/// stop.
#[derive(Debug)]
pub(crate) struct Server {
    addr: SocketAddr,
    label: String,
    stop: Arc<AtomicBool>,
    accept: Option<Accept>,
}

/// The accept thread and the channel its [`DoneGuard`] signals.
#[derive(Debug)]
struct Accept {
    thread: JoinHandle<Result<()>>,
    done: mpsc::Receiver<()>,
}

/// One accepted connection as its handler sees it: its index, the
/// server's stop flag, and when its peer last sent something.
#[derive(Debug)]
pub(crate) struct Conn {
    index: u64,
    stop: Arc<AtomicBool>,
    /// The server's start, the origin of `last_read`.
    epoch: Instant,
    /// Nanoseconds from `epoch` to the accept or the latest read.
    last_read: AtomicU64,
    /// A second handle on the socket, for the accept loop to close it
    /// by; the worker drops it as it ends, so it never holds a finished
    /// connection open. Its lock guards a single take or shutdown, which
    /// cannot leave it half-updated, so a poisoned lock is recovered.
    handle: Mutex<Option<TcpStream>>,
}

impl Conn {
    /// The connection's index: served connections count from 1.
    pub(crate) fn index(&self) -> u64 {
        self.index
    }

    /// Whether the server is stopping; handlers poll it between reads.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Records that the peer just sent something, so the connection is
    /// not the idlest one when a full server makes room.
    pub(crate) fn touch(&self) {
        self.last_read
            .store(nanos_since(self.epoch), Ordering::Relaxed);
    }
}

fn nanos_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Drops its connection's second socket handle when the worker ends,
/// whether it returned or panicked.
struct ReleaseHandle(Arc<Conn>);

impl Drop for ReleaseHandle {
    fn drop(&mut self) {
        let mut handle = self.0.handle.lock().unwrap_or_else(PoisonError::into_inner);
        drop(handle.take());
    }
}

/// A live worker: its thread and its connection.
struct Worker {
    thread: JoinHandle<()>,
    conn: Arc<Conn>,
}

/// Signals its channel even when the owning thread unwinds, so a
/// bounded join ([`mpsc::Receiver::recv_timeout`] on the paired
/// receiver) works whether the thread returned or panicked.
struct DoneGuard(mpsc::Sender<()>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

impl Server {
    /// Starts accepting on `listener`. Each connection runs
    /// `handler(stream, conn)` on its own thread, at most `cap()` of
    /// them at once; `cap` is read at every accept, so a server can
    /// size it from a membership that changes. `label` names the server
    /// in errors.
    pub(crate) fn spawn<C, H>(listener: TcpListener, label: String, cap: C, handler: H) -> Server
    where
        C: Fn() -> usize + Send + 'static,
        H: Fn(TcpStream, &Conn) + Send + Sync + 'static,
    {
        let addr = listener
            .local_addr()
            .expect("bound listener has an address");
        let stop = Arc::new(AtomicBool::new(false));
        let (done_tx, done) = mpsc::channel();
        let thread = {
            let stop = Arc::clone(&stop);
            let label = label.clone();
            thread::spawn(move || {
                let _done = DoneGuard(done_tx);
                accept_loop(listener, &stop, &label, cap, Arc::new(handler))
            })
        };
        Server {
            addr,
            label,
            stop,
            accept: Some(Accept { thread, done }),
        }
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stop flag, for gauges that report it.
    pub(crate) fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Raises the stop flag and, while the accept thread still runs,
    /// wakes its blocked accept; the connection itself is discarded
    /// there. Every call dials again, so a wake-up that failed (a full
    /// backlog, say) is retried by the next one, such as
    /// [`Server::join`]'s. Returns within a second.
    pub(crate) fn signal(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if self
            .accept
            .as_ref()
            .is_some_and(|a| !a.thread.is_finished())
        {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }

    /// Stops the server and waits for its threads, with a deadline.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if the server does not wind down in time (the
    /// thread is leaked rather than blocked on), [`Error::WorkerPanic`]
    /// when a worker or the accept loop panicked, or the first error the
    /// accept loop itself hit.
    pub(crate) fn join(mut self, timeout: Duration) -> Result<()> {
        self.signal();
        let Accept { thread, done } = self.accept.take().expect("a server is joined once");
        match done.recv_timeout(timeout) {
            // a disconnect means the guard dropped: the thread is done
            Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(Error::Timeout(format!(
                    "{} did not stop within {timeout:?}",
                    self.label
                )));
            }
        }
        match thread.join() {
            Ok(result) => result,
            Err(p) => Err(Error::WorkerPanic(format!(
                "{} accept loop: {}",
                self.label,
                panic_text(p)
            ))),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.signal();
    }
}

/// Accepts connections until `stop` is raised, then joins the workers.
fn accept_loop<C, H>(
    listener: TcpListener,
    stop: &Arc<AtomicBool>,
    label: &str,
    cap: C,
    handler: Arc<H>,
) -> Result<()>
where
    C: Fn() -> usize,
    H: Fn(TcpStream, &Conn) + Send + Sync + 'static,
{
    let epoch = Instant::now();
    let mut workers: Vec<Worker> = Vec::new();
    let mut panics: Vec<String> = Vec::new();
    let mut conn_index = 0u64;
    let local = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown addr>".to_string());
    loop {
        let (stream, _peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                // name who failed and where: multi-process bring-up
                // failures must be attributable to a specific daemon
                return Err(Error::Io(std::io::Error::new(
                    e.kind(),
                    format!("{label}: accept failed on {local}: {e}"),
                )));
            }
        };
        if stop.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a raced real one)
        }
        reap_finished(&mut workers, &mut panics);
        if workers.len() >= cap() && !evict_idlest(&mut workers, &mut panics) {
            continue; // no room made in time: dropping `stream` closes it unserved
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_nodelay(true);
        conn_index += 1;
        let conn = Arc::new(Conn {
            index: conn_index,
            stop: Arc::clone(stop),
            epoch,
            last_read: AtomicU64::new(nanos_since(epoch)),
            handle: Mutex::new(Some(handle)),
        });
        let thread = {
            let (handler, conn) = (Arc::clone(&handler), Arc::clone(&conn));
            thread::spawn(move || {
                let release = ReleaseHandle(conn);
                handler(stream, &release.0);
            })
        };
        workers.push(Worker { thread, conn });
    }
    drop(listener);
    for worker in workers {
        if let Err(payload) = worker.thread.join() {
            panics.push(panic_text(payload));
        }
    }
    if panics.is_empty() {
        Ok(())
    } else {
        Err(Error::WorkerPanic(format!(
            "{label}: {}",
            panics.join("; ")
        )))
    }
}

/// Makes room in a full server: closes the connection whose peer has
/// been silent longest, which ends its worker's blocked read at once,
/// and waits up to one read tick for that worker to exit. Returns
/// whether it did; a worker still busy (say, in a downstream write) is
/// reaped by a later accept.
fn evict_idlest(workers: &mut Vec<Worker>, panics: &mut Vec<String>) -> bool {
    let Some(idlest) =
        (0..workers.len()).min_by_key(|&i| workers[i].conn.last_read.load(Ordering::Relaxed))
    else {
        return false;
    };
    if let Some(stream) = workers[idlest]
        .conn
        .handle
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
    {
        let _ = stream.shutdown(Shutdown::Both);
    }
    let deadline = Instant::now() + IO_TIMEOUT;
    while !workers[idlest].thread.is_finished() {
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(1));
    }
    if let Err(payload) = workers.swap_remove(idlest).thread.join() {
        panics.push(panic_text(payload));
    }
    true
}

/// Joins (and forgets) every worker that already exited, keeping any
/// panic messages.
fn reap_finished(workers: &mut Vec<Worker>, panics: &mut Vec<String>) {
    let mut live = Vec::with_capacity(workers.len());
    for worker in workers.drain(..) {
        if worker.thread.is_finished() {
            if let Err(payload) = worker.thread.join() {
                panics.push(panic_text(payload));
            }
        } else {
            live.push(worker);
        }
    }
    *workers = live;
}
