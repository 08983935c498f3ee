//! Shared scaffolding for the TCP daemons: completion guards and the
//! accept → spawn → reap → join loop with panic collection. Used by both
//! the relay daemon and the receiver server so their shutdown semantics
//! cannot drift apart.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::{panic_text, Error, Result};
use crate::obs::QueueDepth;

/// Signals its channel even when the owning thread unwinds, so bounded
/// joins ([`std::sync::mpsc::Receiver::recv_timeout`] on the paired
/// receiver) work whether the thread returned or panicked.
pub(crate) struct DoneGuard(pub(crate) mpsc::Sender<()>);

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// Accepts connections until `shutdown` is raised, spawning one worker
/// per connection via `spawn_worker` (handed the configured stream and a
/// 1-based connection index), reaping finished workers as it goes — a
/// long-running daemon keeps O(live connections) thread handles, not
/// O(all connections ever) — and joining the rest at shutdown. Worker
/// panics are collected and reported as one [`Error::WorkerPanic`]
/// prefixed with `label`. When `depth` is given, the live-worker count
/// after each reap pass is published there as the daemon's inbound
/// queue depth.
pub(crate) fn accept_loop(
    listener: TcpListener,
    shutdown: &AtomicBool,
    io_timeout: Duration,
    label: &str,
    depth: Option<&QueueDepth>,
    mut spawn_worker: impl FnMut(TcpStream, u64) -> JoinHandle<()>,
) -> Result<()> {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
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
                if shutdown.load(Ordering::SeqCst) {
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
        if shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection (or a raced real one)
        }
        let _ = stream.set_read_timeout(Some(io_timeout));
        let _ = stream.set_nodelay(true);
        conn_index += 1;
        workers.push(spawn_worker(stream, conn_index));
        reap_finished(&mut workers, &mut panics);
        if let Some(depth) = depth {
            depth.set(workers.len() as i64);
        }
    }
    if let Some(depth) = depth {
        depth.set(0);
    }
    drop(listener);
    for worker in workers {
        if let Err(payload) = worker.join() {
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

/// Joins (and forgets) every worker that already exited, keeping any
/// panic messages.
fn reap_finished(workers: &mut Vec<JoinHandle<()>>, panics: &mut Vec<String>) {
    let mut live = Vec::with_capacity(workers.len());
    for worker in workers.drain(..) {
        if worker.is_finished() {
            if let Err(payload) = worker.join() {
                panics.push(panic_text(payload));
            }
        } else {
            live.push(worker);
        }
    }
    *workers = live;
}
