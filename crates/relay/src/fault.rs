//! Fault-injection helpers for the crate's socket tests.
//!
//! A stalled peer needs no helper: a `TcpListener` that is never
//! accepted from still completes handshakes and buffers what its peers
//! send, so it fills their socket buffers and then stalls them exactly
//! like a peer that accepts and never reads.

use std::sync::mpsc;
use std::time::Duration;

/// Runs `body` on its own thread and panics if it has not finished
/// within `limit`, so a wedged socket call fails the test instead of
/// hanging it.
pub(crate) fn within<T: Send + 'static>(
    limit: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("test body still blocked after {limit:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("test body panicked"),
    }
}
