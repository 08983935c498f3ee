//! Fault-injection helpers for the crate's socket tests.
//!
//! A stalled peer needs no helper: a `TcpListener` that is never
//! accepted from still completes handshakes and buffers what its peers
//! send, so it fills their socket buffers and then stalls them exactly
//! like a peer that accepts and never reads.

use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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

/// Opens `count` idle connections to `addr` and returns them with how
/// many read end of file within a second: the ones a server closed.
pub(crate) fn flood(addr: SocketAddr, count: usize) -> (Vec<TcpStream>, usize) {
    let socks: Vec<TcpStream> = (0..count)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(1);
    let closed = socks
        .iter()
        .filter(|sock| {
            let mut sock: &TcpStream = sock;
            let left = deadline.saturating_duration_since(Instant::now());
            sock.set_read_timeout(Some(left.max(Duration::from_millis(1))))
                .unwrap();
            matches!(sock.read(&mut [0u8; 1]), Ok(0))
        })
        .count();
    (socks, closed)
}
