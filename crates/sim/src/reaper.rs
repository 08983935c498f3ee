//! Bounded reaping of abandoned worker threads.
//!
//! A caller that gives up on a thread (watchdog deadline, wedged I/O)
//! cannot just `join` it — that's the hang it was escaping — and must
//! not detach it silently, or threads pile up across a long campaign.
//! The pattern here, used by the campaign live backend's watchdog:
//!
//! 1. the worker holds a [`DoneGuard`] that signals on unwind — panic or
//!    normal return alike;
//! 2. the abandoning caller registers `(done_receiver, join_handle)`
//!    with a [`ThreadReaper`];
//! 3. a quiescence point (end of a sweep, end of a test) calls
//!    [`ThreadReaper::join_abandoned`] with a total time budget: workers
//!    whose guards fired are joined, truly wedged ones stay registered
//!    for the next reap rather than hanging anyone.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sends on its channel when dropped — normal return or unwind — so an
/// abandoned thread can later be joined with a bound. Hold one at the
/// top of the worker's closure.
#[derive(Debug)]
pub struct DoneGuard(Sender<()>);

impl DoneGuard {
    /// Wraps the sender half of the worker's done-channel.
    pub fn new(tx: Sender<()>) -> Self {
        DoneGuard(tx)
    }
}

impl Drop for DoneGuard {
    fn drop(&mut self) {
        let _ = self.0.send(());
    }
}

/// An abandoned worker: the done-signal receiver paired with the thread
/// to join once it fires.
type Abandoned = (Receiver<()>, JoinHandle<()>);

/// A registry of abandoned worker threads awaiting a bounded join.
#[derive(Debug, Default)]
pub struct ThreadReaper {
    registry: Mutex<Vec<Abandoned>>,
}

impl ThreadReaper {
    /// Creates an empty reaper.
    pub const fn new() -> Self {
        ThreadReaper {
            registry: Mutex::new(Vec::new()),
        }
    }

    /// Parks an abandoned worker for a later bounded reap.
    pub fn register(&self, done: Receiver<()>, handle: JoinHandle<()>) {
        self.registry
            .lock()
            .expect("thread reaper registry lock")
            .push((done, handle));
    }

    /// Number of workers currently parked.
    pub fn pending(&self) -> usize {
        self.registry
            .lock()
            .expect("thread reaper registry lock")
            .len()
    }

    /// Joins every parked worker whose [`DoneGuard`] has fired, spending
    /// at most `deadline` in *total*, and re-parks the rest. Returns
    /// `(joined, still_pending)`.
    pub fn join_abandoned(&self, deadline: Duration) -> (usize, usize) {
        let mut pending = {
            let mut registry = self.registry.lock().expect("thread reaper registry lock");
            std::mem::take(&mut *registry)
        };
        let start = Instant::now();
        let mut joined = 0;
        let mut still = Vec::new();
        for (done, handle) in pending.drain(..) {
            let remaining = deadline.saturating_sub(start.elapsed());
            match done.recv_timeout(remaining) {
                // a disconnect means the guard dropped — the worker is done
                Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                    let _ = handle.join();
                    joined += 1;
                }
                Err(RecvTimeoutError::Timeout) => still.push((done, handle)),
            }
        }
        let still_pending = still.len();
        self.registry
            .lock()
            .expect("thread reaper registry lock")
            .extend(still);
        (joined, still_pending)
    }
}

/// The process-wide reaper shared by every subsystem that abandons
/// watchdogged workers (campaign live cells, deadline-bounded live
/// runs).
pub fn global() -> &'static ThreadReaper {
    static GLOBAL: OnceLock<ThreadReaper> = OnceLock::new();
    GLOBAL.get_or_init(ThreadReaper::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn finished_workers_are_reaped_within_the_bound() {
        let reaper = ThreadReaper::new();
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _done = DoneGuard::new(tx);
        });
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        reaper.register(rx, handle);
        let (joined, pending) = reaper.join_abandoned(Duration::from_secs(5));
        assert_eq!((joined, pending), (1, 0));
    }

    #[test]
    fn guards_signal_on_panic_too() {
        let reaper = ThreadReaper::new();
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _done = DoneGuard::new(tx);
            panic!("worker blew up");
        });
        reaper.register(rx, handle);
        let (joined, pending) = reaper.join_abandoned(Duration::from_secs(5));
        assert_eq!((joined, pending), (1, 0));
    }

    #[test]
    fn wedged_workers_stay_parked_instead_of_hanging_the_reap() {
        let reaper = ThreadReaper::new();
        let (tx, rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let _done = DoneGuard::new(tx);
            let _ = release_rx.recv(); // wedged until released
        });
        reaper.register(rx, handle);
        let start = Instant::now();
        let (joined, pending) = reaper.join_abandoned(Duration::from_millis(50));
        assert!(start.elapsed() < Duration::from_secs(5), "reap must bound");
        assert_eq!((joined, pending), (0, 1));
        assert_eq!(reaper.pending(), 1);
        // release the worker; the next reap collects it
        release_tx.send(()).unwrap();
        let (joined, pending) = reaper.join_abandoned(Duration::from_secs(5));
        assert_eq!((joined, pending), (1, 0));
    }
}
