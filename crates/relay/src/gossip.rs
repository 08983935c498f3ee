//! Peer-to-peer topology maintenance: relays push directory snapshots
//! to random peers and learn the network from each other.
//!
//! Each relay holds a [`NetworkView`] (see [`crate::authority`]) and a
//! [`GossipRunner`] thread that, every 500 ms:
//!
//! 1. refreshes from the directory authority when one is configured —
//!    re-publishing its own descriptor (which doubles as the lease
//!    heartbeat) and merging any newer snapshot;
//! 2. pushes its current snapshot to 2 random live peers as a
//!    [`crate::wire::Frame::Gossip`] frame on the ordinary relay port;
//! 3. tracks per-peer dial health: a peer that fails 3 consecutive
//!    dials is dropped from the local view and reported `DOWN` to the
//!    authority, which is how departed relays leave the directory
//!    without a graceful goodbye.
//!
//! Snapshot merging itself is pure and socket-free
//! ([`NetworkView::merge_snapshot`]), so convergence is property-tested
//! without any networking: k views exchanging snapshots in any order
//! reach identical fingerprints.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::authority::{AuthorityClient, NetworkView, SignedDescriptor};
use crate::directory::DirectoryCell;
use crate::obs::DirectoryMetrics;
use crate::wire::{self, Frame};

/// Peers pushed to per round.
const FANOUT: usize = 2;
/// Delay between gossip rounds.
const INTERVAL: Duration = Duration::from_millis(500);
/// Consecutive dial failures before a peer is declared down.
const MAX_PEER_FAILURES: u32 = 3;

/// Background gossip loop for one relay. Owns nothing but the thread;
/// the view and directory cell are shared with the relay daemon so
/// merged topology becomes routable immediately.
pub struct GossipRunner {
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl GossipRunner {
    /// Starts gossiping on behalf of relay `me`. `view` and `cell` are
    /// the same handles the daemon serves from; `authority` is optional
    /// (pure peer-to-peer mode works once bootstrapped); `net_seed`
    /// re-signs the heartbeat descriptor. `seed` makes peer selection
    /// deterministic for tests.
    pub fn spawn(
        me: SignedDescriptor,
        net_seed: Vec<u8>,
        view: Arc<Mutex<NetworkView>>,
        cell: DirectoryCell,
        authority: Option<AuthorityClient>,
        seed: u64,
    ) -> GossipRunner {
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x6055_51D0_11FE_60D5);
                let mut failures: HashMap<u64, u32> = HashMap::new();
                let mut lease_version = me.descriptor.version;
                while !shutdown.load(Ordering::SeqCst) {
                    round(
                        &me,
                        &net_seed,
                        &view,
                        &cell,
                        authority.as_ref(),
                        &mut rng,
                        &mut failures,
                        &mut lease_version,
                    );
                    thread::sleep(INTERVAL);
                }
            })
        };
        GossipRunner {
            shutdown,
            thread: Some(thread),
        }
    }

    /// Stops the loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for GossipRunner {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One gossip round: authority refresh, peer push, health bookkeeping.
#[allow(clippy::too_many_arguments)]
fn round(
    me: &SignedDescriptor,
    net_seed: &[u8],
    view: &Mutex<NetworkView>,
    cell: &DirectoryCell,
    authority: Option<&AuthorityClient>,
    rng: &mut StdRng,
    failures: &mut HashMap<u64, u32>,
    lease_version: &mut u64,
) {
    let metrics = DirectoryMetrics::global();
    if let Some(client) = authority {
        // Heartbeat: bump our descriptor version so the lease refreshes
        // and stale-version rejection never bites our own re-PUT.
        *lease_version += 1;
        let mut fresh = me.descriptor.clone();
        fresh.version = *lease_version;
        let have = view.lock().expect("gossip view").version();
        let _ = client.publish(&fresh.sign(net_seed));
        if let Ok(Some(snapshot)) = client.fetch(have) {
            ingest(view, cell, &snapshot);
        }
    }

    // Push our snapshot to FANOUT random live peers.
    let (snapshot, peers) = {
        let view = view.lock().expect("gossip view");
        let peers: Vec<(u64, std::net::SocketAddr)> = view
            .member_ids()
            .into_iter()
            .filter(|&id| id != me.descriptor.id)
            .filter_map(|id| view.member(id).map(|m| (id, m.descriptor.addr)))
            .collect();
        (view.snapshot(), peers)
    };
    if peers.is_empty() {
        return;
    }
    for _ in 0..FANOUT.min(peers.len()) {
        let (peer, addr) = peers[rng.gen_range(0..peers.len())];
        let pushed =
            TcpStream::connect_timeout(&addr, Duration::from_millis(250)).and_then(|mut stream| {
                stream.set_write_timeout(Some(wire::SEND_DEADLINE))?;
                wire::send_frame(
                    &mut stream,
                    &Frame::Gossip {
                        snapshot: snapshot.clone(),
                    },
                )
            });
        match pushed {
            Ok(()) => {
                metrics.gossip_sent.inc();
                failures.remove(&peer);
            }
            Err(_) => {
                let count = failures.entry(peer).or_insert(0);
                *count += 1;
                if *count >= MAX_PEER_FAILURES {
                    failures.remove(&peer);
                    metrics.peers_dropped.inc();
                    let mut view = view.lock().expect("gossip view");
                    view.report_down(peer);
                    drop(view);
                    if let Some(client) = authority {
                        let _ = client.report_down(peer);
                    }
                }
            }
        }
    }
}

/// Merges a received snapshot into the shared view and, when the
/// membership changed and stayed dense, refreshes the routable
/// directory. Returns true when the view changed.
pub fn ingest(view: &Mutex<NetworkView>, cell: &DirectoryCell, snapshot: &[u8]) -> bool {
    let metrics = DirectoryMetrics::global();
    metrics.gossip_received.inc();
    let mut view = view.lock().expect("gossip view");
    match view.merge_snapshot(snapshot) {
        Ok(true) => {
            metrics.gossip_merges.inc();
            if let Ok(directory) = view.to_directory() {
                cell.store(directory);
            }
            true
        }
        Ok(false) => false,
        Err(_) => {
            metrics.gossip_rejected.inc();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::RelayDescriptor;
    use std::net::SocketAddr;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().expect("addr")
    }

    #[test]
    fn ingest_merges_and_refreshes_the_directory() {
        let receiver = addr(8999);
        let mut publisher = NetworkView::new(b"seed", receiver);
        for id in 0..3 {
            let sd = RelayDescriptor::derive(b"seed", id, addr(9100 + id as u16), 1).sign(b"seed");
            publisher.publish(sd).expect("publish");
        }
        let snapshot = publisher.snapshot();

        let local = Mutex::new(NetworkView::new(b"seed", receiver));
        let cell = DirectoryCell::new(publisher.to_directory().expect("directory"));
        assert!(ingest(&local, &cell, &snapshot));
        assert!(!ingest(&local, &cell, &snapshot), "idempotent");
        assert_eq!(local.lock().expect("view").member_ids(), vec![0, 1, 2]);
        assert_eq!(cell.load().n(), 3);
        assert!(!ingest(&local, &cell, b"garbage"), "bad snapshot rejected");
    }
}
