//! Cluster-level observability: run phases and aggregate metrics.
//!
//! Two pieces live here:
//!
//! * [`Phase`] / [`PhaseCell`] — where a cluster run currently is
//!   (queued on the budget, booting, handshaking, passing traffic,
//!   draining, tearing down), readable from another thread while the
//!   run is in progress.
//! * [`ClusterMetrics`] — process-wide aggregates over *all* cluster
//!   runs, registered once in [`Registry::global`]. Individual cluster
//!   members are ephemeral (fresh ports each run), so per-relay series
//!   would be unbounded-cardinality noise; sweeps get totals instead,
//!   plus the budget gauge that explains *why* live cells queue.
//!
//! Everything here is a write-only sink per the determinism boundary
//! documented in `anonroute-obs`: cluster evaluation never reads these.

use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use anonroute_obs::{Counter, Histogram, Registry};

use crate::budget::ClusterBudget;
use crate::daemon::RelayStats;

/// Where a cluster run currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// Waiting for budget slots before anything is bound.
    Queued = 0,
    /// Binding listeners, building the directory, starting daemons.
    Boot = 1,
    /// Building the client and pushing the first circuit (the earliest
    /// point onion handshakes can fail).
    Handshake = 2,
    /// Driving the remaining workload.
    Traffic = 3,
    /// Awaiting full delivery at the receiver.
    Drain = 4,
    /// Bounded shutdown of relays and receiver.
    Teardown = 5,
    /// The run returned (successfully or not).
    Done = 6,
}

impl Phase {
    /// Human-readable phase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Boot => "boot",
            Phase::Handshake => "handshake",
            Phase::Traffic => "traffic",
            Phase::Drain => "drain",
            Phase::Teardown => "teardown",
            Phase::Done => "done",
        }
    }

    fn from_u8(raw: u8) -> Phase {
        match raw {
            0 => Phase::Queued,
            1 => Phase::Boot,
            2 => Phase::Handshake,
            3 => Phase::Traffic,
            4 => Phase::Drain,
            5 => Phase::Teardown,
            _ => Phase::Done,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A current-depth / high-water-mark gauge pair for one relay work
/// queue (inbound worker connections, outbound writes in progress).
///
/// Depth moves with [`enter`](QueueDepth::enter)/[`exit`](QueueDepth::exit);
/// the high water mark is CAS-maxed on every raise and never resets, so a scrape
/// after a burst still shows how deep the queue got.
#[derive(Debug, Default)]
pub struct QueueDepth {
    depth: AtomicI64,
    high_water: AtomicI64,
}

impl QueueDepth {
    /// An empty queue gauge.
    pub fn new() -> Self {
        QueueDepth::default()
    }

    /// One item entered the queue.
    pub fn enter(&self) {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(depth, Ordering::Relaxed);
    }

    /// One item left the queue.
    pub fn exit(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// The current depth.
    pub fn depth(&self) -> i64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// The deepest the queue has ever been.
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// A lock-free phase marker shared between a cluster run and whoever is
/// watching it from another thread.
#[derive(Debug)]
pub struct PhaseCell(AtomicU8);

impl Default for PhaseCell {
    fn default() -> Self {
        PhaseCell::new()
    }
}

impl PhaseCell {
    /// A cell starting at [`Phase::Queued`].
    pub fn new() -> Self {
        PhaseCell(AtomicU8::new(Phase::Queued as u8))
    }

    /// Moves the run to `phase`.
    pub fn set(&self, phase: Phase) {
        self.0.store(phase as u8, Ordering::SeqCst);
    }

    /// The phase the run was last seen in.
    pub fn get(&self) -> Phase {
        Phase::from_u8(self.0.load(Ordering::SeqCst))
    }
}

/// Aggregate metrics over every cluster run in this process, shared by
/// all sweeps and registered once in the global registry.
#[derive(Debug)]
pub struct ClusterMetrics {
    /// Clusters fully booted (listeners bound, directory built, daemons
    /// serving).
    pub boots: Arc<Counter>,
    /// Wall-clock from first bind to all daemons serving.
    pub boot_seconds: Arc<Histogram>,
    /// Cluster runs that returned `Ok`.
    pub runs_ok: Arc<Counter>,
    /// Cluster runs that returned an error.
    pub runs_failed: Arc<Counter>,
    /// Cells forwarded relay→relay, summed over finished runs.
    pub cells_relayed: Arc<Counter>,
    /// Payloads delivered to receivers, summed over finished runs.
    pub cells_delivered: Arc<Counter>,
    /// Cells dropped, summed over finished runs.
    pub cells_dropped: Arc<Counter>,
    /// Onion-layer authentication failures, summed over finished runs.
    pub handshake_failures: Arc<Counter>,
}

impl ClusterMetrics {
    /// The process-wide instance, registered in [`Registry::global`] on
    /// first use (including the budget-usage gauge).
    pub fn global() -> &'static ClusterMetrics {
        static GLOBAL: OnceLock<ClusterMetrics> = OnceLock::new();
        GLOBAL.get_or_init(|| ClusterMetrics::register(Registry::global()))
    }

    fn register(registry: &'static Registry) -> ClusterMetrics {
        registry.gauge_fn(
            "anonroute_cluster_budget_slots_in_use",
            "Relay slots of the global cluster budget currently claimed.",
            &[],
            || {
                let budget = ClusterBudget::global();
                (budget.capacity() - budget.available()) as f64
            },
        );
        let cells = |outcome: &str| {
            registry.counter(
                "anonroute_cluster_cells_total",
                "Cells handled across all cluster runs, by outcome.",
                &[("outcome", outcome)],
            )
        };
        let runs = |result: &str| {
            registry.counter(
                "anonroute_cluster_runs_total",
                "Finished cluster runs, by result.",
                &[("result", result)],
            )
        };
        ClusterMetrics {
            boots: registry.counter(
                "anonroute_cluster_boots_total",
                "Clusters that reached the serving state.",
                &[],
            ),
            boot_seconds: registry.histogram(
                "anonroute_cluster_boot_seconds",
                "Wall-clock from first bind to all relay daemons serving.",
                &[],
                &[0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0],
            ),
            runs_ok: runs("ok"),
            runs_failed: runs("error"),
            cells_relayed: cells("relayed"),
            cells_delivered: cells("delivered"),
            cells_dropped: cells("dropped"),
            handshake_failures: registry.counter(
                "anonroute_cluster_handshake_failures_total",
                "Onion-layer authentication failures across all cluster runs.",
                &[],
            ),
        }
    }

    /// Folds one finished run's per-relay stats into the process totals.
    pub fn record_run(&self, ok: bool, stats: &[RelayStats]) {
        if ok {
            self.runs_ok.inc();
        } else {
            self.runs_failed.inc();
        }
        self.cells_relayed
            .add(stats.iter().map(|s| s.relayed).sum());
        self.cells_delivered
            .add(stats.iter().map(|s| s.delivered).sum());
        self.cells_dropped
            .add(stats.iter().map(|s| s.dropped).sum());
        self.handshake_failures
            .add(stats.iter().map(|s| s.peel_failures).sum());
    }
}

/// Aggregate metrics over the directory/gossip subsystem, shared by the
/// authority server, gossip runners, and dynamic relay daemons in this
/// process.
#[derive(Debug)]
pub struct DirectoryMetrics {
    /// Descriptor publishes accepted (authority `PUT`s).
    pub publishes: Arc<Counter>,
    /// Snapshots served to fetchers (authority `GET`s that returned one).
    pub snapshots_served: Arc<Counter>,
    /// Gossip snapshots pushed to peers.
    pub gossip_sent: Arc<Counter>,
    /// Gossip snapshots received (over TCP or ingested directly).
    pub gossip_received: Arc<Counter>,
    /// Received snapshots that changed the local view.
    pub gossip_merges: Arc<Counter>,
    /// Received snapshots rejected as malformed.
    pub gossip_rejected: Arc<Counter>,
    /// Peers dropped for failed health checks or expired leases.
    pub peers_dropped: Arc<Counter>,
}

impl DirectoryMetrics {
    /// The process-wide instance, registered in [`Registry::global`] on
    /// first use.
    pub fn global() -> &'static DirectoryMetrics {
        static GLOBAL: OnceLock<DirectoryMetrics> = OnceLock::new();
        GLOBAL.get_or_init(|| DirectoryMetrics::register(Registry::global()))
    }

    fn register(registry: &'static Registry) -> DirectoryMetrics {
        let gossip = |direction: &str| {
            registry.counter(
                "anonroute_directory_gossip_total",
                "Gossip snapshots exchanged, by direction.",
                &[("direction", direction)],
            )
        };
        DirectoryMetrics {
            publishes: registry.counter(
                "anonroute_directory_publishes_total",
                "Relay descriptors accepted by the directory authority.",
                &[],
            ),
            snapshots_served: registry.counter(
                "anonroute_directory_snapshots_served_total",
                "Directory snapshots served to fetching peers.",
                &[],
            ),
            gossip_sent: gossip("sent"),
            gossip_received: gossip("received"),
            gossip_merges: registry.counter(
                "anonroute_directory_gossip_merges_total",
                "Received gossip snapshots that changed the local view.",
                &[],
            ),
            gossip_rejected: registry.counter(
                "anonroute_directory_gossip_rejected_total",
                "Received gossip snapshots rejected as malformed.",
                &[],
            ),
            peers_dropped: registry.counter(
                "anonroute_directory_peers_dropped_total",
                "Peers dropped for failed dials or expired leases.",
                &[],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_metrics_register_once() {
        let a = DirectoryMetrics::global() as *const _;
        let b = DirectoryMetrics::global() as *const _;
        assert!(std::ptr::eq(a, b));
        let before = DirectoryMetrics::global().gossip_received.get();
        DirectoryMetrics::global().gossip_received.inc();
        assert_eq!(DirectoryMetrics::global().gossip_received.get(), before + 1);
    }

    #[test]
    fn phase_cell_round_trips_every_phase() {
        let cell = PhaseCell::new();
        assert_eq!(cell.get(), Phase::Queued);
        for phase in [
            Phase::Boot,
            Phase::Handshake,
            Phase::Traffic,
            Phase::Drain,
            Phase::Teardown,
            Phase::Done,
        ] {
            cell.set(phase);
            assert_eq!(cell.get(), phase);
            assert_eq!(Phase::from_u8(phase as u8), phase);
        }
    }

    #[test]
    fn phase_names_are_stable() {
        // the names are the phases' Display form; keep them stable for
        // whoever prints them
        let names: Vec<&str> = [
            Phase::Queued,
            Phase::Boot,
            Phase::Handshake,
            Phase::Traffic,
            Phase::Drain,
            Phase::Teardown,
            Phase::Done,
        ]
        .iter()
        .map(|p| p.as_str())
        .collect();
        assert_eq!(
            names,
            [
                "queued",
                "boot",
                "handshake",
                "traffic",
                "drain",
                "teardown",
                "done"
            ]
        );
    }

    #[test]
    fn queue_depth_tracks_current_and_high_water() {
        let q = QueueDepth::new();
        assert_eq!((q.depth(), q.high_water()), (0, 0));
        q.enter();
        q.enter();
        assert_eq!((q.depth(), q.high_water()), (2, 2));
        q.exit();
        assert_eq!((q.depth(), q.high_water()), (1, 2), "high water sticks");
    }

    #[test]
    fn record_run_accumulates_stats() {
        let metrics = ClusterMetrics::global();
        let before_ok = metrics.runs_ok.get();
        let before_relayed = metrics.cells_relayed.get();
        let before_peel = metrics.handshake_failures.get();
        metrics.record_run(
            true,
            &[
                RelayStats {
                    relayed: 3,
                    delivered: 1,
                    dropped: 0,
                    peel_failures: 0,
                    accepted: 1,
                },
                RelayStats {
                    relayed: 2,
                    delivered: 0,
                    dropped: 4,
                    peel_failures: 4,
                    accepted: 2,
                },
            ],
        );
        assert_eq!(metrics.runs_ok.get(), before_ok + 1);
        assert_eq!(metrics.cells_relayed.get(), before_relayed + 5);
        assert_eq!(metrics.handshake_failures.get(), before_peel + 4);
    }
}
