//! The in-process cluster harness: N relays on loopback, seeded traffic,
//! and a ground-truth link tap.
//!
//! [`SharedCluster`] is the one cluster runner. [`SharedCluster::boot`]
//! binds every relay on a `127.0.0.1` ephemeral port and builds the
//! [`Directory`] from the bound addresses; [`SharedCluster::run_cell`]
//! drives a schedule of [`Arrival`]s (from the
//! [`anonroute_sim::traffic`] generators) through a circuit-building
//! [`Client`] and returns the tap's [`TransferRecord`] trace plus the
//! receiver's deliveries — the exact inputs
//! `anonroute_adversary::attack_trace` consumes, so the measured
//! anonymity degree of live TCP traffic can be checked against
//! `anonroute-core`'s analytic prediction; [`SharedCluster::shutdown`]
//! winds the network down and returns the per-relay counters.
//!
//! [`run_cluster`] is the live-network analogue of one
//! [`anonroute_sim::Simulation`] run: boot, one cell, shutdown.
//! [`run_cluster_budgeted_observed`] is the same run gated by a
//! [`ClusterBudget`] and reporting its [`Phase`] to another thread.
//!
//! A run cannot block without a deadline, so callers run it inline and
//! need no watchdog:
//!
//! * every dial and every frame write, by the client and by each relay,
//!   fails after a 5 s send deadline, so one client send returns within
//!   two deadlines and the first failed send ends the cell with an
//!   error; a relay counts a failed forward in `dropped` and reads on;
//! * every read polls its shutdown flag each `io_timeout` and gives up
//!   on a peer stalled mid-frame after 100 stalled reads (5 s at the
//!   default 50 ms);
//! * the drain waits at most `deliver_timeout` for the cell's deliveries;
//! * teardown signals every relay, then joins each relay and the
//!   receiver with `join_timeout`.
//!
//! A stalled peer therefore holds a relay worker for at most one send
//! deadline, and a run that fails returns a typed [`Error`] after at
//! most the sends it made, `deliver_timeout`, and `n + 1` joins.
//!
//! Route sampling, handshake ephemerals, nonces, and payload junk all
//! derive from the cluster seed, so the *observations* (and therefore the
//! measured anonymity degree) are deterministic per seed even though TCP
//! scheduling is not.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use anonroute_core::{PathKind, PathLengthDist};
use anonroute_crypto::handshake::NodeIdentity;
use anonroute_sim::traffic::Arrival;
use anonroute_sim::{MsgId, Origination, TransferRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::budget::ClusterBudget;
use crate::circuit::DEFAULT_CELL_SIZE;
use crate::client::Client;
use crate::daemon::{PendingRelay, Relay, RelayConfig, RelayStats};
use crate::directory::{Directory, NodeInfo};
use crate::error::{Error, Result};
use crate::obs::{ClusterMetrics, Phase, PhaseCell};
use crate::receiver::ReceiverServer;
use crate::tap::LinkTap;

/// Configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of member relays.
    pub n: usize,
    /// Path-length strategy the client samples circuits from.
    pub dist: PathLengthDist,
    /// Path kind (simple or cyclic routes).
    pub path_kind: PathKind,
    /// Fixed relay-cell size in bytes.
    pub cell_size: usize,
    /// Master seed: identities, routes, ephemerals, nonces, junk.
    pub seed: u64,
    /// Epoch number for multi-round runs. Relay *identities* depend only
    /// on `seed`, while circuit material (routes, handshake ephemerals,
    /// nonces) and cover junk mix the epoch in — so consecutive epochs
    /// re-key every circuit over the same cluster. Epoch `0` reproduces
    /// the pre-dynamics single-round streams exactly.
    pub epoch: u64,
    /// Socket read timeout (shutdown-poll granularity).
    pub io_timeout: Duration,
    /// How long to await full delivery after the last origination.
    pub deliver_timeout: Duration,
    /// Per-component bound when winding the cluster down.
    pub join_timeout: Duration,
}

impl ClusterConfig {
    /// A config with workable defaults for loopback testing.
    pub fn new(n: usize, dist: PathLengthDist) -> Self {
        ClusterConfig {
            n,
            dist,
            path_kind: PathKind::Simple,
            cell_size: DEFAULT_CELL_SIZE,
            seed: 7,
            epoch: 0,
            io_timeout: Duration::from_millis(50),
            deliver_timeout: Duration::from_secs(30),
            join_timeout: Duration::from_secs(10),
        }
    }

    /// Relay slots this cluster costs against a
    /// [`ClusterBudget`]: one per member
    /// relay plus one for the receiver server. The single source of
    /// truth for slot accounting — every budgeted caller must use it.
    pub fn budget_slots(&self) -> usize {
        self.n + 1
    }
}

/// Everything a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Ground-truth per-link trace from the observation tap — feed it to
    /// `anonroute_adversary::Adversary` to reconstruct observations.
    pub trace: Vec<TransferRecord>,
    /// Payloads the receiver collected, in arrival order.
    pub deliveries: Vec<anonroute_sim::Delivery>,
    /// Ground-truth senders, in origination order (scoring only).
    pub originations: Vec<Origination>,
    /// Per-relay traffic counters, indexed by member id.
    pub stats: Vec<RelayStats>,
    /// Wall-clock from first bind to all daemons serving, in
    /// microseconds. Operator profile only — nondeterministic, never fed
    /// back into evaluation.
    pub boot_micros: u64,
    /// Wall-clock from the first handshake to full delivery at the
    /// receiver, in microseconds (same caveat).
    pub traffic_micros: u64,
}

/// Derives the deterministic identity provisioning seed of a cluster.
fn net_seed(seed: u64) -> Vec<u8> {
    let mut s = b"anonroute-cluster-v1".to_vec();
    s.extend_from_slice(&seed.to_be_bytes());
    s
}

/// The static identity of member `id` in a cluster seeded `seed`.
pub fn cluster_identity(seed: u64, id: usize) -> NodeIdentity {
    NodeIdentity::derive(&net_seed(seed), id as u64)
}

/// [`run_cluster`] gated by a [`ClusterBudget`] and keeping `phase`
/// current: blocks until `budget` has [`ClusterConfig::budget_slots`]
/// free relay slots (members plus the receiver server), then runs the
/// cluster while holding them. After the (possibly long) wait it gives
/// up and returns `None` without booting anything if `abandoned` was set
/// in the meantime. A caller on another thread can read `phase` to see
/// where the run is (queued on the budget, booting, handshaking, passing
/// traffic).
pub fn run_cluster_budgeted_observed(
    config: &ClusterConfig,
    arrivals: &[Arrival],
    budget: &ClusterBudget,
    abandoned: &AtomicBool,
    phase: &PhaseCell,
) -> Option<Result<ClusterOutcome>> {
    phase.set(Phase::Queued);
    let _permit = budget.acquire(config.budget_slots());
    if abandoned.load(Ordering::SeqCst) {
        return None;
    }
    Some(run_phased(config, arrivals, phase))
}

/// Runs `arrivals` through a fresh loopback cluster and drains it.
///
/// # Errors
///
/// [`Error::Config`] on invalid parameters, [`Error::Timeout`] when not
/// every message was delivered within the deadline (loopback TCP is
/// lossless — this indicates a wedged relay), [`Error::WorkerPanic`]
/// when any relay/receiver thread panicked, and I/O or strategy errors
/// from setup.
pub fn run_cluster(config: &ClusterConfig, arrivals: &[Arrival]) -> Result<ClusterOutcome> {
    run_phased(config, arrivals, &PhaseCell::new())
}

/// Boot, one cell spanning the whole cluster, shutdown — feeding the
/// process-wide [`ClusterMetrics`] aggregates. Metrics are write-only
/// sinks: nothing the run computes depends on them.
fn run_phased(
    config: &ClusterConfig,
    arrivals: &[Arrival],
    phase: &PhaseCell,
) -> Result<ClusterOutcome> {
    let result = (|| {
        phase.set(Phase::Boot);
        let cluster = SharedCluster::boot(config)?;
        let cell = cluster.run_cell(config, arrivals, phase);
        let boot_micros = cluster.boot_micros();
        phase.set(Phase::Teardown);
        let stats = cluster.shutdown();
        // a traffic error outranks a teardown error
        let mut outcome = cell?;
        outcome.stats = stats?;
        outcome.boot_micros = boot_micros;
        Ok(outcome)
    })();
    let metrics = ClusterMetrics::global();
    match &result {
        Ok(outcome) => metrics.record_run(true, &outcome.stats),
        Err(_) => metrics.record_run(false, &[]),
    }
    phase.set(Phase::Done);
    result
}

/// A booted loopback cluster that evaluation cells run against.
///
/// One boot is one `anonroute_cluster_boots_total` increment; each cell
/// re-keys circuits over the standing relays via [`run_cell`], and
/// [`shutdown`] winds everything down.
///
/// Message-id ranges are allocated disjointly per cell, so concurrent
/// cells share the receiver and the link tap without mixing traffic; each
/// cell's outcome is sliced out of the global streams and remapped to
/// 0-based ids, matching the shape a fresh cluster would have produced.
///
/// [`run_cell`]: SharedCluster::run_cell
/// [`shutdown`]: SharedCluster::shutdown
#[derive(Debug)]
pub struct SharedCluster {
    config: ClusterConfig,
    nodes: Vec<NodeInfo>,
    directory: Arc<Directory>,
    relays: Mutex<Vec<Option<Relay>>>,
    receiver: Option<ReceiverServer>,
    tap: LinkTap,
    next_msg: AtomicU64,
    boot_micros: u64,
}

impl SharedCluster {
    /// Boots the network: binds the receiver and every member relay,
    /// builds the directory from the bound addresses, and starts the
    /// daemons. Callers that share the loopback with other clusters hold
    /// a [`ClusterBudget`] permit for the cluster's lifetime.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] on invalid parameters, plus I/O errors from
    /// binding relays or the receiver.
    pub fn boot(config: &ClusterConfig) -> Result<SharedCluster> {
        if config.n == 0 {
            return Err(Error::Config("a cluster needs at least one relay".into()));
        }
        let boot_start = Instant::now();
        let boot_span = anonroute_obs::span_with(
            "cluster.boot",
            "relay",
            &[("n", config.n as u64), ("epoch", config.epoch)],
        );
        let tap = LinkTap::new();
        let receiver = ReceiverServer::spawn(tap.clone(), config.io_timeout)?;
        let relay_cfg = RelayConfig {
            cell_size: config.cell_size,
            io_timeout: config.io_timeout,
            ..RelayConfig::default()
        };
        // bind every listener first so the directory can carry real ports
        let mut pending: Vec<PendingRelay> = Vec::with_capacity(config.n);
        for id in 0..config.n {
            match PendingRelay::bind(id, cluster_identity(config.seed, id), relay_cfg) {
                Ok(p) => pending.push(p),
                Err(e) => {
                    let _ = receiver.join(config.join_timeout);
                    return Err(e);
                }
            }
        }
        let nodes: Vec<NodeInfo> = pending
            .iter()
            .map(|p| NodeInfo {
                id: p.id(),
                addr: p.addr(),
                public: p.public(),
            })
            .collect();
        let directory = match Directory::new(nodes.clone(), receiver.addr()) {
            Ok(d) => Arc::new(d),
            Err(e) => {
                let _ = receiver.join(config.join_timeout);
                return Err(e);
            }
        };
        let relays: Vec<Option<Relay>> = pending
            .into_iter()
            .map(|p| {
                let junk_seed = config
                    .seed
                    .wrapping_add(config.epoch.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
                    .wrapping_add((p.id() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Some(p.serve(Arc::clone(&directory), tap.clone(), junk_seed))
            })
            .collect();
        let metrics = ClusterMetrics::global();
        metrics.boots.inc();
        metrics
            .boot_seconds
            .observe(boot_start.elapsed().as_secs_f64());
        let boot_micros = boot_start.elapsed().as_micros() as u64;
        drop(boot_span);
        Ok(SharedCluster {
            config: config.clone(),
            nodes,
            directory,
            relays: Mutex::new(relays),
            receiver: Some(receiver),
            tap,
            next_msg: AtomicU64::new(0),
            boot_micros,
        })
    }

    /// The full network map cells over the whole membership route with.
    pub fn directory(&self) -> Arc<Directory> {
        Arc::clone(&self.directory)
    }

    /// Wall-clock microseconds the boot took.
    pub fn boot_micros(&self) -> u64 {
        self.boot_micros
    }

    fn receiver(&self) -> &ReceiverServer {
        self.receiver
            .as_ref()
            .expect("receiver lives until shutdown")
    }

    /// Runs one evaluation cell over the standing network, keeping
    /// `phase` current (handshake → traffic → drain). From `cell` it
    /// takes `n` (the cell routes over the first `n` members; directory
    /// indices agree between that prefix and the relays' full view, so
    /// forwarding needs no remap), `dist`, `path_kind`, `seed`, `epoch`,
    /// and `deliver_timeout`; cell size and socket timeouts are the
    /// cluster's. The cell's `seed`/`epoch` drive *circuit material
    /// only* (routes, handshake ephemerals, nonces) — relay identities
    /// stay those of the cluster, and trace shape depends on the sampled
    /// routes, never on which identity sits at a directory index.
    /// Concurrent cells are safe: message-id ranges are disjoint and each
    /// cell awaits and slices only its own records out of the shared
    /// streams.
    ///
    /// The returned [`ClusterOutcome`] matches a fresh [`run_cluster`]
    /// with the same parameters except: `boot_micros` is `0` (the boot
    /// belongs to the cluster, see [`SharedCluster::boot_micros`]) and
    /// `stats` is empty (relay counters are cumulative across cells and
    /// only collected at [`SharedCluster::shutdown`]).
    ///
    /// # Errors
    ///
    /// [`Error::Config`] on invalid parameters, [`Error::Timeout`] when
    /// not every message was delivered within the cell's deadline, and
    /// I/O or strategy errors from sending.
    pub fn run_cell(
        &self,
        cell: &ClusterConfig,
        arrivals: &[Arrival],
        phase: &PhaseCell,
    ) -> Result<ClusterOutcome> {
        if cell.n == 0 {
            return Err(Error::Config("a cell needs at least one relay".into()));
        }
        if cell.n > self.nodes.len() {
            return Err(Error::Config(format!(
                "cell wants n={} but the cluster only has {} relays",
                cell.n,
                self.nodes.len()
            )));
        }
        for arrival in arrivals {
            if arrival.sender >= cell.n {
                return Err(Error::Config(format!(
                    "arrival sender {} out of range (n={})",
                    arrival.sender, cell.n
                )));
            }
        }
        // the prefix sub-directory shares indices with the relays' full
        // view, so onions built against it forward without remapping
        let directory = if cell.n == self.nodes.len() {
            Arc::clone(&self.directory)
        } else {
            Arc::new(Directory::new(
                self.nodes[..cell.n].to_vec(),
                self.receiver().addr(),
            )?)
        };
        // reserve a message-id range disjoint from every other cell
        let want = arrivals.len() as u64;
        let base = self.next_msg.fetch_add(want, Ordering::SeqCst);
        let ids = base..base + want;

        // drive the workload; the client drops (closing its connections)
        // as soon as the last cell is on the wire. The first send is
        // where onion handshakes can first fail, so it gets its own phase.
        phase.set(Phase::Handshake);
        let traffic_start = Instant::now();
        let traffic_span =
            anonroute_obs::span_with("cluster.traffic", "relay", &[("epoch", cell.epoch)]);
        let mut originations = (|| -> Result<Vec<Origination>> {
            let mut client = Client::new(
                directory,
                cell.dist.clone(),
                cell.path_kind,
                self.config.cell_size,
                Some(self.tap.clone()),
            )?;
            // epoch 0 leaves the stream untouched; later epochs re-key
            // every circuit built over the same relay identities
            let mut rng = StdRng::seed_from_u64(
                cell.seed ^ 0x517E_C0DE_5EED_0001 ^ cell.epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let mut originations = Vec::with_capacity(arrivals.len());
            for (i, arrival) in arrivals.iter().enumerate() {
                let msg = MsgId(base + i as u64);
                originations.push(Origination {
                    time: self.tap.now(),
                    sender: arrival.sender,
                    msg,
                });
                client.send(arrival.sender, msg, &arrival.payload, &mut rng)?;
                if i == 0 {
                    phase.set(Phase::Traffic);
                }
            }
            Ok(originations)
        })()?;

        phase.set(Phase::Drain);
        let mut deliveries = self
            .receiver()
            .take_range(ids.clone(), cell.deliver_timeout);
        if deliveries.len() < arrivals.len() {
            return Err(Error::Timeout(format!(
                "only {} of {} messages delivered within {:?}",
                deliveries.len(),
                arrivals.len(),
                cell.deliver_timeout
            )));
        }
        let traffic_micros = traffic_start.elapsed().as_micros() as u64;
        drop(traffic_span);

        // every hop records its edge before sending, so once all of the
        // cell's deliveries are in, so is its whole trace; slice it out
        // and rebase msg ids so the outcome matches a fresh cluster's
        let mut trace: Vec<TransferRecord> = self
            .tap
            .snapshot()
            .into_iter()
            .filter(|r| ids.contains(&r.msg.0))
            .collect();
        for r in &mut trace {
            r.msg = MsgId(r.msg.0 - base);
        }
        for d in &mut deliveries {
            d.msg = MsgId(d.msg.0 - base);
        }
        for o in &mut originations {
            o.msg = MsgId(o.msg.0 - base);
        }
        Ok(ClusterOutcome {
            trace,
            deliveries,
            originations,
            stats: Vec::new(),
            boot_micros: 0,
            traffic_micros,
        })
    }

    /// Kills member `id` mid-run: the relay stops serving, its port goes
    /// dead, and subsequent dials to it fail — the real departure signal
    /// the gossip layer's peer-health check and the directory authority's
    /// lease sweeper turn into membership events. Returns the relay's
    /// cumulative traffic counters.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for an unknown or already-killed id; join errors
    /// from the relay's worker threads.
    pub fn kill_relay(&self, id: usize) -> Result<RelayStats> {
        let relay = {
            let mut relays = self.relays.lock().expect("relay roster lock");
            match relays.get_mut(id) {
                Some(slot) => slot
                    .take()
                    .ok_or_else(|| Error::Config(format!("relay {id} was already killed")))?,
                None => {
                    return Err(Error::Config(format!(
                        "relay {id} out of range (n={})",
                        self.config.n
                    )))
                }
            }
        };
        relay.join(self.config.join_timeout)
    }

    /// Winds the whole network down: joins every still-running relay and
    /// the receiver, returning per-relay cumulative traffic counters
    /// (zeroed for relays killed earlier).
    ///
    /// # Errors
    ///
    /// The first join error seen; teardown still proceeds through every
    /// component.
    pub fn shutdown(mut self) -> Result<Vec<RelayStats>> {
        let _teardown_span =
            anonroute_obs::span_with("cluster.teardown", "relay", &[("epoch", self.config.epoch)]);
        self.wind_down()
    }

    fn wind_down(&mut self) -> Result<Vec<RelayStats>> {
        let mut teardown_err: Option<Error> = None;
        let mut stats = Vec::with_capacity(self.config.n);
        let relays: Vec<Option<Relay>> =
            std::mem::take(&mut *self.relays.lock().expect("relay roster lock"));
        // signal every relay before joining any, so their workers' read
        // polls run out together instead of one relay after another
        for relay in relays.iter().flatten() {
            relay.shutdown();
        }
        for slot in relays {
            match slot {
                Some(relay) => match relay.join(self.config.join_timeout) {
                    Ok(s) => stats.push(s),
                    Err(e) => {
                        stats.push(RelayStats::default());
                        teardown_err.get_or_insert(e);
                    }
                },
                None => stats.push(RelayStats::default()),
            }
        }
        if let Some(receiver) = self.receiver.take() {
            if let Err(e) = receiver.join(self.config.join_timeout) {
                teardown_err.get_or_insert(e);
            }
        }
        match teardown_err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }
}

impl Drop for SharedCluster {
    fn drop(&mut self) {
        let _ = self.wind_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::within;
    use anonroute_sim::traffic::UniformTraffic;
    use anonroute_sim::Endpoint;

    fn workload(n: usize, count: usize, seed: u64) -> Vec<Arrival> {
        UniformTraffic {
            count,
            interval_us: 0,
            payload_len: 24,
        }
        .generate(n, &mut StdRng::seed_from_u64(seed))
    }

    fn shape(t: &[TransferRecord]) -> Vec<(Endpoint, Endpoint, MsgId)> {
        let mut edges: Vec<(Endpoint, Endpoint, MsgId)> =
            t.iter().map(|r| (r.from, r.to, r.msg)).collect();
        edges.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
        edges
    }

    fn budgeted(
        config: &ClusterConfig,
        arrivals: &[Arrival],
        budget: &ClusterBudget,
    ) -> Result<ClusterOutcome> {
        run_cluster_budgeted_observed(
            config,
            arrivals,
            budget,
            &AtomicBool::new(false),
            &PhaseCell::new(),
        )
        .expect("a false abandonment flag never cancels the run")
    }

    #[test]
    fn fixed_two_hop_cluster_delivers_everything() {
        let config = ClusterConfig::new(6, PathLengthDist::fixed(2));
        let arrivals = workload(6, 25, 11);
        let outcome = run_cluster(&config, &arrivals).unwrap();

        assert_eq!(outcome.deliveries.len(), 25);
        assert_eq!(outcome.originations.len(), 25);
        assert!(outcome.boot_micros > 0, "the run reports its boot");
        // l = 2: sender→x1, x1→x2, x2→receiver per message
        assert_eq!(outcome.trace.len(), 75);
        // the per-relay counters come from the cluster's shutdown
        assert_eq!(outcome.stats.len(), 6);
        let relayed: u64 = outcome.stats.iter().map(|s| s.relayed).sum();
        let delivered: u64 = outcome.stats.iter().map(|s| s.delivered).sum();
        let dropped: u64 = outcome.stats.iter().map(|s| s.dropped).sum();
        assert_eq!((relayed, delivered, dropped), (25, 25, 0));

        // payload integrity end to end
        let mut sent: Vec<Vec<u8>> = arrivals.iter().map(|a| a.payload.clone()).collect();
        let mut got: Vec<Vec<u8>> = outcome
            .deliveries
            .iter()
            .map(|d| d.payload.clone())
            .collect();
        sent.sort();
        got.sort();
        assert_eq!(sent, got);

        // every message has exactly one receiver edge
        for o in &outcome.originations {
            let receiver_edges = outcome
                .trace
                .iter()
                .filter(|r| r.msg == o.msg && r.to == Endpoint::Receiver)
                .count();
            assert_eq!(receiver_edges, 1, "{:?}", o.msg);
        }
    }

    #[test]
    fn relays_share_one_connection_per_next_hop() {
        let n = 8;
        let config = ClusterConfig::new(n, PathLengthDist::uniform(1, 3).unwrap());
        let outcome = run_cluster(&config, &workload(n, 400, 12)).unwrap();
        assert_eq!(outcome.deliveries.len(), 400);
        // each relay dials each other relay at most once, and the client
        // dials each first hop once: n² connections at most, where one
        // connection per route prefix would take several times as many
        let accepted: u64 = outcome.stats.iter().map(|s| s.accepted).sum();
        assert!(accepted > 0, "the stats count accepted connections");
        assert!(
            accepted <= (n * n) as u64,
            "relays accepted {accepted} connections, more than n² = {}",
            n * n
        );
    }

    #[test]
    fn zero_length_paths_send_directly() {
        let config = ClusterConfig::new(4, PathLengthDist::fixed(0));
        let arrivals = workload(4, 8, 3);
        let outcome = run_cluster(&config, &arrivals).unwrap();
        assert_eq!(outcome.deliveries.len(), 8);
        assert_eq!(outcome.trace.len(), 8);
        for d in &outcome.deliveries {
            assert!(matches!(d.last_hop, Endpoint::Node(_)));
        }
        let relayed: u64 = outcome.stats.iter().map(|s| s.relayed).sum();
        assert_eq!(relayed, 0, "direct sends never touch a relay");
    }

    #[test]
    fn epochs_rekey_circuits_but_not_identities() {
        let mut config = ClusterConfig::new(5, PathLengthDist::uniform(1, 3).unwrap());
        config.seed = 13;
        let arrivals = workload(5, 12, 4);
        let epoch0 = run_cluster(&config, &arrivals).unwrap();
        config.epoch = 1;
        let epoch1 = run_cluster(&config, &arrivals).unwrap();
        // identities derive from the seed only, so both epochs run the
        // same cluster — but the circuit streams must differ
        assert_eq!(
            cluster_identity(13, 2).public(),
            cluster_identity(13, 2).public()
        );
        assert_ne!(
            shape(&epoch0.trace),
            shape(&epoch1.trace),
            "each epoch must re-key and re-route its circuits"
        );
        // ...deterministically: the same seed and epoch reproduce their
        // shape (timestamps differ; the observable structure must not)
        let epoch1_again = run_cluster(&config, &arrivals).unwrap();
        assert_eq!(shape(&epoch1.trace), shape(&epoch1_again.trace));
    }

    #[test]
    fn observed_runs_walk_the_phases_and_end_done() {
        let budget = ClusterBudget::new(8);
        let config = ClusterConfig::new(3, PathLengthDist::fixed(1));
        let phase = PhaseCell::new();
        let outcome = run_cluster_budgeted_observed(
            &config,
            &workload(3, 4, 9),
            &budget,
            &AtomicBool::new(false),
            &phase,
        )
        .unwrap()
        .unwrap();
        assert_eq!(outcome.deliveries.len(), 4);
        assert_eq!(phase.get(), Phase::Done);
    }

    #[test]
    fn budgeted_runs_serialize_on_a_tiny_budget() {
        // capacity 4 < n + 1 = 5: the request clamps and the cluster
        // still runs to completion (exclusively)
        let budget = ClusterBudget::new(4);
        let config = ClusterConfig::new(4, PathLengthDist::fixed(1));
        let arrivals = workload(4, 6, 2);
        let outcome = budgeted(&config, &arrivals, &budget).unwrap();
        assert_eq!(outcome.deliveries.len(), 6);
        assert_eq!(budget.available(), budget.capacity(), "slots returned");
    }

    #[test]
    fn budget_slots_survive_every_failure_path() {
        let budget = ClusterBudget::new(3);
        // config error before any boot: repeat more times than the
        // budget has slots so a single leaked permit would wedge the loop
        let bad = ClusterConfig::new(0, PathLengthDist::fixed(1));
        for _ in 0..4 {
            assert!(matches!(
                budgeted(&bad, &[], &budget),
                Err(Error::Config(_))
            ));
            assert_eq!(budget.available(), budget.capacity());
        }
        // traffic error after a successful boot: F(5) over n=2 boots the
        // cluster, then the client rejects the unrealizable strategy
        let unrealizable = ClusterConfig::new(2, PathLengthDist::fixed(5));
        for _ in 0..4 {
            assert!(budgeted(&unrealizable, &workload(2, 1, 1), &budget).is_err());
            assert_eq!(budget.available(), budget.capacity());
        }
        // a cell abandoned while queued boots nothing and returns slots
        let config = ClusterConfig::new(2, PathLengthDist::fixed(1));
        let abandoned = AtomicBool::new(true);
        let phase = PhaseCell::new();
        assert!(run_cluster_budgeted_observed(
            &config,
            &workload(2, 1, 1),
            &budget,
            &abandoned,
            &phase
        )
        .is_none());
        assert_eq!(phase.get(), Phase::Queued, "an abandoned run never boots");
        assert_eq!(budget.available(), budget.capacity());
        // after all that abuse the budget still serves a real run
        let outcome = budgeted(&config, &workload(2, 3, 5), &budget).unwrap();
        assert_eq!(outcome.deliveries.len(), 3);
        assert_eq!(budget.available(), budget.capacity());
    }

    #[test]
    fn invalid_configs_are_rejected_cleanly() {
        let arrivals = workload(4, 2, 1);
        assert!(matches!(
            run_cluster(&ClusterConfig::new(0, PathLengthDist::fixed(1)), &arrivals),
            Err(Error::Config(_))
        ));
        // sender out of range
        let config = ClusterConfig::new(2, PathLengthDist::fixed(1));
        let bad = vec![Arrival {
            at: anonroute_sim::SimTime::ZERO,
            sender: 3,
            payload: vec![1],
        }];
        assert!(matches!(run_cluster(&config, &bad), Err(Error::Config(_))));
        // unrealizable strategy: F(5) needs 5 distinct intermediates of 4
        let config = ClusterConfig::new(4, PathLengthDist::fixed(5));
        assert!(run_cluster(&config, &workload(4, 1, 1)).is_err());
    }

    #[test]
    fn cells_match_fresh_cluster_shapes() {
        let mut base = ClusterConfig::new(6, PathLengthDist::fixed(2));
        base.seed = 99; // identities differ from the fresh run on purpose
        let cluster = SharedCluster::boot(&base).unwrap();
        let phase = PhaseCell::new();

        // a full-width cell and a narrower prefix cell, each checked
        // against a fresh single-shot cluster with the same parameters
        for (n_cell, seed, count) in [(6usize, 21u64, 15usize), (4, 5, 9)] {
            let arrivals = workload(n_cell, count, seed);
            let mut spec = ClusterConfig::new(n_cell, PathLengthDist::fixed(2));
            spec.seed = seed;
            let cell = cluster.run_cell(&spec, &arrivals, &phase).unwrap();
            let fresh = run_cluster(&spec, &arrivals).unwrap();
            assert_eq!(shape(&cell.trace), shape(&fresh.trace));
            assert_eq!(cell.deliveries.len(), fresh.deliveries.len());
            assert_eq!(cell.originations.len(), count);
            assert_eq!(cell.boot_micros, 0, "the boot belongs to the cluster");
            assert_eq!(phase.get(), Phase::Drain);
        }

        // the same cell twice reproduces its own shape after rebasing
        let arrivals = workload(6, 10, 77);
        let mut spec = ClusterConfig::new(6, PathLengthDist::uniform(1, 3).unwrap());
        spec.seed = 77;
        spec.epoch = 2;
        let once = cluster.run_cell(&spec, &arrivals, &phase).unwrap();
        let twice = cluster.run_cell(&spec, &arrivals, &phase).unwrap();
        assert_eq!(shape(&once.trace), shape(&twice.trace));

        let stats = cluster.shutdown().unwrap();
        assert_eq!(stats.len(), 6);
        assert!(stats.iter().any(|s| s.relayed > 0));
    }

    #[test]
    fn killed_relays_leave_the_rest_of_the_network_serving() {
        let mut config = ClusterConfig::new(5, PathLengthDist::fixed(1));
        config.seed = 41;
        let cluster = SharedCluster::boot(&config).unwrap();
        // a prefix cell that never routes through relay 4
        let mut spec = ClusterConfig::new(4, PathLengthDist::fixed(1));
        spec.seed = 8;
        let phase = PhaseCell::new();
        let before = cluster.run_cell(&spec, &workload(4, 6, 1), &phase).unwrap();
        assert_eq!(before.deliveries.len(), 6);

        cluster.kill_relay(4).unwrap();
        assert!(matches!(cluster.kill_relay(4), Err(Error::Config(_))));
        assert!(matches!(cluster.kill_relay(9), Err(Error::Config(_))));

        let after = cluster.run_cell(&spec, &workload(4, 6, 2), &phase).unwrap();
        assert_eq!(after.deliveries.len(), 6);
        let stats = cluster.shutdown().unwrap();
        assert_eq!(stats.len(), 5);
        assert_eq!(stats[4].relayed, 0, "killed relay reports zeroed stats");
    }

    #[test]
    fn cells_through_a_wedged_relay_fail_within_their_deadlines() {
        // one-hop routes: sender 0's cells all go through relay 1
        let mut config = ClusterConfig::new(2, PathLengthDist::fixed(1));
        config.cell_size = 1 << 19;
        config.deliver_timeout = Duration::from_millis(300);
        let limit = config.deliver_timeout + crate::wire::SEND_DEADLINE + Duration::from_secs(2);
        let (elapsed, err, budget) = within(3 * limit, move || {
            let budget = ClusterBudget::new(config.budget_slots());
            let permit = budget.acquire(config.budget_slots());
            let cluster = SharedCluster::boot(&config).unwrap();
            let dead = cluster.directory().node(1).unwrap().addr;
            cluster.kill_relay(1).unwrap();
            // what now listens on the killed relay's port never reads, so
            // the client stalls on the ~8 MB of cells meant for relay 1
            let _stalled = std::net::TcpListener::bind(dead).unwrap();
            let start = Instant::now();
            let err = cluster
                .run_cell(&config, &workload(2, 32, 6), &PhaseCell::new())
                .unwrap_err();
            let elapsed = start.elapsed();
            cluster.shutdown().unwrap();
            drop(permit);
            (elapsed, err, budget)
        });
        assert!(
            matches!(err, Error::Io(_) | Error::Timeout(_)),
            "untyped error: {err}"
        );
        assert!(elapsed < limit, "the cell failed after {elapsed:?}");
        assert_eq!(budget.available(), budget.capacity(), "slots returned");
    }

    #[test]
    fn clusters_cross_threads() {
        // concurrent cells share one &SharedCluster
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedCluster>();
    }

    #[test]
    fn cells_reject_invalid_specs() {
        let cluster =
            SharedCluster::boot(&ClusterConfig::new(3, PathLengthDist::fixed(1))).unwrap();
        let ok_spec = |n: usize| ClusterConfig::new(n, PathLengthDist::fixed(1));
        let phase = PhaseCell::new();
        assert!(matches!(
            cluster.run_cell(&ok_spec(0), &[], &phase),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            cluster.run_cell(&ok_spec(4), &[], &phase),
            Err(Error::Config(_))
        ));
        let bad = vec![Arrival {
            at: anonroute_sim::SimTime::ZERO,
            sender: 3,
            payload: vec![1],
        }];
        assert!(matches!(
            cluster.run_cell(&ok_spec(3), &bad, &phase),
            Err(Error::Config(_))
        ));
        cluster.shutdown().unwrap();
    }
}
