//! The traced replay: every cell of a campaign grid, run by calling the
//! layers' public functions in the order the campaign runner and its
//! backends call them, with a span around each call.
//!
//! Cell seeds and epoch views come from the runner's public `cell_seed`
//! and `dynamics_seed`. The few constants the backends keep private (two
//! salts, the origination schedule, the epoch-seed mix) are mirrored
//! below; the caller checks every cell's `H*` against the untraced run
//! bit for bit, so a mirror that drifts from the program fails the run
//! instead of measuring something else.
//!
//! Scores always come from the program itself: `H*` of a trace is what
//! the adversary's public `attack_trace` or `intersection_attack`
//! returns, and each of those calls is one inclusive span. The sub-layer
//! split of the same work (reconstruction, fold workspace, posteriors,
//! intersection folds) comes from [`breakdown`] and
//! [`intersection_breakdown`]: a second pass over the same trace through
//! the public parts those two functions are made of, which feeds only
//! the sub-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use anonroute::adversary::{attack_trace, intersection_attack, Adversary, EpochTrace};
use anonroute::campaign::runner::{cell_seed, dynamics_seed};
use anonroute::campaign::{CampaignConfig, EngineKind, Scenario, StrategySpec};
use anonroute::core::engine::{self, EvaluatorCache, FoldWorkspace};
use anonroute::core::epochs::{EpochView, IntersectionPosterior, LiftScratch};
use anonroute::core::{optimize, PathKind, PathLengthDist, SystemModel};
use anonroute::crypto::handshake::send_layer_key;
use anonroute::crypto::onion::{self, Peeled};
use anonroute::protocols::onion_routing::onion_network;
use anonroute::protocols::RouteSampler;
use anonroute::relay::{
    circuit, cluster_identity, run_cluster_budgeted_observed, ClusterBudget, ClusterConfig,
    PhaseCell,
};
use anonroute::sim::traffic::{SessionTraffic, UniformTraffic};
use anonroute::sim::{
    LatencyModel, MsgId, NodeBehavior, Origination, SimTime, Simulation, TransferRecord,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::span::Tracer;

/// Constants the campaign backends keep private; the replay must use the
/// same values to reproduce the untraced run's `H*`.
const SIM_SESSION_SALT: u64 = 0x51B5_E551_0D5A_7701;
const LIVE_WORKLOAD_SALT: u64 = 0x11FE_7AFF_1C5E_ED01;
const SIM_CELL_SIZE: usize = 2048;

/// Messages per live cell whose circuits the crypto probe builds and peels.
const CRYPTO_PROBE_MESSAGES: usize = 100;

/// What one replayed cell produced.
pub struct CellOut {
    pub engine: EngineKind,
    pub strategy: StrategySpec,
    pub model: SystemModel,
    pub dist: PathLengthDist,
    pub score: Score,
}

/// A cell's scored outcome, as its backend reports it.
#[derive(Default)]
pub struct Score {
    pub h_star: f64,
    pub std_error: Option<f64>,
    pub samples: Option<usize>,
    /// Multi-epoch cells: mean cumulative entropy after each epoch, and
    /// the number of sessions behind it.
    pub curve: Vec<(f64, usize)>,
    /// Live cells: messages delivered.
    pub delivered: usize,
}

impl Score {
    fn new(h_star: f64, std_error: Option<f64>, samples: Option<usize>) -> Self {
        Score {
            h_star,
            std_error,
            samples,
            ..Score::default()
        }
    }

    pub fn h_epoch1(&self) -> Option<f64> {
        (self.curve.len() > 1).then(|| self.curve[0].0)
    }
}

/// Relay-layer measurements summed over a replay's live cells.
#[derive(Default)]
pub struct RelayTotals {
    pub boot_s: f64,
    pub traffic_s: f64,
    pub teardown_s: f64,
    pub messages: usize,
    pub cells_relayed: u64,
    pub dropped: u64,
    /// Origination-to-delivery latency per message, tap clock, in µs.
    pub latencies_us: Vec<u64>,
}

/// One live cell's parameters, kept for the crypto probe.
pub struct LiveCell {
    n: usize,
    dist: PathLengthDist,
    seed: u64,
    cell_size: usize,
}

pub struct Replay {
    pub cells: Vec<Result<CellOut, String>>,
    pub relay: RelayTotals,
    pub live_cells: Vec<LiveCell>,
}

/// Replays every cell of `cells` (grid order) under `config`.
pub fn replay(cells: &[Scenario], config: &CampaignConfig, t: &mut Tracer) -> Replay {
    let cache = EvaluatorCache::new();
    let mut out = Replay {
        cells: Vec::with_capacity(cells.len()),
        relay: RelayTotals::default(),
        live_cells: Vec::new(),
    };
    for (index, scenario) in cells.iter().enumerate() {
        let seed = cell_seed(config.seed, index);
        let cell = t
            .span("campaign.setup", |t| setup(scenario, config, t))
            .and_then(|(model, dist, views)| {
                let score = match scenario.engine {
                    EngineKind::Exact => exact(&model, &dist, &cache, t),
                    EngineKind::MonteCarlo => monte_carlo(&model, &dist, seed, config, t),
                    EngineKind::Simulated if scenario.dynamics.is_one_shot() => {
                        simulated(&model, &dist, seed, config, t)
                    }
                    EngineKind::Simulated => sim_epochs(&model, &dist, &views, seed, config, t),
                    EngineKind::Live => {
                        out.live_cells.push(LiveCell {
                            n: model.n(),
                            dist: dist.clone(),
                            seed,
                            cell_size: config.live_cell_size,
                        });
                        live(&model, &dist, seed, config, &mut out.relay, t)
                    }
                }?;
                Ok(CellOut {
                    engine: scenario.engine,
                    strategy: scenario.strategy.clone(),
                    model,
                    dist,
                    score,
                })
            });
        out.cells.push(cell);
    }
    out
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The runner's per-cell set-up: model, strategy and epoch views. An
/// optimal strategy is solved here, as `StrategySpec::realize` does, but
/// through `optimize` directly so the solve gets its own span.
fn setup(
    scenario: &Scenario,
    config: &CampaignConfig,
    t: &mut Tracer,
) -> Result<(SystemModel, PathLengthDist, Vec<EpochView>), String> {
    let (n, c) = (scenario.n, scenario.c);
    let model = SystemModel::with_path_kind(n, c, scenario.path_kind).map_err(err)?;
    let dist = match &scenario.strategy {
        &StrategySpec::Optimal { mean } if model.path_kind() == PathKind::Simple => {
            let outcome = t.span("optimize.solve", |_| match mean {
                Some(m) => {
                    optimize::maximize_with_mean(&model, (n - 1).min(2 * m.ceil() as usize + 20), m)
                }
                None => optimize::maximize(&model, (n - 1).min(60)),
            });
            let outcome = outcome.map_err(err)?;
            t.count("optimize.solves", 1);
            t.count("optimize.evaluations", outcome.evaluations as u64);
            model.validate_dist(&outcome.dist).map_err(err)?;
            outcome.dist
        }
        strategy => strategy.realize(&model)?,
    };
    let views = if scenario.dynamics.is_one_shot() {
        vec![EpochView {
            epoch: 0,
            active: (0..n).collect(),
            compromised: (n - c..n).collect(),
        }]
    } else {
        let views = t
            .span("epochs.realize", |_| {
                scenario
                    .dynamics
                    .realize(n, c, dynamics_seed(config.seed, scenario))
            })
            .map_err(err)?;
        for view in &views {
            SystemModel::with_path_kind(view.n(), c, scenario.path_kind)
                .map_err(err)?
                .validate_dist(&dist)
                .map_err(|e| format!("epoch {}: {e}", view.epoch + 1))?;
        }
        views
    };
    Ok((model, dist, views))
}

/// `ExactBackend`, one-shot simple paths: the shared evaluator's analysis.
fn exact(
    model: &SystemModel,
    dist: &PathLengthDist,
    cache: &EvaluatorCache,
    t: &mut Tracer,
) -> Result<Score, String> {
    if model.path_kind() != PathKind::Simple {
        return Err("the traced replay covers simple-path exact cells only".into());
    }
    let analysis = t.span("engine.analyze", |_| {
        cache
            .evaluator(model, model.n() - 1)
            .map(|ev| ev.analyze(dist.pmf()))
    });
    Ok(Score::new(analysis.map_err(err)?.h_star, None, None))
}

/// `MonteCarloBackend`, one-shot cells.
fn monte_carlo(
    model: &SystemModel,
    dist: &PathLengthDist,
    seed: u64,
    config: &CampaignConfig,
    t: &mut Tracer,
) -> Result<Score, String> {
    let est = t
        .span("engine.mc", |_| {
            engine::estimate_anonymity_degree(model, dist, config.mc_samples, seed)
        })
        .map_err(err)?;
    t.count("engine.mc_samples", est.samples as u64);
    Ok(Score::new(est.mean, Some(est.std_error), Some(est.samples)))
}

/// The onion network a simulated cell (or epoch) runs on.
fn onion_nodes(
    n: usize,
    dist: &PathLengthDist,
    key_seed: &[u8],
    t: &mut Tracer,
) -> Result<Vec<anonroute::protocols::onion_routing::OnionNode>, String> {
    let nodes = t.span("protocols.network_build", |_| {
        let sampler = RouteSampler::new(n, dist.clone(), PathKind::Simple).map_err(err)?;
        onion_network(n, &sampler, SIM_CELL_SIZE, key_seed).map_err(err)
    })?;
    t.count("protocols.keys", n as u64);
    Ok(nodes)
}

/// The passive adversary of a one-shot cell: the last `c` nodes.
fn one_shot_adversary(model: &SystemModel) -> Result<Adversary, String> {
    let n = model.n();
    Adversary::new(n, &(n - model.c()..n).collect::<Vec<_>>()).map_err(err)
}

/// The program's one-shot scoring, `attack_trace`, timed whole (its
/// report, with every message's posterior, is dropped inside the span as
/// the backend drops it). Returns `(H*, std error, messages attacked)`.
fn attack(
    adversary: &Adversary,
    model: &SystemModel,
    dist: &PathLengthDist,
    trace: &[TransferRecord],
    originations: &[Origination],
    t: &mut Tracer,
) -> Result<(f64, f64, usize), String> {
    let (h, se, k) = t
        .span("adversary.attack", |_| {
            attack_trace(adversary, model, dist, trace, originations)
                .map(|r| (r.empirical_h_star, r.std_error, r.verdicts.len()))
        })
        .map_err(err)?;
    t.count("adversary.messages_attacked", k as u64);
    Ok((h, se, k))
}

/// `SimulatedBackend`, one-shot simple-path cells.
fn simulated(
    model: &SystemModel,
    dist: &PathLengthDist,
    seed: u64,
    config: &CampaignConfig,
    t: &mut Tracer,
) -> Result<Score, String> {
    let n = model.n();
    if n > config.sim_max_n || model.path_kind() != PathKind::Simple {
        return Err("the traced replay covers simple-path sim cells within sim_max_n".into());
    }
    let nodes = onion_nodes(n, dist, b"anonroute-campaign", t)?;
    let sim = t.span("sim.run", |t| {
        let mut sim = Simulation::new(nodes, LatencyModel::Uniform { lo: 50, hi: 500 }, seed);
        let mut salt = seed | 1;
        for i in 0..config.sim_messages as u64 {
            salt = salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sim.schedule_origination(
                SimTime::from_micros(i * 100),
                (salt >> 33) as usize % n,
                vec![0u8; 4],
            );
        }
        sim.run();
        t.count("sim.events", sim.events_processed());
        sim
    });
    let adversary = one_shot_adversary(model)?;
    let (h, se, k) = attack(&adversary, model, dist, sim.trace(), sim.originations(), t)?;
    t.span("adversary.breakdown", |t| {
        breakdown(&adversary, model, dist, sim.trace(), sim.originations(), t)
    })?;
    t.span("sim.drop", |_| drop(sim));
    Ok(Score::new(h, Some(se), Some(k)))
}

/// The public parts `attack_trace` is made of, each in its own span:
/// reconstruct every delivered message, build the fold workspace, one
/// posterior per message (kept alive until the end, as the report keeps
/// them).
fn breakdown(
    adversary: &Adversary,
    model: &SystemModel,
    dist: &PathLengthDist,
    trace: &[TransferRecord],
    originations: &[Origination],
    t: &mut Tracer,
) -> Result<(), String> {
    let observations = t.span("adversary.reconstruct", |_| {
        adversary.reconstruct_all(trace)
    });
    let workspace = t
        .span("engine.workspace_build", |_| {
            FoldWorkspace::new(model, dist)
        })
        .map_err(err)?;
    let mut kept = Vec::with_capacity(observations.len());
    for o in originations {
        let Some(obs) = observations.get(&o.msg) else {
            continue;
        };
        let posterior = t
            .span("engine.posterior", |_| {
                workspace.posterior(obs, adversary.compromised())
            })
            .map_err(err)?;
        t.count("engine.posteriors", 1);
        kept.push(posterior);
    }
    Ok(())
}

/// One epoch's simulated artifacts, in local ids with session-id messages.
struct EpochRun {
    model: SystemModel,
    trace: Vec<TransferRecord>,
    originations: Vec<Origination>,
}

/// `SimulatedBackend`, multi-epoch cells: one simulation per epoch over
/// its active nodes, then the intersection adversary.
fn sim_epochs(
    model: &SystemModel,
    dist: &PathLengthDist,
    views: &[EpochView],
    seed: u64,
    config: &CampaignConfig,
    t: &mut Tracer,
) -> Result<Score, String> {
    let n = model.n();
    if n > config.sim_max_n || model.path_kind() != PathKind::Simple {
        return Err("the traced replay covers simple-path sim cells within sim_max_n".into());
    }
    let traffic = SessionTraffic {
        sessions: (config.sim_messages / views.len().max(1)).max(1),
        interval_us: 100,
        payload_len: 4,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ SIM_SESSION_SALT);
    let senders = traffic.senders(n, &mut rng);
    let mut runs = Vec::with_capacity(views.len());
    for view in views {
        let ne = view.n();
        let epoch_model =
            SystemModel::with_path_kind(ne, model.c(), model.path_kind()).map_err(err)?;
        let nodes: Vec<Box<dyn NodeBehavior>> = onion_nodes(ne, dist, b"anonroute-epochs", t)?
            .into_iter()
            .map(|node| Box::new(node) as Box<dyn NodeBehavior>)
            .collect();
        let epoch_seed =
            seed.wrapping_add((view.epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (trace, originations) = t.span("sim.run", |t| {
            let mut sim =
                Simulation::new(nodes, LatencyModel::Uniform { lo: 50, hi: 500 }, epoch_seed);
            let (arrivals, session_of) =
                traffic.epoch_arrivals(&senders, |u| view.local_of(u), &mut rng);
            sim.schedule_arrivals(arrivals);
            sim.run();
            t.count("sim.events", sim.events_processed());
            let (mut trace, mut originations) = sim.into_artifacts();
            for r in trace.iter_mut() {
                r.msg = session_of[r.msg.0 as usize];
            }
            for o in originations.iter_mut() {
                o.msg = session_of[o.msg.0 as usize];
            }
            (trace, originations)
        });
        runs.push(EpochRun {
            model: epoch_model,
            trace,
            originations,
        });
    }
    let rounds: Vec<EpochTrace<'_>> = views
        .iter()
        .zip(&runs)
        .map(|(view, run)| EpochTrace {
            view,
            model: &run.model,
            dist,
            trace: &run.trace,
            originations: &run.originations,
        })
        .collect();
    let decay = t
        .span("adversary.intersection", |_| {
            intersection_attack(n, &rounds).map(|outcome| outcome.decay)
        })
        .map_err(err)?;
    t.span("adversary.breakdown", |t| {
        intersection_breakdown(n, &rounds, t)
    })?;
    let last = decay.last();
    let mut cell = Score::new(
        last.mean_entropy_bits,
        Some(last.std_error),
        Some(last.sessions),
    );
    cell.curve = decay
        .per_epoch
        .iter()
        .map(|e| (e.mean_entropy_bits, e.sessions))
        .collect();
    Ok(cell)
}

/// The public parts `intersection_attack` is made of, each in its own
/// span: per epoch, reconstruct, build the fold workspace, then per
/// observed session one posterior and one fold into the session's
/// cumulative posterior (lifted to the universe under churn).
fn intersection_breakdown(
    universe: usize,
    rounds: &[EpochTrace<'_>],
    t: &mut Tracer,
) -> Result<(), String> {
    let mut sessions: BTreeMap<MsgId, IntersectionPosterior> = BTreeMap::new();
    let mut posterior: Vec<f64> = Vec::new();
    let mut lift = LiftScratch::new(universe);
    for round in rounds {
        let view = round.view;
        let adversary = Adversary::new(view.n(), &view.local_compromised_ids()).map_err(err)?;
        let observations = t.span("adversary.reconstruct", |_| {
            adversary.reconstruct_all(round.trace)
        });
        let workspace = t
            .span("engine.workspace_build", |_| {
                FoldWorkspace::new(round.model, round.dist)
            })
            .map_err(err)?;
        let identity_lift =
            view.n() == universe && view.active.iter().enumerate().all(|(i, &u)| i == u);
        for o in round.originations {
            let acc = sessions
                .entry(o.msg)
                .or_insert_with(|| IntersectionPosterior::new(universe));
            let Some(obs) = observations.get(&o.msg) else {
                continue;
            };
            t.span("engine.posterior", |_| {
                workspace.posterior_into(obs, adversary.compromised(), &mut posterior)
            })
            .map_err(err)?;
            t.count("engine.posteriors", 1);
            if acc.is_sparse() {
                t.count("epochs.sparse_folds", 1);
            }
            t.span("epochs.fold", |_| {
                if identity_lift {
                    acc.fold(&posterior)
                } else {
                    lift.lifted(&view.active, &posterior, |p| acc.fold(p))
                }
            })
            .map_err(err)?;
            t.count("epochs.folds", 1);
        }
    }
    Ok(())
}

/// `LiveBackend`, one-shot cells: a fresh loopback cluster, run on a
/// helper thread through the same budgeted entry point the backend's
/// watchdog uses, then the same attack as the simulated backend.
fn live(
    model: &SystemModel,
    dist: &PathLengthDist,
    seed: u64,
    config: &CampaignConfig,
    relay: &mut RelayTotals,
    t: &mut Tracer,
) -> Result<Score, String> {
    let n = model.n();
    if n > config.live_max_n {
        return Err(format!("live cell n={n} exceeds live_max_n"));
    }
    let mut cluster = ClusterConfig::new(n, dist.clone());
    cluster.path_kind = model.path_kind();
    cluster.seed = seed;
    cluster.cell_size = config.live_cell_size;
    let arrivals = UniformTraffic {
        count: config.live_messages,
        interval_us: 0,
        payload_len: 8,
    }
    .generate(n, &mut StdRng::seed_from_u64(seed ^ LIVE_WORKLOAD_SALT));
    let start = Instant::now();
    let outcome = t
        .span("relay.cluster", |_| {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        run_cluster_budgeted_observed(
                            &cluster,
                            &arrivals,
                            ClusterBudget::global(),
                            &Default::default(),
                            &PhaseCell::new(),
                        )
                    })
                    .join()
            })
        })
        .map_err(|_| "the cluster thread panicked".to_string())?
        .ok_or("the cluster run was abandoned")?
        .map_err(err)?;
    let wall = start.elapsed().as_secs_f64();
    let boot = outcome.boot_micros as f64 / 1e6;
    let traffic = outcome.traffic_micros as f64 / 1e6;
    relay.boot_s += boot;
    relay.traffic_s += traffic;
    relay.teardown_s += wall - boot - traffic;
    relay.messages += arrivals.len();
    relay.cells_relayed += outcome.stats.iter().map(|s| s.relayed).sum::<u64>();
    relay.dropped += outcome.stats.iter().map(|s| s.dropped).sum::<u64>();
    let sent_at: BTreeMap<MsgId, SimTime> = outcome
        .originations
        .iter()
        .map(|o| (o.msg, o.time))
        .collect();
    relay.latencies_us.extend(
        outcome
            .deliveries
            .iter()
            .filter_map(|d| sent_at.get(&d.msg).map(|&at| d.time.since(at))),
    );
    let adversary = one_shot_adversary(model)?;
    let (h, se, k) = attack(
        &adversary,
        model,
        dist,
        &outcome.trace,
        &outcome.originations,
        t,
    )?;
    let mut cell = Score::new(h, Some(se), Some(k));
    cell.delivered = outcome.deliveries.len();
    Ok(cell)
}

/// Per-operation crypto costs on a live workload's own relay keys and
/// circuits, in microseconds (medians), with a round-trip check.
pub struct CryptoCosts {
    pub handshake_us: f64,
    pub seal_us: f64,
    pub peel_us: f64,
    pub failures: usize,
}

/// Builds and peels circuits sampled from each live cell's strategy over
/// that cell's relay identities, and runs the X25519 handshake against
/// them: the client's half (`send_layer_key`) and the relay's half
/// (`recv_layer_key`) must agree.
pub fn crypto_probe(cells: &[LiveCell]) -> CryptoCosts {
    let (mut handshake, mut seal, mut peel) = (Vec::new(), Vec::new(), Vec::new());
    let mut failures = 0;
    for cell in cells {
        let identities: Vec<_> = (0..cell.n)
            .map(|id| cluster_identity(cell.seed, id))
            .collect();
        let mut sampler = RouteSampler::new(cell.n, cell.dist.clone(), PathKind::Simple)
            .expect("the cell's strategy was validated by the sweep");
        let mut rng = StdRng::seed_from_u64(cell.seed);
        for m in 0..CRYPTO_PROBE_MESSAGES {
            let sender = m % cell.n;
            let route = sampler.sample(sender, &mut rng);
            if route.is_empty() {
                continue;
            }
            let hops: Vec<u16> = route.iter().map(|&h| h as u16).collect();
            let publics: Vec<[u8; 32]> = route.iter().map(|&h| *identities[h].public()).collect();
            let payload: [u8; 8] = rng.gen();

            let eph: [u8; 32] = rng.gen();
            let target = &identities[route[0]];
            let start = Instant::now();
            let (client_key, eph_pub) = send_layer_key(&eph, target.public());
            let relay_key = target.recv_layer_key(&eph_pub);
            handshake.push(start.elapsed().as_secs_f64() * 1e6);
            failures += usize::from(client_key != relay_key);

            let start = Instant::now();
            let built = circuit::build(&publics, &hops, &payload, &mut rng);
            seal.push(start.elapsed().as_secs_f64() * 1e6);
            let Ok(mut content) = built else {
                failures += 1;
                continue;
            };
            let mut delivered = None;
            for &hop in &route {
                let mut junk = || rng.gen::<u8>();
                let Ok(cell_bytes) = onion::frame(&content, cell.cell_size, &mut junk) else {
                    break;
                };
                let start = Instant::now();
                let peeled = circuit::peel(&identities[hop], &cell_bytes);
                peel.push(start.elapsed().as_secs_f64() * 1e6);
                match peeled {
                    Ok(Peeled::Forward { content: inner, .. }) => content = inner,
                    Ok(Peeled::Deliver { payload }) => {
                        delivered = Some(payload);
                        break;
                    }
                    Err(_) => break,
                }
            }
            failures += usize::from(delivered.as_deref() != Some(&payload[..]));
        }
    }
    CryptoCosts {
        handshake_us: median(&mut handshake),
        seal_us: median(&mut seal),
        peel_us: median(&mut peel),
        failures,
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}
