//! The simulated-attack backend: run the full in-process protocol stack
//! and attack its trace.
//!
//! Simple-path cells execute onion routing; cyclic cells execute Crowds
//! (which requires a geometric strategy — that's Crowds' defining
//! forwarding rule). The passive adversary compromises the last `c`
//! member nodes and scores every delivered message.
//!
//! Multi-epoch cells run one simulation per realized epoch over that
//! epoch's *active* nodes: persistent sessions
//! ([`anonroute_sim::traffic::SessionTraffic`]) pin a sender per session
//! for the whole run, a session sits out any epoch its sender churned
//! out of, and the per-epoch traces — message ids rewritten to session
//! ids — feed the intersection adversary.
//!
//! Determinism: the discrete-event simulator, the origination schedule,
//! session senders, and every protocol's randomness are all seeded from
//! `ctx.seed`.

use anonroute_core::epochs::EpochView;
use anonroute_core::{PathKind, SystemModel};
use anonroute_protocols::crowds::crowd;
use anonroute_protocols::onion_routing::onion_network;
use anonroute_protocols::RouteSampler;
use anonroute_sim::traffic::{Arrival, SessionTraffic};
use anonroute_sim::{
    LatencyModel, NodeBehavior, NodeId, Origination, SimTime, Simulation, TransferRecord,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::{
    attack_and_score, intersect_and_score, remap_to_sessions, session_count, CellCtx, CellMetrics,
    EpochRun, EvalBackend, Phase,
};
use crate::grid::{EngineKind, StrategySpec};

/// Salt separating the persistent-session draw from the simulator's own
/// seed uses.
const SIM_SESSION_SALT: u64 = 0x51B5_E551_0D5A_7701;

/// Full protocol simulation attacked by the passive adversary (the `sim`
/// engine); the message count comes from `CampaignConfig::sim_messages`
/// (spread over the epochs of a multi-round cell).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatedBackend;

impl EvalBackend for SimulatedBackend {
    fn kind(&self) -> EngineKind {
        EngineKind::Simulated
    }

    fn evaluate(&self, ctx: &CellCtx<'_>) -> Result<CellMetrics, String> {
        let n = ctx.model.n();
        if n > ctx.config.sim_max_n {
            return Err(format!(
                "sim cell n={n} exceeds sim_max_n={} (each sim cell builds and simulates an \
                 n-node network; raise --sim-max-n to allow it)",
                ctx.config.sim_max_n
            ));
        }
        if !ctx.scenario.dynamics.is_one_shot() {
            return evaluate_epochs(ctx);
        }
        // building the network is part of the evidence: at large n it
        // costs more than simulating the messages
        let evaluate = ctx.clock.phase(Phase::Evaluate);
        // one message every 100 µs from an LCG-drawn sender
        let mut salt = ctx.seed | 1;
        let arrivals = (0..ctx.config.sim_messages as u64)
            .map(|i| {
                salt = salt
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Arrival {
                    at: SimTime::from_micros(i * 100),
                    sender: (salt >> 33) as usize % n,
                    payload: vec![0u8; 4],
                }
            })
            .collect();
        let (trace, originations) = simulate(ctx, n, b"anonroute-campaign", ctx.seed, arrivals)?;
        drop(evaluate);
        let attack = ctx.clock.phase(Phase::Attack);
        let est = attack_and_score(ctx.cache, ctx.model, ctx.dist, &trace, &originations)?;
        // freeing the trace is the attack phase's last step
        drop((trace, originations));
        drop(attack);
        Ok(CellMetrics::from_sampled(ctx.model, ctx.dist, est))
    }
}

/// The cyclic-path cell's Crowds forwarding probability, or the standard
/// infeasibility message.
fn crowds_forward_prob(ctx: &CellCtx<'_>) -> Result<f64, String> {
    match ctx.scenario.strategy {
        StrategySpec::Geometric { forward_prob, .. } => Ok(forward_prob),
        _ => Err(
            "the simulated engine models cyclic paths with Crowds, which requires a \
             geometric strategy"
                .into(),
        ),
    }
}

/// The one simulation runner: builds the cell's protocol network over
/// `ne` nodes (onion routing keyed by `key_label` on simple paths,
/// Crowds on cyclic ones), runs `arrivals` through it on the event
/// stream of `seed`, and returns the owned trace and originations.
fn simulate(
    ctx: &CellCtx<'_>,
    ne: usize,
    key_label: &[u8],
    seed: u64,
    arrivals: Vec<Arrival>,
) -> Result<(Vec<TransferRecord>, Vec<Origination>), String> {
    fn run<B: NodeBehavior>(
        nodes: Vec<B>,
        latency: LatencyModel,
        seed: u64,
        arrivals: Vec<Arrival>,
    ) -> (Vec<TransferRecord>, Vec<Origination>) {
        let mut sim = Simulation::new(nodes, latency, seed);
        sim.schedule_arrivals(arrivals);
        sim.run();
        sim.into_artifacts()
    }
    match ctx.model.path_kind() {
        PathKind::Simple => {
            let sampler = RouteSampler::new(ne, ctx.dist.clone(), PathKind::Simple)
                .map_err(|e| e.to_string())?;
            let nodes = onion_network(ne, &sampler, 2048, key_label).map_err(|e| e.to_string())?;
            Ok(run(
                nodes,
                LatencyModel::Uniform { lo: 50, hi: 500 },
                seed,
                arrivals,
            ))
        }
        PathKind::Cyclic => {
            let nodes = crowd(ne, crowds_forward_prob(ctx)?).map_err(|e| e.to_string())?;
            Ok(run(nodes, LatencyModel::Constant(100), seed, arrivals))
        }
    }
}

/// Runs one simulation per epoch with persistent senders and scores the
/// intersection attack on the folded traces.
fn evaluate_epochs(ctx: &CellCtx<'_>) -> Result<CellMetrics, String> {
    let n = ctx.model.n();
    let sessions = session_count(ctx.config.sim_messages, ctx.scenario.dynamics.epochs);
    let traffic = SessionTraffic {
        sessions,
        interval_us: 100,
        payload_len: 4,
    };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ SIM_SESSION_SALT);
    let senders = traffic.senders(n, &mut rng);
    let evaluate = ctx.clock.phase(Phase::Evaluate);
    let mut runs = Vec::with_capacity(ctx.views.len());
    for view in ctx.views {
        runs.push(run_epoch(ctx, view, &traffic, &senders, &mut rng)?);
    }
    drop(evaluate);
    let _fold = ctx.clock.phase(Phase::Fold);
    intersect_and_score(ctx, &runs)
}

/// One epoch: a fresh network over the active set, one origination per
/// active session, message ids rewritten back to session ids.
fn run_epoch(
    ctx: &CellCtx<'_>,
    view: &EpochView,
    traffic: &SessionTraffic,
    senders: &[NodeId],
    rng: &mut StdRng,
) -> Result<EpochRun, String> {
    let ne = view.n();
    let model = SystemModel::with_path_kind(ne, ctx.model.c(), ctx.model.path_kind())
        .map_err(|e| e.to_string())?;
    // each epoch gets its own deterministic event stream
    let epoch_seed = ctx
        .seed
        .wrapping_add((view.epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (arrivals, session_of) = traffic.epoch_arrivals(senders, |u| view.local_of(u), rng);
    let (mut trace, mut originations) =
        simulate(ctx, ne, b"anonroute-epochs", epoch_seed, arrivals)?;
    remap_to_sessions(&mut trace, &mut originations, &session_of);
    Ok(EpochRun {
        model,
        trace,
        originations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Scenario;
    use crate::runner::CampaignConfig;

    #[test]
    fn oversized_sim_cells_are_rejected_before_provisioning_keys() {
        let n = 10;
        let scenario = Scenario {
            n,
            c: 1,
            path_kind: PathKind::Simple,
            strategy: StrategySpec::Uniform(1, 3),
            dynamics: anonroute_core::EpochSchedule::one_shot(),
            engine: EngineKind::Simulated,
        };
        let model = SystemModel::new(n, 1).unwrap();
        let dist = scenario.strategy.realize(&model).unwrap();
        let views = vec![EpochView {
            epoch: 0,
            active: (0..n).collect(),
            compromised: (n - 1..n).collect(),
        }];
        let config = CampaignConfig {
            sim_max_n: 9,
            ..CampaignConfig::default()
        };
        let cache = anonroute_core::engine::EvaluatorCache::new();
        let ctx = CellCtx {
            scenario: &scenario,
            model: &model,
            dist: &dist,
            views: &views,
            seed: 1,
            dynamics_seed: 1,
            config: &config,
            cache: &cache,
            clock: &Default::default(),
        };
        let err = SimulatedBackend.evaluate(&ctx).unwrap_err();
        assert!(err.contains("sim_max_n"), "{err}");
    }

    #[test]
    fn one_shot_cells_take_their_fold_workspace_from_the_cache() {
        let n = 12;
        let scenario = Scenario {
            n,
            c: 1,
            path_kind: PathKind::Simple,
            strategy: StrategySpec::Uniform(1, 3),
            dynamics: anonroute_core::EpochSchedule::one_shot(),
            engine: EngineKind::Simulated,
        };
        let model = SystemModel::new(n, 1).unwrap();
        let dist = scenario.strategy.realize(&model).unwrap();
        let views = vec![EpochView {
            epoch: 0,
            active: (0..n).collect(),
            compromised: (n - 1..n).collect(),
        }];
        let config = CampaignConfig {
            sim_messages: 50,
            ..CampaignConfig::default()
        };
        let cache = anonroute_core::engine::EvaluatorCache::new();
        for seed in [1, 2] {
            let ctx = CellCtx {
                scenario: &scenario,
                model: &model,
                dist: &dist,
                views: &views,
                seed,
                dynamics_seed: 1,
                config: &config,
                cache: &cache,
                clock: &Default::default(),
            };
            let metrics = SimulatedBackend.evaluate(&ctx).unwrap();
            assert_eq!(metrics.samples, Some(50));
        }
        // two cells of one (model, strategy): one workspace, built once
        let stats = cache.workspace_stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(cache.workspace_len(), 1);
    }
}
