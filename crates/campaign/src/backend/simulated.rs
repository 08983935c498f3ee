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
use anonroute_sim::traffic::SessionTraffic;
use anonroute_sim::{LatencyModel, NodeId, SimTime, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::{
    attack_and_score, intersect_and_score, phase_timer, remap_to_sessions, session_count, CellCtx,
    CellMetrics, EpochRun, EvalBackend, PhaseTimer,
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
        let messages = ctx.config.sim_messages;
        // building the network is part of the evidence: at large n it
        // costs more than simulating the messages
        let evaluate = phase_timer("cell.evaluate");
        match ctx.model.path_kind() {
            PathKind::Simple => {
                let sampler = RouteSampler::new(ctx.model.n(), ctx.dist.clone(), PathKind::Simple)
                    .map_err(|e| e.to_string())?;
                let nodes = onion_network(ctx.model.n(), &sampler, 2048, b"anonroute-campaign")
                    .map_err(|e| e.to_string())?;
                attack_simulation(
                    evaluate,
                    nodes,
                    LatencyModel::Uniform { lo: 50, hi: 500 },
                    ctx,
                    messages,
                )
            }
            PathKind::Cyclic => {
                let forward_prob = crowds_forward_prob(ctx)?;
                let nodes = crowd(ctx.model.n(), forward_prob).map_err(|e| e.to_string())?;
                attack_simulation(evaluate, nodes, LatencyModel::Constant(100), ctx, messages)
            }
        }
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

/// Builds one epoch's protocol network over `ne` active nodes.
fn epoch_nodes(
    ctx: &CellCtx<'_>,
    ne: usize,
) -> Result<(Vec<Box<dyn anonroute_sim::NodeBehavior>>, LatencyModel), String> {
    match ctx.model.path_kind() {
        PathKind::Simple => {
            let sampler = RouteSampler::new(ne, ctx.dist.clone(), PathKind::Simple)
                .map_err(|e| e.to_string())?;
            let nodes = onion_network(ne, &sampler, 2048, b"anonroute-epochs")
                .map_err(|e| e.to_string())?;
            Ok((
                nodes
                    .into_iter()
                    .map(|n| Box::new(n) as Box<dyn anonroute_sim::NodeBehavior>)
                    .collect(),
                LatencyModel::Uniform { lo: 50, hi: 500 },
            ))
        }
        PathKind::Cyclic => {
            let forward_prob = crowds_forward_prob(ctx)?;
            let nodes = crowd(ne, forward_prob).map_err(|e| e.to_string())?;
            Ok((
                nodes
                    .into_iter()
                    .map(|n| Box::new(n) as Box<dyn anonroute_sim::NodeBehavior>)
                    .collect(),
                LatencyModel::Constant(100),
            ))
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
    let evaluate = phase_timer("cell.evaluate");
    let mut runs = Vec::with_capacity(ctx.views.len());
    for view in ctx.views {
        runs.push(run_epoch(ctx, view, &traffic, &senders, &mut rng)?);
    }
    let evaluate_us = evaluate.stop_us();
    let fold = phase_timer("cell.fold");
    let mut metrics = intersect_and_score(ctx, &runs)?;
    metrics.profile.evaluate_us = evaluate_us;
    metrics.profile.fold_us = fold.stop_us();
    Ok(metrics)
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
    let (nodes, latency) = epoch_nodes(ctx, ne)?;
    // each epoch gets its own deterministic event stream
    let epoch_seed = ctx
        .seed
        .wrapping_add((view.epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut sim = Simulation::new(nodes, latency, epoch_seed);
    let (arrivals, session_of) = traffic.epoch_arrivals(senders, |u| view.local_of(u), rng);
    sim.schedule_arrivals(arrivals);
    sim.run();
    // take ownership of the per-epoch artifacts instead of copying them
    let (mut trace, mut originations) = sim.into_artifacts();
    remap_to_sessions(&mut trace, &mut originations, &session_of);
    Ok(EpochRun {
        model,
        trace,
        originations,
    })
}

/// Drives `messages` originations through `nodes`, then scores the
/// passive adversary's attack on the trace. `evaluate` already times the
/// network's construction.
fn attack_simulation<B: anonroute_sim::NodeBehavior>(
    evaluate: PhaseTimer,
    nodes: Vec<B>,
    latency: LatencyModel,
    ctx: &CellCtx<'_>,
    messages: usize,
) -> Result<CellMetrics, String> {
    let (model, dist, seed) = (ctx.model, ctx.dist, ctx.seed);
    let n = model.n();
    let mut sim = Simulation::new(nodes, latency, seed);
    let mut salt = seed | 1;
    for i in 0..messages as u64 {
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
    let evaluate_us = evaluate.stop_us();
    let attack = phase_timer("cell.attack");
    let est = attack_and_score(ctx.cache, model, dist, sim.trace(), sim.originations())?;
    // freeing the network and its trace is the attack phase's last step
    drop(sim);
    let mut metrics = CellMetrics::from_sampled(model, dist, est);
    metrics.profile.evaluate_us = evaluate_us;
    metrics.profile.attack_us = attack.stop_us();
    Ok(metrics)
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
