//! The live backend: every cell boots a real loopback TCP relay cluster.
//!
//! One `live` cell is one [`anonroute_relay::run_cluster`] run: `n`
//! relays bind `127.0.0.1` ephemeral ports, a circuit-building client
//! drives a seeded [`anonroute_sim::traffic`] workload through genuine
//! sockets, and the per-link tap's `TransferRecord`s are fed to the same
//! passive adversary the simulated backend uses — so one grid sweep can
//! place closed-form math and measured TCP traffic side by side.
//!
//! Clusters claim [`ClusterConfig::budget_slots`] relay slots from the
//! process-wide [`ClusterBudget`] before binding, so a wide rayon pool
//! cannot exhaust loopback ports or file descriptors by booting dozens
//! of clusters at once. The cluster runs inline on the cell's worker
//! thread: every socket call on its path has a deadline (see
//! [`anonroute_relay::cluster`]), so a wedged relay ends the run with an
//! error, which becomes the cell's error string in `CellResult::outcome`.
//!
//! Determinism: cluster identities, routes, handshake ephemerals, nonces,
//! and junk all derive from `ctx.seed`, and the adversary consumes only
//! the trace's structure, so the measured `H*` is deterministic per seed
//! even though TCP scheduling is not (pinned by `tests/engines.rs`).

use anonroute_core::SystemModel;
use anonroute_relay::budget::ClusterBudget;
use anonroute_relay::{run_cluster, ClusterConfig, ClusterOutcome};
use anonroute_sim::traffic::{Arrival, SessionTraffic, UniformTraffic};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::{
    attack_and_score, intersect_and_score, remap_to_sessions, session_count, CellCtx, CellMetrics,
    EpochRun, EvalBackend, Phase,
};
use crate::grid::EngineKind;

/// Salt separating the workload RNG stream from the cluster's own seed
/// uses (identities, routes, nonces, junk).
const WORKLOAD_SALT: u64 = 0x11FE_7AFF_1C5E_ED01;

/// Salt separating the persistent-session draw of multi-epoch cells.
const LIVE_SESSION_SALT: u64 = 0x11FE_5E55_10F5_EED2;

/// Measured anonymity of a real loopback TCP cluster (the `live`
/// engine); sizing comes from the `live_*` fields of `CampaignConfig`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveBackend;

impl EvalBackend for LiveBackend {
    fn kind(&self) -> EngineKind {
        EngineKind::Live
    }

    fn evaluate(&self, ctx: &CellCtx<'_>) -> Result<CellMetrics, String> {
        let n = ctx.model.n();
        if n > ctx.config.live_max_n {
            return Err(format!(
                "live cell n={n} exceeds live_max_n={} (each live cell boots n relays with \
                 real sockets and threads; raise --live-max-n to allow it)",
                ctx.config.live_max_n
            ));
        }
        if !ctx.scenario.dynamics.is_one_shot() {
            return evaluate_epochs(ctx);
        }
        let arrivals = UniformTraffic {
            count: ctx.config.live_messages,
            interval_us: 0,
            payload_len: 8,
        }
        .generate(n, &mut StdRng::seed_from_u64(ctx.seed ^ WORKLOAD_SALT));
        let evaluate = ctx.clock.phase(Phase::Evaluate);
        let outcome = run_live(ctx, n, 0, &arrivals).map_err(|e| e.to_string())?;
        drop(evaluate);
        let _attack = ctx.clock.phase(Phase::Attack);
        let est = attack_and_score(
            ctx.cache,
            ctx.model,
            ctx.dist,
            &outcome.trace,
            &outcome.originations,
        )?;
        Ok(CellMetrics::from_sampled(ctx.model, ctx.dist, est))
    }
}

/// The one cluster runner: boots `ne` relays keyed by the cell seed and
/// `epoch` once the process-wide [`ClusterBudget`] grants their slots,
/// drives `arrivals` through them, and adds the run's boot and traffic
/// time to the cell's profile.
fn run_live(
    ctx: &CellCtx<'_>,
    ne: usize,
    epoch: u64,
    arrivals: &[Arrival],
) -> anonroute_relay::Result<ClusterOutcome> {
    let mut cluster = ClusterConfig::new(ne, ctx.dist.clone());
    cluster.path_kind = ctx.model.path_kind();
    cluster.seed = ctx.seed;
    cluster.epoch = epoch;
    cluster.cell_size = ctx.config.live_cell_size;
    let _permit = ClusterBudget::global().acquire(cluster.budget_slots());
    let outcome = run_cluster(&cluster, arrivals)?;
    ctx.clock
        .add_cluster_run(outcome.boot_micros, outcome.traffic_micros);
    Ok(outcome)
}

/// One live TCP cluster run per epoch: the cluster keeps one identity
/// seed across epochs while `ClusterConfig::epoch` re-keys every
/// circuit — routes, handshake ephemerals, nonces, and cover junk — per
/// round. Identities are provisioned by *local* relay index, so under
/// churn the identity↔universe-node pairing shifts with the compacted
/// active set; that is invisible to the measurement (the adversary
/// scores local-id trace structure, then lifts posteriors to universe
/// space), but it does mean per-node identities are not persistent
/// across churned epochs. Persistent sessions pin their sender across
/// epochs; message ids are rewritten to session ids and the folded
/// traces feed the intersection adversary.
fn evaluate_epochs(ctx: &CellCtx<'_>) -> Result<CellMetrics, String> {
    let n = ctx.model.n();
    let sessions = session_count(ctx.config.live_messages, ctx.scenario.dynamics.epochs);
    let traffic = SessionTraffic {
        sessions,
        interval_us: 0,
        payload_len: 8,
    };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ LIVE_SESSION_SALT);
    let senders = traffic.senders(n, &mut rng);
    let evaluate = ctx.clock.phase(Phase::Evaluate);
    let mut runs = Vec::with_capacity(ctx.views.len());
    for view in ctx.views {
        let ne = view.n();
        let model = SystemModel::with_path_kind(ne, ctx.model.c(), ctx.model.path_kind())
            .map_err(|e| e.to_string())?;
        let (arrivals, session_of) =
            traffic.epoch_arrivals(&senders, |u| view.local_of(u), &mut rng);
        let ClusterOutcome {
            mut trace,
            mut originations,
            ..
        } = run_live(ctx, ne, view.epoch as u64, &arrivals)
            .map_err(|e| format!("epoch {}: {e}", view.epoch + 1))?;
        remap_to_sessions(&mut trace, &mut originations, &session_of);
        runs.push(EpochRun {
            model,
            trace,
            originations,
        });
    }
    drop(evaluate);
    let _fold = ctx.clock.phase(Phase::Fold);
    intersect_and_score(ctx, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonroute_core::{engine, PathKind, SystemModel};

    use crate::grid::{Scenario, StrategySpec};
    use crate::runner::CampaignConfig;

    fn ctx_parts(
        n: usize,
        c: usize,
    ) -> (
        Scenario,
        SystemModel,
        Vec<anonroute_core::epochs::EpochView>,
    ) {
        let scenario = Scenario {
            n,
            c,
            path_kind: PathKind::Simple,
            strategy: StrategySpec::Uniform(1, 3),
            dynamics: anonroute_core::EpochSchedule::one_shot(),
            engine: EngineKind::Live,
        };
        let model = SystemModel::new(n, c).unwrap();
        let views = vec![anonroute_core::epochs::EpochView {
            epoch: 0,
            active: (0..n).collect(),
            compromised: (n - c..n).collect(),
        }];
        (scenario, model, views)
    }

    #[test]
    fn live_backend_measures_real_tcp_traffic() {
        let (scenario, model, views) = ctx_parts(8, 1);
        let dist = scenario.strategy.realize(&model).unwrap();
        let config = CampaignConfig {
            live_messages: 150,
            ..CampaignConfig::default()
        };
        let cache = anonroute_core::engine::EvaluatorCache::new();
        let ctx = CellCtx {
            scenario: &scenario,
            model: &model,
            dist: &dist,
            views: &views,
            seed: 33,
            dynamics_seed: 33,
            config: &config,
            cache: &cache,
            clock: &Default::default(),
        };
        let metrics = LiveBackend.evaluate(&ctx).unwrap();
        let exact = engine::anonymity_degree(&model, &dist).unwrap();
        let est = metrics.sampled().expect("live cells are sampled");
        assert_eq!(est.samples, 150, "every message delivered and attacked");
        assert!(est.agrees_with(exact, 5.0), "live {est} vs exact {exact}");
    }

    #[test]
    fn oversized_live_cells_are_rejected_before_binding_sockets() {
        let (scenario, model, views) = ctx_parts(10, 1);
        let dist = scenario.strategy.realize(&model).unwrap();
        let config = CampaignConfig {
            live_max_n: 9,
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
        let err = LiveBackend.evaluate(&ctx).unwrap_err();
        assert!(err.contains("live_max_n"), "{err}");
    }
}
