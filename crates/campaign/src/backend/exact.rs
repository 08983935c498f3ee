//! The closed-form backend: the paper's exact analysis.
//!
//! Determinism: one-shot cells are seed-free — the result is a pure
//! function of `(n, c, path_kind, dist)`. Simple-path cells share one
//! memoized [`Evaluator`](anonroute_core::engine::simple::Evaluator) per
//! `(n, c, path_kind, lmax)` model through the runner's
//! [`EvaluatorCache`](anonroute_core::engine::EvaluatorCache) instead of
//! rebuilding the log-factorial tables per cell.
//!
//! Multi-epoch cells have no closed form — exact multi-round inference
//! over identity-correlated observation sequences is precisely the
//! regime Ando et al. show is hard — so this backend anchors epoch 1 in
//! closed form and estimates the decay with
//! [`epochs::estimate_decay`]:
//! seeded sessions whose *per-round* posteriors are still exact. The
//! session stream is salted differently from the Monte-Carlo backend's,
//! so the two engines remain independent estimates over the same
//! realized epochs.

use anonroute_core::{engine, epochs, PathKind};

use crate::backend::{session_count, CellCtx, CellMetrics, EvalBackend, Phase};
use crate::grid::EngineKind;

/// Stream separator from the Monte-Carlo backend's decay sessions.
const EXACT_DECAY_STREAM: u64 = 1;

/// Closed-form exact evaluation (the `exact` engine).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactBackend;

impl EvalBackend for ExactBackend {
    fn kind(&self) -> EngineKind {
        EngineKind::Exact
    }

    fn evaluate(&self, ctx: &CellCtx<'_>) -> Result<CellMetrics, String> {
        let evaluate = ctx.clock.phase(Phase::Evaluate);
        let analysis = match ctx.model.path_kind() {
            PathKind::Simple => {
                // one shared evaluator per model covers every strategy on it
                let ev = ctx
                    .cache
                    .evaluator(ctx.model, ctx.model.n() - 1)
                    .map_err(|e| e.to_string())?;
                ev.analyze(ctx.dist.pmf())
            }
            PathKind::Cyclic => engine::analysis(ctx.model, ctx.dist).map_err(|e| e.to_string())?,
        };
        drop(evaluate);
        if ctx.scenario.dynamics.is_one_shot() {
            return Ok(CellMetrics {
                h_star: analysis.h_star,
                normalized: analysis.normalized(ctx.model),
                mean_len: ctx.dist.mean(),
                p_exposed: Some(analysis.p_exposed),
                std_error: None,
                samples: None,
                epochs: 1,
                h_epoch1: None,
            });
        }
        let _fold = ctx.clock.phase(Phase::Fold);
        let sessions = session_count(ctx.config.mc_samples, ctx.scenario.dynamics.epochs);
        // the shared cache hands every epoch its memoized fold workspace,
        // so sweeps over one model amortize the per-epoch table builds
        let curve = epochs::estimate_decay_with(
            ctx.model,
            ctx.dist,
            &ctx.scenario.dynamics,
            sessions,
            ctx.dynamics_seed,
            ctx.seed ^ EXACT_DECAY_STREAM,
            ctx.cache,
        )
        .map_err(|e| e.to_string())?;
        let mut metrics = CellMetrics::from_decay(ctx.model, ctx.dist, &curve);
        // the anchor is free here: report the closed form, not a sample
        metrics.h_epoch1 = Some(analysis.h_star);
        Ok(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anonroute_core::engine::EvaluatorCache;
    use anonroute_core::{PathLengthDist, SystemModel};

    use crate::grid::{Scenario, StrategySpec};
    use crate::runner::CampaignConfig;

    #[test]
    fn exact_backend_uses_full_support_evaluator() {
        // the shared evaluator spans 0..=n-1 regardless of each strategy's
        // own support; H* must still match a support-sized evaluation
        let model = SystemModel::new(40, 2).unwrap();
        let cache = EvaluatorCache::new();
        let dist = PathLengthDist::uniform(2, 9).unwrap();
        let config = CampaignConfig::default();
        let scenario = Scenario {
            n: 40,
            c: 2,
            path_kind: PathKind::Simple,
            strategy: StrategySpec::Uniform(2, 9),
            dynamics: anonroute_core::EpochSchedule::one_shot(),
            engine: EngineKind::Exact,
        };
        let views = vec![anonroute_core::epochs::EpochView {
            epoch: 0,
            active: (0..40).collect(),
            compromised: vec![38, 39],
        }];
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
        let via_backend = ExactBackend.evaluate(&ctx).unwrap();
        let direct = engine::anonymity_degree(&model, &dist).unwrap();
        assert!((via_backend.h_star - direct).abs() < 1e-12);
        assert!(via_backend.p_exposed.is_some());
        assert!(via_backend.std_error.is_none());
    }
}
