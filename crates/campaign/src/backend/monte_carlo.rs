//! The Monte-Carlo backend: seeded observation sampling.
//!
//! Determinism: every drawn observation flows from `ctx.seed` through
//! [`engine::estimate_anonymity_degree`]'s own `StdRng` stream (one-shot
//! cells) or [`epochs::estimate_decay`]'s session stream (multi-epoch
//! cells), so equal contexts estimate the identical value.

use anonroute_core::{engine, epochs, SampledDegree};

use crate::backend::{session_count, CellCtx, CellMetrics, EvalBackend, Phase};
use crate::grid::EngineKind;

/// Stream separator from the exact backend's decay sessions.
const MC_DECAY_STREAM: u64 = 2;

/// Seeded Monte-Carlo estimation (the `mc` engine); the sample count
/// comes from `CampaignConfig::mc_samples` (spread over the epochs of a
/// multi-round cell).
#[derive(Debug, Clone, Copy, Default)]
pub struct MonteCarloBackend;

impl EvalBackend for MonteCarloBackend {
    fn kind(&self) -> EngineKind {
        EngineKind::MonteCarlo
    }

    fn evaluate(&self, ctx: &CellCtx<'_>) -> Result<CellMetrics, String> {
        if !ctx.scenario.dynamics.is_one_shot() {
            let _fold = ctx.clock.phase(Phase::Fold);
            let sessions = session_count(ctx.config.mc_samples, ctx.scenario.dynamics.epochs);
            // shares per-epoch fold workspaces through the campaign cache
            let curve = epochs::estimate_decay_with(
                ctx.model,
                ctx.dist,
                &ctx.scenario.dynamics,
                sessions,
                ctx.dynamics_seed,
                ctx.seed ^ MC_DECAY_STREAM,
                ctx.cache,
            )
            .map_err(|e| e.to_string())?;
            return Ok(CellMetrics::from_decay(ctx.model, ctx.dist, &curve));
        }
        let _evaluate = ctx.clock.phase(Phase::Evaluate);
        let est =
            engine::estimate_anonymity_degree(ctx.model, ctx.dist, ctx.config.mc_samples, ctx.seed)
                .map_err(|e| e.to_string())?;
        Ok(CellMetrics::from_sampled(
            ctx.model,
            ctx.dist,
            SampledDegree {
                h_star: est.mean,
                std_error: est.std_error,
                samples: est.samples,
            },
        ))
    }
}
