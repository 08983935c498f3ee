//! The pluggable evaluation-backend layer: how a cell gets scored.
//!
//! A campaign cell is *what* to evaluate (a [`Scenario`]); an
//! [`EvalBackend`] is *how*. The four registered backends span the whole
//! fidelity spectrum over one interface:
//!
//! | engine | backend | mechanism |
//! |--------|---------|-----------|
//! | `exact` | [`exact::ExactBackend`] | closed-form analysis (shared memoized tables) |
//! | `mc` | [`monte_carlo::MonteCarloBackend`] | seeded observation sampling |
//! | `sim` | [`simulated::SimulatedBackend`] | in-process protocol simulation + Bayesian attack |
//! | `live` | [`live::LiveBackend`] | a real loopback TCP relay cluster + the same attack |
//!
//! The runner ([`crate::runner`]) is a pure scheduler: it expands the
//! grid, derives per-cell seeds, realizes the model/strategy, and hands a
//! [`CellCtx`] to whichever backend the registry returns for the cell's
//! [`EngineKind`]. It knows nothing about how any cell is scored.
//!
//! ## Determinism contract
//!
//! Every backend must be a pure function of its [`CellCtx`] — two calls
//! with equal contexts return equal [`CellMetrics`] — because the sweep
//! promises bit-identical output at any thread count and across reruns:
//!
//! * **exact** — seed-free closed form; identical across seeds too.
//! * **mc** / **sim** — all randomness flows from `ctx.seed`.
//! * **live** — route sampling, identities, handshake ephemerals, nonces,
//!   and payload junk all derive from `ctx.seed`, and the adversary's
//!   observations depend only on the trace *structure* (per-message record
//!   order equals path order by the tap's contract), so the measured `H*`
//!   is deterministic per seed even though TCP scheduling and wall-clock
//!   timestamps are not. Only `CellResult::elapsed_micros` (excluded from
//!   default artifacts) varies.
//!
//! ## Multi-epoch cells
//!
//! When a cell's [`EpochSchedule`](anonroute_core::epochs::EpochSchedule)
//! spans several rounds, the runner realizes the per-epoch views (churn,
//! rotation) from the **engine-free dynamics seed**
//! ([`crate::runner::dynamics_seed`]) so every engine scores the *same*
//! network evolution, while session/workload sampling stays on the
//! per-cell seed. Trace-producing backends run one epoch at a time over
//! the epoch's active set and feed the folded traces to
//! [`anonroute_adversary::intersection_attack`]; the analytic backends
//! sample sessions with exact per-round posteriors
//! ([`anonroute_core::epochs::estimate_decay`]). Either way the cell
//! reports the *cumulative* anonymity after the final epoch plus the
//! epoch-1 anchor.

pub mod exact;
pub mod live;
pub mod monte_carlo;
pub mod simulated;

use std::time::Instant;

use anonroute_adversary::{attack_trace_with, intersection_attack, Adversary, EpochTrace};
use anonroute_core::engine::EvaluatorCache;
use anonroute_core::epochs::{DecayCurve, EpochView};
use anonroute_core::{PathLengthDist, SampledDegree, SystemModel};
use anonroute_sim::{MsgId, Origination, TransferRecord};

use crate::grid::{EngineKind, Scenario};
use crate::runner::CampaignConfig;

/// Everything a backend may consult to score one cell. The runner
/// guarantees `model` and `dist` are already realized and validated for
/// `scenario` (including per-epoch feasibility under churn), that
/// `views` are the cell's realized epochs — derived from the engine-free
/// `dynamics_seed`, never the per-cell seed, so engine variants of one
/// scenario see the same per-epoch networks — and that `seed` is the
/// cell's derived deterministic seed.
#[derive(Debug)]
pub struct CellCtx<'a> {
    /// The cell being evaluated.
    pub scenario: &'a Scenario,
    /// The realized system model (`n`, `c`, path kind).
    pub model: &'a SystemModel,
    /// The realized path-length distribution of the cell's strategy.
    pub dist: &'a PathLengthDist,
    /// The realized epochs (active + compromised sets per round); a
    /// single trivial view for one-shot cells.
    pub views: &'a [EpochView],
    /// The cell's deterministic seed (campaign seed ⊕ grid index) —
    /// feeds session/workload sampling.
    pub seed: u64,
    /// The engine-free dynamics seed `views` were realized from; pass it
    /// wherever epochs are re-realized (e.g.
    /// [`anonroute_core::epochs::estimate_decay`]) so every engine keeps
    /// seeing the same network evolution.
    pub dynamics_seed: u64,
    /// Run-wide settings (sample counts, live-cluster sizing, …).
    pub config: &'a CampaignConfig,
    /// Shared memoized exact-evaluator tables.
    pub cache: &'a EvaluatorCache,
    /// The cell's phase clock: the backend opens its `evaluate`,
    /// `attack` and `fold` phases on it.
    pub clock: &'a PhaseClock,
}

/// Where one cell's wall-clock went, phase by phase, in microseconds.
///
/// Operator observability only: every field is wall-clock and therefore
/// **nondeterministic** — profiles ride on
/// [`CellResult`](crate::runner::CellResult), outside [`CellMetrics`],
/// and stay out of all seeded artifacts (they appear in JSONL only
/// under `--timing`, in the timings CSV, and as aggregate totals in the
/// run manifest). The four top-level phases are timed by the cell's
/// [`PhaseClock`]; for live cells `boot_us`/`traffic_us` are sub-phases
/// *inside* `evaluate_us`, so [`total_us`](PhaseProfile::total_us) sums
/// only the four top-level phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Realizing the model, strategy distribution, and epoch views.
    pub setup_us: u64,
    /// Producing the evidence: closed-form analysis, sampling, protocol
    /// simulation, or driving a live cluster.
    pub evaluate_us: u64,
    /// Scoring a produced trace with the passive adversary
    /// (trace-producing engines only).
    pub attack_us: u64,
    /// Folding multi-epoch evidence (decay estimation or the
    /// intersection adversary).
    pub fold_us: u64,
    /// Live cells: cluster boot (bind, directory, daemons serving),
    /// summed over epochs. Contained in `evaluate_us`.
    pub boot_us: u64,
    /// Live cells: first handshake to full delivery, summed over epochs.
    /// Contained in `evaluate_us`.
    pub traffic_us: u64,
}

impl PhaseProfile {
    /// Total profiled wall-clock: the four top-level phases (boot and
    /// traffic are already inside `evaluate_us`).
    pub fn total_us(&self) -> u64 {
        self.setup_us + self.evaluate_us + self.attack_us + self.fold_us
    }
}

/// A cell's four top-level phases, each traced as a `cell.*` span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// [`PhaseProfile::setup_us`], traced as `cell.setup`.
    Setup,
    /// [`PhaseProfile::evaluate_us`], traced as `cell.evaluate`.
    Evaluate,
    /// [`PhaseProfile::attack_us`], traced as `cell.attack`.
    Attack,
    /// [`PhaseProfile::fold_us`], traced as `cell.fold`.
    Fold,
}

/// One cell's phase clock: the [`PhaseProfile`] that its phase guards
/// add to. The runner owns one per cell and lends it to the backend
/// through [`CellCtx::clock`]; a cell runs on one thread, so the profile
/// sits in a `Cell`.
#[derive(Debug, Default)]
pub struct PhaseClock(std::cell::Cell<PhaseProfile>);

impl PhaseClock {
    /// Opens `phase`: its trace span starts now, and its time is added
    /// to the profile when the returned guard drops. Phases of one cell
    /// must not overlap, so their sum never exceeds the cell's wall time.
    pub(crate) fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        let name = match phase {
            Phase::Setup => "cell.setup",
            Phase::Evaluate => "cell.evaluate",
            Phase::Attack => "cell.attack",
            Phase::Fold => "cell.fold",
        };
        PhaseGuard {
            clock: self,
            phase,
            start: Instant::now(),
            _span: anonroute_obs::span(name, "campaign"),
        }
    }

    /// Adds a live cluster run's boot and traffic time, the sub-phases
    /// of `evaluate` that the relay layer measures itself.
    pub(crate) fn add_cluster_run(&self, boot_us: u64, traffic_us: u64) {
        self.update(|p| {
            p.boot_us += boot_us;
            p.traffic_us += traffic_us;
        });
    }

    /// The profile accumulated so far.
    pub(crate) fn profile(&self) -> PhaseProfile {
        self.0.get()
    }

    fn update(&self, f: impl FnOnce(&mut PhaseProfile)) {
        let mut profile = self.0.get();
        f(&mut profile);
        self.0.set(profile);
    }
}

/// An open cell phase: its `cell.*` trace span and its clock in one.
/// Dropping the guard closes the span and adds the elapsed microseconds
/// to the phase's field of the cell's [`PhaseProfile`].
#[must_use = "a phase lasts until its guard is dropped"]
pub(crate) struct PhaseGuard<'a> {
    clock: &'a PhaseClock,
    phase: Phase,
    start: Instant,
    _span: anonroute_obs::Span,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_micros() as u64;
        let phase = self.phase;
        self.clock.update(|p| {
            *match phase {
                Phase::Setup => &mut p.setup_us,
                Phase::Evaluate => &mut p.evaluate_us,
                Phase::Attack => &mut p.attack_us,
                Phase::Fold => &mut p.fold_us,
            } += us;
        });
    }
}

/// Numeric outcome of one feasible cell: a pure function of its
/// [`CellCtx`] (wall-clock lives in the cell's [`PhaseProfile`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Anonymity degree `H*` in bits (exact, estimated, or empirical,
    /// per the cell's engine). For multi-epoch cells this is the
    /// *cumulative* anonymity after the final epoch — the intersection
    /// adversary's view — which reduces to the single-round value at
    /// `epochs = 1`.
    pub h_star: f64,
    /// `h_star / log2 n`.
    pub normalized: f64,
    /// Expected path length of the realized strategy.
    pub mean_len: f64,
    /// Probability the adversary identifies the sender outright
    /// (exact one-shot engine only).
    pub p_exposed: Option<f64>,
    /// Standard error of `h_star` (sampling engines only).
    pub std_error: Option<f64>,
    /// Sample/message/session count (sampling engines only).
    pub samples: Option<usize>,
    /// Number of epochs folded into `h_star` (1 for one-shot cells).
    pub epochs: usize,
    /// The epoch-1 anchor for multi-epoch cells: the single-round value
    /// the decay starts from (closed form for the exact engine, a
    /// sampled mean otherwise). `None` for one-shot cells, where
    /// `h_star` *is* the single-round value.
    pub h_epoch1: Option<f64>,
}

impl CellMetrics {
    /// Metrics of a one-shot sampling backend, from the workspace's
    /// common estimate shape ([`anonroute_core::SampledDegree`]).
    pub fn from_sampled(model: &SystemModel, dist: &PathLengthDist, est: SampledDegree) -> Self {
        CellMetrics {
            h_star: est.h_star,
            normalized: est.h_star / model.max_entropy_bits(),
            mean_len: dist.mean(),
            p_exposed: None,
            std_error: Some(est.std_error),
            samples: Some(est.samples),
            epochs: 1,
            h_epoch1: None,
        }
    }

    /// Metrics of a multi-epoch sampling backend, from an
    /// anonymity-decay curve: `h_star` is the final cumulative mean,
    /// `h_epoch1` the curve's anchor (overridden by the exact backend
    /// with the closed form).
    pub fn from_decay(model: &SystemModel, dist: &PathLengthDist, curve: &DecayCurve) -> Self {
        let last = curve.last();
        CellMetrics {
            h_star: last.mean_entropy_bits,
            normalized: last.mean_entropy_bits / model.max_entropy_bits(),
            mean_len: dist.mean(),
            p_exposed: None,
            std_error: Some(last.std_error),
            samples: Some(last.sessions),
            epochs: curve.per_epoch.len(),
            h_epoch1: Some(curve.first().mean_entropy_bits),
        }
    }

    /// The sampling view of these metrics, when the backend produced one.
    pub fn sampled(&self) -> Option<SampledDegree> {
        Some(SampledDegree {
            h_star: self.h_star,
            std_error: self.std_error?,
            samples: self.samples?,
        })
    }
}

/// Scores a trace with the paper's passive adversary: the last `c`
/// member nodes are compromised, every delivered message's posterior is
/// computed, and the mean posterior entropy becomes the empirical `H*`.
/// The one attack-and-score path shared by every backend that produces
/// a trace (simulated and live), so their scoring can never drift:
/// `samples` is always the number of messages actually attacked. The
/// strategy's `O(n)` fold workspace comes from the cell's `cache`, so
/// cells of one `(model, strategy)` pair build it once.
pub(crate) fn attack_and_score(
    cache: &EvaluatorCache,
    model: &SystemModel,
    dist: &PathLengthDist,
    trace: &[TransferRecord],
    originations: &[Origination],
) -> Result<SampledDegree, String> {
    let n = model.n();
    let compromised: Vec<usize> = (n - model.c()..n).collect();
    let adversary = Adversary::new(n, &compromised).map_err(|e| e.to_string())?;
    let workspace = cache.workspace(model, dist).map_err(|e| {
        // worded as attack_trace words it
        anonroute_adversary::Error::BadInput(format!("posterior failed: {e}")).to_string()
    })?;
    let report = attack_trace_with(&adversary, &workspace, trace, originations)
        .map_err(|e| e.to_string())?;
    Ok(SampledDegree {
        h_star: report.empirical_h_star,
        std_error: report.std_error,
        samples: report.verdicts.len(),
    })
}

/// Sessions a multi-epoch cell runs: the engine's configured one-shot
/// message/sample budget spread across the epochs (each session sends
/// once per epoch), never below one — so multi-epoch cells cost about
/// as much as their one-shot counterparts.
pub(crate) fn session_count(budget: usize, epochs: usize) -> usize {
    (budget / epochs.max(1)).max(1)
}

/// Rewrites locally assigned message ids (`MsgId(k)` for the `k`-th
/// scheduled origination of one epoch run) into persistent session ids,
/// in both the trace and the origination labels — the correlation key
/// the intersection adversary folds across epochs.
pub(crate) fn remap_to_sessions(
    trace: &mut [TransferRecord],
    originations: &mut [Origination],
    session_of: &[MsgId],
) {
    for r in trace.iter_mut() {
        r.msg = session_of[r.msg.0 as usize];
    }
    for o in originations.iter_mut() {
        o.msg = session_of[o.msg.0 as usize];
    }
}

/// One epoch's run artifacts from a trace-producing engine, in local
/// node ids with session-id messages.
pub(crate) struct EpochRun {
    /// The epoch's local system model.
    pub model: SystemModel,
    /// Link records (local ids, session-id messages).
    pub trace: Vec<TransferRecord>,
    /// Ground-truth labels (local senders, session-id messages).
    pub originations: Vec<Origination>,
}

/// Scores a multi-epoch cell with the intersection adversary: one
/// [`EpochRun`] per realized view, folded into cumulative per-session
/// posteriors. The shared path of the simulated and live backends, so
/// their multi-round scoring can never drift.
pub(crate) fn intersect_and_score(
    ctx: &CellCtx<'_>,
    runs: &[EpochRun],
) -> Result<CellMetrics, String> {
    debug_assert_eq!(runs.len(), ctx.views.len());
    let rounds: Vec<EpochTrace<'_>> = ctx
        .views
        .iter()
        .zip(runs)
        .map(|(view, run)| EpochTrace {
            view,
            model: &run.model,
            dist: ctx.dist,
            trace: &run.trace,
            originations: &run.originations,
        })
        .collect();
    let outcome = intersection_attack(ctx.model.n(), &rounds).map_err(|e| e.to_string())?;
    Ok(CellMetrics::from_decay(ctx.model, ctx.dist, &outcome.decay))
}

/// One way of scoring a cell. Implementations must uphold the module's
/// determinism contract and must not share mutable state across cells
/// (beyond caches whose values are pure functions of their key).
pub trait EvalBackend: Send + Sync {
    /// The engine axis value this backend serves.
    fn kind(&self) -> EngineKind;

    /// Scores one cell.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for infeasible or failed cells;
    /// the runner records it in `CellResult::outcome` without aborting
    /// the sweep.
    fn evaluate(&self, ctx: &CellCtx<'_>) -> Result<CellMetrics, String>;
}

/// The registry: every engine kind's backend, in [`EngineKind::ALL`]
/// order.
static BACKENDS: [&dyn EvalBackend; 4] = [
    &exact::ExactBackend,
    &monte_carlo::MonteCarloBackend,
    &simulated::SimulatedBackend,
    &live::LiveBackend,
];

/// Returns the registered backend for `kind`.
pub fn backend(kind: EngineKind) -> &'static dyn EvalBackend {
    *BACKENDS
        .iter()
        .find(|b| b.kind() == kind)
        .expect("every EngineKind has a registered backend")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_engine_kind() {
        for kind in EngineKind::ALL {
            assert_eq!(backend(kind).kind(), kind);
        }
        assert_eq!(BACKENDS.len(), EngineKind::ALL.len());
    }

    #[test]
    fn sampled_round_trip() {
        let model = SystemModel::new(20, 1).unwrap();
        let dist = PathLengthDist::fixed(3);
        let est = SampledDegree {
            h_star: 3.5,
            std_error: 0.04,
            samples: 500,
        };
        let metrics = CellMetrics::from_sampled(&model, &dist, est);
        assert_eq!(metrics.sampled(), Some(est));
        assert_eq!(metrics.p_exposed, None);
        assert!((metrics.normalized - 3.5 / 20f64.log2()).abs() < 1e-12);
        assert_eq!(metrics.mean_len, 3.0);
    }

    #[test]
    fn phase_guards_add_their_time_to_their_own_phase() {
        let clock = PhaseClock::default();
        {
            let _evaluate = clock.phase(Phase::Evaluate);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(clock.phase(Phase::Evaluate));
        clock.add_cluster_run(5, 7);
        let p = clock.profile();
        assert!(p.evaluate_us >= 2_000, "{p:?}");
        assert_eq!((p.setup_us, p.attack_us, p.fold_us), (0, 0, 0));
        assert_eq!((p.boot_us, p.traffic_us), (5, 7));
        assert_eq!(p.total_us(), p.evaluate_us, "boot is inside evaluate");
    }
}
