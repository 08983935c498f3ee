//! # anonroute-campaign
//!
//! Declarative scenario grids and a parallel, deterministic sweep runner
//! for the `anonroute` workspace — the substrate that turns "regenerate
//! one figure" into "evaluate any cartesian family of scenarios".
//!
//! A [`ScenarioGrid`] spans eight axes:
//!
//! * system size `n`,
//! * compromised count `c`,
//! * [`PathKind`](anonroute_core::PathKind) (simple / cyclic),
//! * strategy family ([`StrategySpec`]: fixed / uniform / two-point /
//!   geometric / optimal),
//! * scoring engine ([`EngineKind`]: exact closed form, Monte-Carlo
//!   estimation, a full protocol simulation attacked by the passive
//!   adversary, or a **live loopback TCP relay cluster** attacked
//!   through its per-link tap),
//! * and the multi-round dynamics axes — epoch count,
//!   compromised-set [`RotationPolicy`], and [`ChurnModel`] — under
//!   which every engine scores the *cumulative* anonymity the long-term
//!   intersection adversary achieves
//!   ([`anonroute_core::epochs`]).
//!
//! Scoring is pluggable: each engine kind maps to an
//! [`EvalBackend`] implementation in the
//! [`backend`] registry, and the scheduler ([`runner`]) knows nothing
//! about how cells are scored — one grid can span closed-form math and
//! genuine TCP traffic.
//!
//! [`run`] executes the expanded grid on a rayon thread pool. Exact cells
//! share memoized
//! [`Evaluator`](anonroute_core::engine::simple::Evaluator) tables through
//! an [`EvaluatorCache`](anonroute_core::engine::EvaluatorCache) keyed by
//! `(n, c, path_kind, lmax)`, and every cell derives its RNG seed from
//! the campaign seed and its grid index — so results are bit-for-bit
//! identical at any thread count (live cells: per seed; see the
//! determinism contract in [`backend`]). [`report`] renders JSON Lines
//! and CSV; [`manifest`] writes a machine-readable run manifest next to
//! them; [`spec`] parses grids from compact flag values or a TOML-subset
//! file; [`settings`] is the one table of run settings those and the
//! CLI share. [`progress`] carries live sweep progress to a stderr ticker and
//! the `anonroute-obs` metrics endpoint — strictly write-only from the
//! runner's side, so observability never perturbs results.
//!
//! ## Quickstart
//!
//! ```
//! use anonroute_campaign::{run, CampaignConfig, EngineKind, ScenarioGrid, StrategySpec};
//!
//! let grid = ScenarioGrid::new()
//!     .ns([50, 100])
//!     .cs([1, 2])
//!     .strategies([
//!         StrategySpec::Fixed(5),
//!         StrategySpec::Uniform(2, 8),
//!     ])
//!     .engines([EngineKind::Exact]);
//!
//! let outcome = run(&grid, &CampaignConfig::default());
//! assert_eq!(outcome.cells.len(), 8);
//! assert_eq!(outcome.error_count(), 0);
//! // paper anchor: at n = 100, c = 1 the uniform spread beats F(5)
//! let h = |i: usize| outcome.cells[i].outcome.as_ref().unwrap().h_star;
//! assert!(h(5) > h(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod grid;
pub mod manifest;
pub mod progress;
pub mod report;
pub mod runner;
pub mod settings;
pub mod spec;

pub use anonroute_core::epochs::{ChurnModel, EpochSchedule, RotationPolicy};
pub use anonroute_obs::{SweepControl, SweepState};
pub use backend::{CellCtx, CellMetrics, EvalBackend, PhaseClock, PhaseProfile};
pub use grid::{parse_path_kind, EngineKind, Scenario, ScenarioGrid, StrategySpec};
pub use manifest::{render_manifest, validate_manifest, write_manifest};
pub use progress::{ObsSession, SweepProgress};
pub use runner::{
    cell_seed, run, run_controlled, CampaignConfig, CampaignOutcome, CellResult, SweepStatus,
};
pub use settings::{RunSetting, RUN_SETTINGS};
