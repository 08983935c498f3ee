//! The parallel sweep scheduler: how a [`ScenarioGrid`] gets executed.
//!
//! The runner contains **no evaluation code**: it expands the grid,
//! derives per-cell seeds, realizes each cell's model and strategy, and
//! dispatches a [`CellCtx`] to whichever
//! [`EvalBackend`](crate::backend::EvalBackend) the registry returns for
//! the cell's engine. How a cell is scored — closed form, sampling,
//! in-process simulation, or a live TCP cluster — is entirely the
//! backend layer's business ([`crate::backend`]).
//!
//! Design invariants:
//!
//! * **Determinism** — every cell derives its RNG seed from the campaign
//!   seed and the cell's grid index (SplitMix64 mix), and cells never
//!   share mutable state other than the [`EvaluatorCache`], whose values
//!   are pure functions of the key. A grid therefore produces bit-for-bit
//!   identical numeric results at any thread count.
//! * **Shared tables** — exact-engine cells for the same
//!   `(n, c, path_kind, lmax)` model reuse one memoized
//!   [`Evaluator`](anonroute_core::engine::simple::Evaluator) through the
//!   cache instead of rebuilding the log-factorial tables per cell, and
//!   cells of one `optimal` strategy share one optimizer solve.
//! * **Isolation** — an infeasible cell (e.g. `F(7)` in a 5-node system)
//!   records an error string; it never aborts the sweep. Live cells run
//!   inline too: the relay layer puts a deadline on every socket call, so
//!   even a wedged cluster returns, and degrades to an error.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anonroute_core::engine::{CacheStats, EvaluatorCache};
use anonroute_core::epochs::EpochView;
use anonroute_core::SystemModel;
use anonroute_obs::{trace, Checkpoint, SweepControl, SweepState, TraceSink};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

use crate::backend::{self, CellCtx, CellMetrics, Phase, PhaseClock, PhaseProfile};
use crate::grid::{EngineKind, Scenario, ScenarioGrid};
use crate::progress::{ObsSession, SweepProgress};

/// Execution settings of one campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Worker threads; `0` auto-detects the machine's parallelism.
    pub threads: usize,
    /// Campaign seed; each cell derives its own stream from it.
    pub seed: u64,
    /// Sample count for Monte-Carlo engine cells.
    pub mc_samples: usize,
    /// Message count for simulated-attack engine cells.
    pub sim_messages: usize,
    /// Largest system size a simulated cell may build. The discrete-event
    /// engine itself is happy at 10⁶ nodes, but each sim cell still
    /// builds `n` protocol nodes, each with its own copy of the strategy,
    /// so an accidental `--n 10000000` sweep should fail fast with a clear
    /// message rather than thrash.
    pub sim_max_n: usize,
    /// Message count for live TCP engine cells.
    pub live_messages: usize,
    /// Largest system size a live cell may boot (each live cell costs
    /// `n` relay listeners plus worker threads and sockets).
    pub live_max_n: usize,
    /// Fixed relay-cell size for live cells, in bytes (bounds the
    /// longest onion route at ~64 bytes of overhead per hop).
    pub live_cell_size: usize,
    /// Emit a ~1 Hz progress ticker (done/errors/in-flight/ETA) on
    /// stderr while the sweep runs. Observability only — never touches
    /// the evaluation path, so artifacts stay byte-identical per seed.
    pub progress: bool,
    /// Serve `/metrics`, `/healthz`, and `/readyz` on this address for
    /// the duration of the sweep (port 0 picks a free port; the bound
    /// address is announced on stderr). `None` disables the endpoint.
    pub metrics_addr: Option<SocketAddr>,
    /// Write a Chrome-trace/Perfetto JSON file of the sweep's spans to
    /// this path when the run finishes. Tracing is a write-only sink:
    /// seeded artifacts are byte-identical with it on or off.
    pub trace_out: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            threads: 0,
            seed: 7,
            mc_samples: 20_000,
            sim_messages: 1_500,
            sim_max_n: 1_000_000,
            live_messages: 300,
            live_max_n: 64,
            live_cell_size: 1_024,
            progress: false,
            metrics_addr: None,
            trace_out: None,
        }
    }
}

/// How a sweep ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepStatus {
    /// Every scheduled cell ran.
    Completed,
    /// An operator drained the sweep: in-flight cells finished, the rest
    /// were skipped.
    Drained,
    /// An operator aborted the sweep (same scheduling consequence as a
    /// drain — threads cannot be killed — recorded as an abort).
    Aborted,
}

impl SweepStatus {
    /// Stable lowercase label (manifests, summaries).
    pub fn as_str(self) -> &'static str {
        match self {
            SweepStatus::Completed => "completed",
            SweepStatus::Drained => "drained",
            SweepStatus::Aborted => "aborted",
        }
    }
}

/// One evaluated cell: scenario, derived seed, wall time, and outcome.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Index of the cell in [`ScenarioGrid::cells`] order.
    pub index: usize,
    /// The evaluated scenario.
    pub scenario: Scenario,
    /// The cell's derived RNG seed.
    pub seed: u64,
    /// Wall-clock time spent on this cell, in microseconds.
    pub elapsed_micros: u64,
    /// Where [`elapsed_micros`](CellResult::elapsed_micros) went, phase
    /// by phase (nondeterministic, like the elapsed time). Artifacts
    /// report it for ok cells only.
    pub profile: PhaseProfile,
    /// Metrics, or the reason the cell was infeasible.
    pub outcome: Result<CellMetrics, String>,
}

/// A completed campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Per-cell results, in grid order. A drained/aborted sweep carries
    /// only the cells that actually ran.
    pub cells: Vec<CellResult>,
    /// Total wall-clock time of the sweep.
    pub wall: Duration,
    /// Worker threads actually used.
    pub threads: usize,
    /// Evaluator-cache hit/miss counters.
    pub cache: CacheStats,
    /// Optimal-strategy hit/miss counters: `misses` problems solved,
    /// `hits` cells that reused one of those solves.
    pub strategies: CacheStats,
    /// How the sweep ended (completed, drained, or aborted).
    pub status: SweepStatus,
    /// Cells skipped because the sweep drained or aborted first.
    pub skipped: usize,
}

impl CampaignOutcome {
    /// Number of cells that produced metrics.
    pub fn ok_count(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// Number of infeasible/error cells.
    pub fn error_count(&self) -> usize {
        self.cells.len() - self.ok_count()
    }

    /// Total of the per-cell wall times (exceeds `wall` when parallel).
    pub fn cpu_micros(&self) -> u64 {
        self.cells.iter().map(|c| c.elapsed_micros).sum()
    }
}

/// Runs every cell of `grid` under `config` and returns results in grid
/// order. Equivalent to [`run_controlled`] with a fresh (never touched)
/// control handle.
pub fn run(grid: &ScenarioGrid, config: &CampaignConfig) -> CampaignOutcome {
    run_controlled(grid, config, &Arc::new(SweepControl::new()))
}

/// [`run`] under an operator control handle: the runner polls
/// [`SweepControl::checkpoint`] once per cell, *before* committing to
/// it, so pause merely delays the same deterministic schedule and
/// drain/abort skip whole cells — every cell that does run produces
/// byte-identical output. The handle is also what the obs server's
/// `POST /control/*` routes act on when `metrics_addr` is set.
pub fn run_controlled(
    grid: &ScenarioGrid,
    config: &CampaignConfig,
    control: &Arc<SweepControl>,
) -> CampaignOutcome {
    let scenarios = grid.cells();
    let pool = ThreadPoolBuilder::new()
        .num_threads(effective_threads(config, &scenarios))
        .build()
        .expect("thread pool construction is infallible");
    let threads = pool.current_num_threads();
    let cache = Arc::new(EvaluatorCache::new());
    if config.trace_out.is_some() {
        let sink = TraceSink::global();
        sink.drain(); // discard stale events from any earlier sweep
        sink.enable();
    }
    // progress is tracked unconditionally (a few atomic stores per cell);
    // the ticker thread and the /metrics endpoint only exist on request
    let progress = Arc::new(SweepProgress::new(scenarios.len()));
    let _obs = ObsSession::start(config, &progress, control);
    let start = Instant::now();
    let sweep_span = trace::span_with(
        "campaign.sweep",
        "campaign",
        &[("cells", scenarios.len() as u64)],
    );
    let maybe_cells: Vec<Option<CellResult>> = pool.install(|| {
        scenarios
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(index, scenario)| {
                if control.checkpoint() == Checkpoint::Skip {
                    progress.cell_skipped();
                    return None;
                }
                let seed = cell_seed(config.seed, index);
                progress.cell_started(scenario.engine);
                let cell_start = Instant::now();
                let cell_span = trace::span_with(
                    "campaign.cell",
                    "campaign",
                    &[
                        ("cell", index as u64),
                        ("epochs", scenario.dynamics.epochs as u64),
                    ],
                );
                let clock = PhaseClock::default();
                let outcome = run_cell(&scenario, seed, config, &cache, &clock);
                drop(cell_span);
                // rayon pool threads outlive the sweep; hand buffered
                // events to the sink at this natural quiescence point
                trace::flush();
                let elapsed = cell_start.elapsed();
                progress.cell_finished(scenario.engine, outcome.is_ok(), elapsed);
                Some(CellResult {
                    index,
                    scenario,
                    seed,
                    elapsed_micros: elapsed.as_micros() as u64,
                    profile: clock.profile(),
                    outcome,
                })
            })
            .collect()
    });
    let skipped = maybe_cells.iter().filter(|c| c.is_none()).count();
    let cells: Vec<CellResult> = maybe_cells.into_iter().flatten().collect();
    let status = match control.state() {
        SweepState::Aborted => SweepStatus::Aborted,
        SweepState::Draining => SweepStatus::Drained,
        SweepState::Running | SweepState::Paused => SweepStatus::Completed,
    };
    drop(sweep_span);
    trace::flush();
    let outcome = CampaignOutcome {
        cells,
        wall: start.elapsed(),
        threads,
        cache: cache.stats(),
        strategies: cache.strategy_stats(),
        status,
        skipped,
    };
    if let Some(path) = &config.trace_out {
        let sink = TraceSink::global();
        sink.disable();
        let rendered = trace::render_chrome_trace(&sink.drain());
        if let Err(e) = std::fs::write(path, rendered) {
            eprintln!("[campaign] failed to write trace {}: {e}", path.display());
        }
    }
    outcome
}

/// Below this many cells, an auto-threaded (`threads == 0`) sweep of
/// pure closed-form cells runs serially: exact cells finish in
/// microseconds, so spawning a worker pool costs more than it saves
/// (`BENCH_campaign.json`'s 90-cell sweep was ~11% *slower* on the auto
/// pool than on one thread). Output is unaffected either way — cells are
/// seeded independently of the schedule — and an explicit `--threads`
/// value is always respected.
const SERIAL_SWEEP_MAX_CELLS: usize = 128;

/// The worker-count request for this sweep: `config.threads`, except
/// that small all-exact auto-threaded grids collapse to one thread.
fn effective_threads(config: &CampaignConfig, scenarios: &[Scenario]) -> usize {
    let all_exact = scenarios.iter().all(|s| s.engine == EngineKind::Exact);
    if config.threads == 0 && scenarios.len() < SERIAL_SWEEP_MAX_CELLS && all_exact {
        1
    } else {
        config.threads
    }
}

/// Derives the deterministic per-cell seed: a SplitMix64 mix of the
/// campaign seed and the cell index.
pub fn cell_seed(campaign_seed: u64, index: usize) -> u64 {
    let mut z = campaign_seed.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed the epoch views (churn draws, rotation resampling)
/// realize from: a hash of the campaign seed and the scenario identity
/// *without* its engine. Engine variants of one multi-round scenario
/// therefore score the *same* realized network evolution — the
/// cross-engine conformance the dynamics layer promises — while their
/// per-cell seeds keep session sampling independent.
pub fn dynamics_seed(campaign_seed: u64, scenario: &Scenario) -> u64 {
    // FNV-1a over the engine-free identity text, mixed with the seed
    let identity = format!(
        "{} {} {} {} {}",
        scenario.n, scenario.c, scenario.path_kind, scenario.strategy, scenario.dynamics
    );
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ campaign_seed;
    for byte in identity.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Schedules one cell: realize the model, strategy, and epoch views
/// (the engine-agnostic feasibility gate — including per-epoch strategy
/// feasibility under churn), then hand the context to the registered
/// backend for the cell's engine. Every phase is timed on `clock`.
fn run_cell(
    scenario: &Scenario,
    seed: u64,
    config: &CampaignConfig,
    cache: &EvaluatorCache,
    clock: &PhaseClock,
) -> Result<CellMetrics, String> {
    let setup = clock.phase(Phase::Setup);
    let model = SystemModel::with_path_kind(scenario.n, scenario.c, scenario.path_kind)
        .map_err(|e| e.to_string())?;
    let dist = scenario.strategy.realize_in(&model, cache)?;
    // every engine scoring this scenario must see the same realized
    // epochs, so the views derive from the engine-free dynamics seed —
    // never from the per-cell seed, which feeds session sampling only.
    // One-shot cells keep the trivial full view so the dynamics guard
    // (`n >= c + 2`) cannot reject previously valid degenerate cells.
    let dyn_seed = dynamics_seed(config.seed, scenario);
    let views = if scenario.dynamics.is_one_shot() {
        vec![EpochView {
            epoch: 0,
            active: (0..scenario.n).collect(),
            compromised: (scenario.n - scenario.c..scenario.n).collect(),
        }]
    } else {
        let views = scenario
            .dynamics
            .realize(scenario.n, scenario.c, dyn_seed)
            .map_err(|e| e.to_string())?;
        for view in &views {
            let local = SystemModel::with_path_kind(view.n(), scenario.c, scenario.path_kind)
                .map_err(|e| e.to_string())?;
            local
                .validate_dist(&dist)
                .map_err(|e| format!("epoch {}: {e}", view.epoch + 1))?;
        }
        views
    };
    drop(setup);
    let metrics = backend::backend(scenario.engine).evaluate(&CellCtx {
        scenario,
        model: &model,
        dist: &dist,
        views: &views,
        seed,
        dynamics_seed: dyn_seed,
        config,
        cache,
        clock,
    })?;
    finite(metrics)
}

/// Turns a cell whose `h_star`, `normalized`, `p_exposed` or `h_epoch1`
/// is present but not finite into an error that names the field: the
/// JSONL would otherwise write the value as `null` under `"status":"ok"`.
fn finite(metrics: CellMetrics) -> Result<CellMetrics, String> {
    let fields = [
        ("h_star", Some(metrics.h_star)),
        ("normalized", Some(metrics.normalized)),
        ("p_exposed", metrics.p_exposed),
        ("h_epoch1", metrics.h_epoch1),
    ];
    for (name, value) in fields {
        if let Some(v) = value.filter(|v| !v.is_finite()) {
            return Err(format!("{name} is not finite ({v})"));
        }
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{EngineKind, ScenarioGrid, StrategySpec};
    use anonroute_core::{engine, PathKind, SystemModel};

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid::new().ns([20, 30]).cs([1, 2]).strategies([
            StrategySpec::Fixed(3),
            StrategySpec::Uniform(1, 6),
            StrategySpec::Geometric {
                forward_prob: 0.6,
                lmax: 12,
            },
        ])
    }

    #[test]
    fn exact_cells_match_the_direct_engine() {
        let outcome = run(&small_grid(), &CampaignConfig::default());
        assert_eq!(outcome.cells.len(), 12);
        assert_eq!(outcome.error_count(), 0);
        for cell in &outcome.cells {
            let model = SystemModel::new(cell.scenario.n, cell.scenario.c).unwrap();
            let dist = cell.scenario.strategy.realize(&model).unwrap();
            let expect = engine::anonymity_degree(&model, &dist).unwrap();
            let got = cell.outcome.as_ref().unwrap().h_star;
            assert!(
                (got - expect).abs() < 1e-12,
                "{}: {got} vs {expect}",
                cell.scenario
            );
        }
    }

    #[test]
    fn exact_cells_bit_equal_the_engine_at_large_c() {
        // the shared evaluator spans 0..=n-1, so the class pass must stop
        // at the strategy's support to stay finite at c in the hundreds
        let grid = ScenarioGrid::new()
            .ns([2000, 65_000])
            .cs([1, 100, 700, 1000])
            .strategies([StrategySpec::Uniform(1, 6)]);
        let outcome = run(&grid, &CampaignConfig::default());
        assert_eq!(outcome.cells.len(), 8);
        assert_eq!(outcome.error_count(), 0);
        for cell in &outcome.cells {
            let model = SystemModel::new(cell.scenario.n, cell.scenario.c).unwrap();
            let dist = cell.scenario.strategy.realize(&model).unwrap();
            let expect = engine::analysis(&model, &dist).unwrap();
            let got = cell.outcome.as_ref().unwrap();
            assert!(got.h_star.is_finite(), "{}", cell.scenario);
            assert_eq!(
                got.h_star.to_bits(),
                expect.h_star.to_bits(),
                "{}",
                cell.scenario
            );
            assert_eq!(
                got.p_exposed.map(f64::to_bits),
                Some(expect.p_exposed.to_bits())
            );
            assert_eq!(
                got.normalized.to_bits(),
                expect.normalized(&model).to_bits()
            );
        }
    }

    #[test]
    fn non_finite_metrics_become_error_cells() {
        let ok = CellMetrics {
            h_star: 2.5,
            normalized: 0.5,
            mean_len: 3.0,
            p_exposed: Some(0.1),
            std_error: None,
            samples: None,
            epochs: 1,
            h_epoch1: None,
        };
        assert_eq!(finite(ok), Ok(ok));
        let cases = [
            (
                CellMetrics {
                    h_star: f64::NAN,
                    ..ok
                },
                "h_star is not finite (NaN)",
            ),
            (
                CellMetrics {
                    normalized: f64::INFINITY,
                    ..ok
                },
                "normalized is not finite (inf)",
            ),
            (
                CellMetrics {
                    p_exposed: Some(f64::NAN),
                    ..ok
                },
                "p_exposed is not finite (NaN)",
            ),
            (
                CellMetrics {
                    h_epoch1: Some(f64::NEG_INFINITY),
                    epochs: 4,
                    ..ok
                },
                "h_epoch1 is not finite (-inf)",
            ),
        ];
        for (metrics, message) in cases {
            assert_eq!(finite(metrics), Err(message.to_string()));
        }
    }

    #[test]
    fn evaluator_cache_is_shared_across_cells() {
        let outcome = run(&small_grid(), &CampaignConfig::default());
        // 4 models × 3 strategies: one build per model, the rest hit
        assert_eq!(outcome.cache.misses, 4);
        assert_eq!(outcome.cache.hits, 8);
        // no optimal strategy, no solve, and no summary line about it
        assert_eq!(outcome.strategies, CacheStats::default());
        assert!(!crate::report::summary(&outcome).contains("optimal strategies"));
    }

    #[test]
    fn optimal_strategies_are_solved_once_per_sweep() {
        // the paper's flow: each optimal strategy scored exactly and by
        // sampling — four cells, two distinct problems
        let grid = ScenarioGrid::new()
            .ns([100])
            .cs([1])
            .strategies([
                StrategySpec::Optimal { mean: None },
                StrategySpec::Optimal { mean: Some(6.0) },
            ])
            .engines([EngineKind::Exact, EngineKind::MonteCarlo]);
        let config = |threads| CampaignConfig {
            threads,
            mc_samples: 2_000,
            ..CampaignConfig::default()
        };
        let serial = run(&grid, &config(1));
        let parallel = run(&grid, &config(4));
        for outcome in [&serial, &parallel] {
            assert_eq!(outcome.error_count(), 0);
            assert_eq!(outcome.strategies, CacheStats { hits: 2, misses: 2 });
        }
        let summary = crate::report::summary(&serial);
        assert!(
            summary.contains("optimal strategies: 2 solved, 2 reused"),
            "{summary}"
        );
        assert_eq!(
            crate::report::render_jsonl(&serial, false),
            crate::report::render_jsonl(&parallel, false)
        );
        assert_eq!(
            crate::report::render_csv(&serial),
            crate::report::render_csv(&parallel)
        );
        // a reused solve is the distribution a fresh solve returns
        let model = SystemModel::new(100, 1).unwrap();
        let fresh = StrategySpec::Optimal { mean: Some(6.0) }
            .realize(&model)
            .unwrap();
        let exact = serial.cells[2].outcome.as_ref().unwrap();
        let expect = engine::anonymity_degree(&model, &fresh).unwrap();
        assert!(
            (exact.h_star - expect).abs() < 1e-12,
            "{} vs {expect}",
            exact.h_star
        );
    }

    #[test]
    fn infeasible_cells_report_errors_without_aborting() {
        let grid = ScenarioGrid::new()
            .ns([5])
            .cs([1])
            .strategies([StrategySpec::Fixed(2), StrategySpec::Fixed(7)]);
        let outcome = run(&grid, &CampaignConfig::default());
        assert_eq!(outcome.ok_count(), 1);
        assert_eq!(outcome.error_count(), 1);
        assert!(outcome.cells[1]
            .outcome
            .as_ref()
            .unwrap_err()
            .contains("support"));
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let a: Vec<u64> = (0..16).map(|i| cell_seed(7, i)).collect();
        let b: Vec<u64> = (0..16).map(|i| cell_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
    }

    #[test]
    fn monte_carlo_cells_agree_with_exact() {
        let grid = ScenarioGrid::new()
            .ns([25])
            .cs([1])
            .strategies([StrategySpec::Uniform(1, 6)])
            .engines([EngineKind::Exact, EngineKind::MonteCarlo]);
        let config = CampaignConfig {
            mc_samples: 30_000,
            ..CampaignConfig::default()
        };
        let outcome = run(&grid, &config);
        let exact = outcome.cells[0].outcome.as_ref().unwrap();
        let mc = outcome.cells[1].outcome.as_ref().unwrap();
        let se = mc.std_error.unwrap();
        assert!(
            (mc.h_star - exact.h_star).abs() <= 4.0 * se + 1e-9,
            "mc {} vs exact {} (se {se})",
            mc.h_star,
            exact.h_star
        );
    }

    #[test]
    fn simulated_cells_agree_with_exact_for_onion_and_crowds() {
        let grid = ScenarioGrid::new()
            .ns([15])
            .cs([1])
            .path_kinds([PathKind::Simple, PathKind::Cyclic])
            .strategies([StrategySpec::Geometric {
                forward_prob: 0.5,
                lmax: 10,
            }])
            .engines([EngineKind::Exact, EngineKind::Simulated]);
        let config = CampaignConfig {
            sim_messages: 1_200,
            ..CampaignConfig::default()
        };
        let outcome = run(&grid, &config);
        assert_eq!(outcome.error_count(), 0);
        for pair in outcome.cells.chunks(2) {
            let exact = pair[0].outcome.as_ref().unwrap();
            let sim = pair[1].outcome.as_ref().unwrap();
            let se = sim.std_error.unwrap();
            assert!(
                (sim.h_star - exact.h_star).abs() <= 5.0 * se + 1e-9,
                "{}: sim {} vs exact {} (se {se})",
                pair[1].scenario,
                sim.h_star,
                exact.h_star
            );
        }
    }

    #[test]
    fn serial_fallback_is_byte_identical_to_a_parallel_sweep() {
        // small_grid is 12 all-exact cells, below SERIAL_SWEEP_MAX_CELLS:
        // auto threading (0) collapses to one worker, an explicit count
        // does not — and the rendered report must not notice
        let auto = CampaignConfig::default();
        assert_eq!(effective_threads(&auto, &small_grid().cells()), 1);
        let explicit = CampaignConfig {
            threads: 4,
            ..CampaignConfig::default()
        };
        assert_eq!(effective_threads(&explicit, &small_grid().cells()), 4);
        let serial = run(&small_grid(), &auto);
        let parallel = run(&small_grid(), &explicit);
        assert_eq!(serial.threads, 1);
        assert_eq!(parallel.threads, 4);
        assert_eq!(
            crate::report::render_csv(&serial),
            crate::report::render_csv(&parallel)
        );
    }

    #[test]
    fn auto_threading_is_kept_for_non_exact_or_large_sweeps() {
        // a simulated engine in the mix disables the serial fallback …
        let config = CampaignConfig::default();
        let mixed = small_grid().engines([EngineKind::Exact, EngineKind::Simulated]);
        assert_eq!(effective_threads(&config, &mixed.cells()), 0);
        // … and so does an all-exact grid at or above the threshold
        let wide = ScenarioGrid::new()
            .ns((20..150).collect::<Vec<_>>())
            .cs([1])
            .strategies([StrategySpec::Fixed(3)]);
        assert!(wide.cells().len() >= SERIAL_SWEEP_MAX_CELLS);
        assert_eq!(effective_threads(&config, &wide.cells()), 0);
    }

    #[test]
    fn simulated_cyclic_requires_geometric() {
        let grid = ScenarioGrid::new()
            .ns([10])
            .cs([1])
            .path_kinds([PathKind::Cyclic])
            .strategies([StrategySpec::Fixed(3)])
            .engines([EngineKind::Simulated]);
        let outcome = run(&grid, &CampaignConfig::default());
        assert_eq!(outcome.error_count(), 1);
    }

    #[test]
    fn a_failing_live_cluster_is_a_cell_error_not_an_abort() {
        // a 160-byte cell carries one hop of an 8-byte payload but not
        // three: the fixed:3 cell's cluster boots, then its client
        // rejects the strategy
        let grid = ScenarioGrid::new()
            .ns([4])
            .cs([1])
            .strategies([StrategySpec::Fixed(1), StrategySpec::Fixed(3)])
            .engines([EngineKind::Live]);
        let config = CampaignConfig {
            live_messages: 10,
            live_cell_size: 160,
            ..CampaignConfig::default()
        };
        let outcome = run(&grid, &config);
        assert_eq!(outcome.status, SweepStatus::Completed);
        assert_eq!(outcome.error_count(), 1);
        assert!(outcome.cells[0].outcome.is_ok(), "{:?}", outcome.cells[0]);
        let err = outcome.cells[1].outcome.as_ref().unwrap_err();
        assert!(err.contains("cannot carry 3 hops"), "{err}");
    }
}
