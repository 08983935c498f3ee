//! One grid across all four evaluation backends — closed-form math to
//! genuine TCP traffic — pinning that every sampling backend agrees with
//! the exact engine within its std-error bound, deterministically per
//! seed.

use anonroute_campaign::{
    backend, report, run, CampaignConfig, EngineKind, ScenarioGrid, StrategySpec,
};

fn four_engine_grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .ns([10])
        .cs([1])
        .strategies([StrategySpec::Uniform(1, 3)])
        .engines(EngineKind::ALL)
}

fn config() -> CampaignConfig {
    CampaignConfig {
        mc_samples: 20_000,
        sim_messages: 800,
        live_messages: 250,
        seed: 2026,
        ..CampaignConfig::default()
    }
}

#[test]
fn all_four_engines_agree_on_one_grid() {
    let outcome = run(&four_engine_grid(), &config());
    assert_eq!(outcome.cells.len(), 4);
    assert_eq!(
        outcome.error_count(),
        0,
        "{:?}",
        outcome
            .cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().err())
            .collect::<Vec<_>>()
    );
    let exact = outcome.cells[0].outcome.as_ref().unwrap();
    assert_eq!(outcome.cells[0].scenario.engine, EngineKind::Exact);
    assert!(exact.std_error.is_none(), "exact cells are not sampled");
    for cell in &outcome.cells[1..] {
        let metrics = cell.outcome.as_ref().unwrap();
        let est = metrics.sampled().expect("sampling engines report errors");
        assert!(
            est.agrees_with(exact.h_star, 5.0),
            "{}: {est} vs exact {}",
            cell.scenario,
            exact.h_star
        );
        assert!(est.std_error > 0.0);
        assert!(
            (metrics.mean_len - exact.mean_len).abs() < 1e-12,
            "all engines evaluate the same realized strategy"
        );
    }
}

#[test]
fn live_cells_are_deterministic_per_seed() {
    // identities, routes, handshakes, nonces, and junk all derive from
    // the cell seed; the adversary consumes trace structure only — so a
    // rerun renders byte-identical JSONL even for live TCP cells
    let grid = ScenarioGrid::new()
        .ns([8])
        .cs([1])
        .strategies([StrategySpec::Fixed(2)])
        .engines([EngineKind::Exact, EngineKind::Live]);
    let config = CampaignConfig {
        live_messages: 120,
        seed: 55,
        ..CampaignConfig::default()
    };
    let a = report::render_jsonl(&run(&grid, &config), false);
    let b = report::render_jsonl(&run(&grid, &config), false);
    assert_eq!(a, b, "live cells must be deterministic per seed");
    assert!(a.contains("\"engine\":\"live\""));

    // ...and a different campaign seed moves the live measurement
    let other = report::render_jsonl(&run(&grid, &CampaignConfig { seed: 56, ..config }), false);
    assert_ne!(a, other, "live sampling must respond to the seed");
}

#[test]
fn every_registered_backend_scores_through_the_trait_object() {
    // the registry is the only dispatch point: score one feasible cell
    // with each backend via `&dyn EvalBackend` and cross-check engines
    use anonroute_core::engine::EvaluatorCache;
    use anonroute_core::epochs::EpochView;
    use anonroute_core::{EpochSchedule, PathKind, SystemModel};

    let scenario_for = |kind| anonroute_campaign::Scenario {
        n: 8,
        c: 1,
        path_kind: PathKind::Simple,
        strategy: StrategySpec::Uniform(1, 3),
        dynamics: EpochSchedule::one_shot(),
        engine: kind,
    };
    let model = SystemModel::new(8, 1).unwrap();
    let dist = StrategySpec::Uniform(1, 3).realize(&model).unwrap();
    let views = vec![EpochView {
        epoch: 0,
        active: (0..8).collect(),
        compromised: vec![7],
    }];
    let cache = EvaluatorCache::new();
    let config = CampaignConfig {
        mc_samples: 10_000,
        sim_messages: 500,
        live_messages: 150,
        ..CampaignConfig::default()
    };
    let mut exact_h = None;
    for kind in EngineKind::ALL {
        let scenario = scenario_for(kind);
        let ctx = anonroute_campaign::CellCtx {
            scenario: &scenario,
            model: &model,
            dist: &dist,
            views: &views,
            seed: 17,
            dynamics_seed: 17,
            config: &config,
            cache: &cache,
            clock: &Default::default(),
        };
        let metrics = backend::backend(kind).evaluate(&ctx).unwrap();
        match metrics.sampled() {
            None => exact_h = Some(metrics.h_star),
            Some(est) => {
                let exact = exact_h.expect("exact runs first in ALL order");
                assert!(est.agrees_with(exact, 5.0), "{kind:?}: {est} vs {exact}");
            }
        }
    }
}

/// The multi-round conformance grid: every engine scores the same
/// multi-epoch cells — static, rotating, and churning — and must agree
/// on the cumulative anonymity within std-error bounds, because all four
/// realize identical epochs from the engine-free dynamics seed (only
/// their session sampling is independent).
#[test]
fn all_four_engines_agree_on_multi_epoch_cells() {
    use anonroute_core::{ChurnModel, RotationPolicy};

    // U(1,2) stays feasible at any churned size the realize guard
    // permits (n_e >= c + 2 = 3), so every cell must score
    let grid = ScenarioGrid::new()
        .ns([8])
        .cs([1])
        .strategies([StrategySpec::Uniform(1, 2)])
        .epochs([3])
        .rotations([RotationPolicy::Static, RotationPolicy::Shift { step: 3 }])
        .churns([ChurnModel::None, ChurnModel::Iid { rate: 0.2 }])
        .engines(EngineKind::ALL);
    let config = CampaignConfig {
        mc_samples: 12_000,
        sim_messages: 2_400,
        live_messages: 360,
        seed: 404,
        ..CampaignConfig::default()
    };
    let outcome = run(&grid, &config);
    assert_eq!(outcome.cells.len(), 16);
    assert_eq!(
        outcome.error_count(),
        0,
        "{:?}",
        outcome
            .cells
            .iter()
            .filter_map(|c| c.outcome.as_ref().err())
            .collect::<Vec<_>>()
    );
    // engine expands outside the dynamics axes: cells[e * 4 + d] is
    // engine e on dynamics combination d
    let dynamics_combos = 4;
    for d in 0..dynamics_combos {
        let exact_cell = &outcome.cells[d];
        let exact = exact_cell.outcome.as_ref().unwrap();
        assert_eq!(exact_cell.scenario.engine, EngineKind::Exact);
        assert_eq!(exact.epochs, 3, "three epochs folded");
        let anchor = exact.h_epoch1.expect("multi-epoch cells carry an anchor");
        // the exact anchor is the closed-form single-round H*(S)
        let model = anonroute_core::SystemModel::new(8, 1).unwrap();
        let dist = exact_cell.scenario.strategy.realize(&model).unwrap();
        let h1 = anonroute_core::engine::anonymity_degree(&model, &dist).unwrap();
        assert!((anchor - h1).abs() < 1e-12, "anchor {anchor} vs exact {h1}");
        // folding epochs can only help the adversary
        assert!(
            exact.h_star <= anchor + 1e-9,
            "{}: cumulative {} above anchor {anchor}",
            exact_cell.scenario,
            exact.h_star
        );
        let exact_est = exact
            .sampled()
            .expect("multi-epoch exact cells are sampled");
        for e in 1..EngineKind::ALL.len() {
            let cell = &outcome.cells[e * dynamics_combos + d];
            assert_eq!(cell.scenario.dynamics, exact_cell.scenario.dynamics);
            let metrics = cell.outcome.as_ref().unwrap();
            let est = metrics.sampled().expect("sampling engines report errors");
            assert_eq!(metrics.epochs, 3);
            // pooled tolerance: both sides of the comparison are estimates
            let pooled = (est.std_error.powi(2) + exact_est.std_error.powi(2)).sqrt();
            assert!(
                (est.h_star - exact_est.h_star).abs() <= 5.0 * pooled + 1e-9,
                "{}: {est} vs exact {}",
                cell.scenario,
                exact_est
            );
        }
    }
}

/// Multi-epoch cells obey the same bit-identical-per-seed contract as
/// everything else, across thread counts and engines (incl. live TCP).
#[test]
fn multi_epoch_cells_are_deterministic_per_seed_at_any_thread_count() {
    use anonroute_core::ChurnModel;

    let grid = ScenarioGrid::new()
        .ns([8])
        .cs([1])
        .strategies([StrategySpec::Fixed(2)])
        .epochs([2])
        .churns([ChurnModel::Iid { rate: 0.2 }])
        .engines(EngineKind::ALL);
    let config = |threads| CampaignConfig {
        threads,
        mc_samples: 4_000,
        sim_messages: 600,
        live_messages: 120,
        seed: 77,
        ..CampaignConfig::default()
    };
    let serial = report::render_jsonl(&run(&grid, &config(1)), false);
    let parallel = report::render_jsonl(&run(&grid, &config(4)), false);
    assert_eq!(serial, parallel, "thread count must not leak into results");
    let rerun = report::render_jsonl(&run(&grid, &config(4)), false);
    assert_eq!(parallel, rerun, "reruns must be byte-identical");
    assert!(serial.contains("\"epochs\":2"));
    assert!(serial.contains("\"dynamics\":\"epochs=2;churn=iid:0.2\""));
}
