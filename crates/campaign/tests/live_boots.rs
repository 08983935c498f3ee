//! Acceptance: every live cell of a sweep boots its own relay cluster
//! (asserted via the process-wide `anonroute_cluster_boots_total`
//! counter), reports that boot in its profile, and still agrees with
//! the closed-form engine.
//!
//! This lives in its own integration-test binary on purpose: the boot
//! counter is process-global, so sharing a process with other live-cell
//! tests would make the delta meaningless.

use anonroute_campaign::grid::{EngineKind, ScenarioGrid, StrategySpec};
use anonroute_campaign::runner::{run, CampaignConfig};
use anonroute_core::{engine, SystemModel};
use anonroute_relay::ClusterMetrics;

#[test]
fn every_live_cell_boots_its_own_cluster() {
    // 4 ns × 1 strategy = 4 live cells of different network sizes
    let grid = ScenarioGrid::new()
        .ns([5, 6, 7, 8])
        .cs([1])
        .strategies([StrategySpec::Uniform(1, 3)])
        .engines([EngineKind::Live]);
    let config = CampaignConfig {
        live_messages: 120,
        ..CampaignConfig::default()
    };

    let boots_before = ClusterMetrics::global().boots.get();
    let outcome = run(&grid, &config);
    let boots_after = ClusterMetrics::global().boots.get();

    assert_eq!(boots_after - boots_before, 4, "one boot per live cell");
    assert_eq!(outcome.error_count(), 0, "{:?}", outcome.cells);

    // measured anonymity tracks the closed form per cell
    for cell in &outcome.cells {
        let model = SystemModel::new(cell.scenario.n, cell.scenario.c).unwrap();
        let dist = cell.scenario.strategy.realize(&model).unwrap();
        let exact = engine::anonymity_degree(&model, &dist).unwrap();
        let metrics = cell.outcome.as_ref().unwrap();
        let est = metrics.sampled().expect("live cells are sampled");
        assert!(
            est.agrees_with(exact, 5.0),
            "{}: live {est} vs exact {exact}",
            cell.scenario
        );
        assert!(
            cell.profile.boot_us > 0,
            "{}: boot unreported",
            cell.scenario
        );
    }
}
