//! Every engine's per-cell phase profile against the cell's wall time.
//!
//! This test sits in a binary of its own because it compares wall-clock
//! figures: cargo runs test binaries one after another, so no sibling
//! test competes with its cells for the CPU and stretches the time they
//! spend outside their phases.

use anonroute_campaign::{run, CampaignConfig, EngineKind, ScenarioGrid, StrategySpec};

/// Every engine's phases must account for its cells' wall time, one-shot
/// and multi-epoch alike: setup + evaluate + attack + fold cover at least
/// 95% of `elapsed_us` and never exceed it. That includes building the
/// `n`-node onion network and freeing the simulation, which with few
/// messages are about a quarter of a sim cell. Cells are sized to run
/// for 10 ms or more, so fixed per-cell overhead cannot dominate.
#[test]
fn every_engines_phases_cover_its_cells_wall_time() {
    // (engine, epochs, n, c): a one-shot exact cell needs a large n to
    // take 10 ms, a multi-epoch one does not
    let cells = [
        (EngineKind::Exact, 1, 500_000, 10),
        (EngineKind::Exact, 2, 20_000, 10),
        (EngineKind::MonteCarlo, 1, 20_000, 10),
        (EngineKind::MonteCarlo, 2, 20_000, 10),
        (EngineKind::Simulated, 1, 20_000, 10),
        (EngineKind::Simulated, 2, 20_000, 10),
        (EngineKind::Live, 1, 12, 1),
        (EngineKind::Live, 2, 12, 1),
    ];
    let config = CampaignConfig {
        threads: 1,
        seed: 101,
        mc_samples: 4_000,
        sim_messages: 200,
        live_messages: 60,
        ..CampaignConfig::default()
    };
    for (engine, epochs, n, c) in cells {
        let grid = ScenarioGrid::new()
            .ns([n])
            .cs([c])
            .strategies([StrategySpec::Uniform(1, 6)])
            .engines([engine])
            .epochs([epochs]);
        let outcome = run(&grid, &config);
        let cell = &outcome.cells[0];
        assert!(
            cell.outcome.is_ok(),
            "{}: {:?}",
            cell.scenario,
            cell.outcome
        );
        let total = cell.profile.total_us();
        let covered = total as f64 / cell.elapsed_micros as f64;
        assert!(
            total <= cell.elapsed_micros && covered >= 0.95,
            "{}: phases cover {:.1}% of the cell: {:?} vs {} us",
            cell.scenario,
            100.0 * covered,
            cell.profile,
            cell.elapsed_micros
        );
    }
}
