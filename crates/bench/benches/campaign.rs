//! Campaign throughput: the same scenario grid swept serially and on the
//! full thread pool, plus the evaluator-cache effect in isolation, and
//! the paper's solve-then-sample flow, whose cells share one optimizer
//! solve per strategy.

use anonroute_campaign::{run, CampaignConfig, EngineKind, ScenarioGrid, StrategySpec};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A 90-cell exact grid: 2 sizes × 3 compromise levels × 15 strategies.
fn bench_grid() -> ScenarioGrid {
    let strategies: Vec<StrategySpec> = (1..=10)
        .map(StrategySpec::Fixed)
        .chain((1..=5).map(|a| StrategySpec::Uniform(a, a + 6)))
        .collect();
    ScenarioGrid::new()
        .ns([100, 200])
        .cs([1, 2, 3])
        .strategies(strategies)
}

fn bench_serial_vs_parallel(c: &mut Criterion) {
    let grid = bench_grid();
    let mut group = c.benchmark_group("campaign_sweep_90_cells");
    group.sample_size(10);
    group.bench_function("threads_1", |b| {
        b.iter(|| {
            let config = CampaignConfig {
                threads: 1,
                ..Default::default()
            };
            black_box(run(black_box(&grid), &config).ok_count())
        })
    });
    group.bench_function("threads_auto", |b| {
        b.iter(|| {
            let config = CampaignConfig {
                threads: 0,
                ..Default::default()
            };
            black_box(run(black_box(&grid), &config).ok_count())
        })
    });
    group.finish();
}

fn bench_monte_carlo_grid(c: &mut Criterion) {
    let grid = ScenarioGrid::new()
        .ns([50])
        .cs([1, 2])
        .strategies((1..=6).map(StrategySpec::Fixed))
        .engines([EngineKind::MonteCarlo]);
    let mut group = c.benchmark_group("campaign_mc_12_cells");
    group.sample_size(10);
    for (label, threads) in [("threads_1", 1usize), ("threads_auto", 0)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let config = CampaignConfig {
                    threads,
                    mc_samples: 4_000,
                    ..Default::default()
                };
                black_box(run(black_box(&grid), &config).ok_count())
            })
        });
    }
    group.finish();
}

/// `optimal,optimal:6` × `exact,mc` at `n = 100`: four cells, two
/// distinct optimization problems, each solved once per sweep.
fn bench_optimal_grid(c: &mut Criterion) {
    let grid = ScenarioGrid::new()
        .ns([100])
        .cs([1])
        .strategies([
            StrategySpec::Optimal { mean: None },
            StrategySpec::Optimal { mean: Some(6.0) },
        ])
        .engines([EngineKind::Exact, EngineKind::MonteCarlo]);
    let mut group = c.benchmark_group("campaign_optimal");
    group.sample_size(10);
    group.bench_function("exact_mc_2_strategies", |b| {
        b.iter(|| {
            let config = CampaignConfig {
                threads: 1,
                mc_samples: 20_000,
                ..Default::default()
            };
            black_box(run(black_box(&grid), &config).ok_count())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_serial_vs_parallel,
    bench_monte_carlo_grid,
    bench_optimal_grid
);
criterion_main!(benches);
