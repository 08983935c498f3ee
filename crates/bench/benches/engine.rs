//! Benchmarks of the analysis engines: exact anonymity degree (simple and
//! cyclic), reusable-evaluator scoring, per-event posteriors, Monte-Carlo
//! sampling, and the optimizer.

use anonroute_core::engine::simple::Evaluator;
use anonroute_core::engine::{self, estimate_anonymity_degree, observe, sender_posterior};
use anonroute_core::{analytic, optimize, PathKind, PathLengthDist, SystemModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_exact_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_engine");
    for (n, cc) in [(100usize, 1usize), (100, 5), (1000, 10)] {
        let model = SystemModel::new(n, cc).unwrap();
        let dist = PathLengthDist::uniform(2, (n / 2).min(60)).unwrap();
        group.bench_with_input(
            BenchmarkId::new("simple", format!("n{n}_c{cc}")),
            &(model, dist),
            |b, (model, dist)| {
                b.iter(|| engine::anonymity_degree(black_box(model), black_box(dist)).unwrap())
            },
        );
    }
    let cyclic = SystemModel::with_path_kind(100, 2, PathKind::Cyclic).unwrap();
    let dist = PathLengthDist::geometric(0.7, 25).unwrap();
    group.bench_function("cyclic_n100_c2", |b| {
        b.iter(|| engine::anonymity_degree(black_box(&cyclic), black_box(&dist)).unwrap())
    });
    group.finish();
}

fn bench_evaluator_hot_loop(c: &mut Criterion) {
    let model = SystemModel::new(100, 1).unwrap();
    let ev = Evaluator::new(&model, 99).unwrap();
    let pmf = PathLengthDist::uniform(2, 60).unwrap().pmf().to_vec();
    c.bench_function("evaluator_h_star_n100", |b| {
        b.iter(|| ev.h_star(black_box(&pmf)))
    });
}

fn bench_closed_form(c: &mut Criterion) {
    c.bench_function("theorem1_closed_form", |b| {
        b.iter(|| analytic::theorem1_fixed(black_box(100), black_box(31)).unwrap())
    });
}

fn bench_posterior(c: &mut Criterion) {
    let n = 100;
    let model = SystemModel::new(n, 3).unwrap();
    let dist = PathLengthDist::uniform(1, 40).unwrap();
    let compromised: Vec<bool> = (0..n).map(|i| i < 3).collect();
    let path: Vec<usize> = vec![10, 1, 20, 2, 30, 40, 50];
    let obs = observe(5, &path, &compromised);
    c.bench_function("sender_posterior_n100_c3", |b| {
        b.iter(|| {
            sender_posterior(
                black_box(&model),
                black_box(&dist),
                black_box(&obs),
                &compromised,
            )
            .unwrap()
        })
    });
}

fn bench_monte_carlo(c: &mut Criterion) {
    let model = SystemModel::new(100, 1).unwrap();
    let dist = PathLengthDist::uniform(2, 20).unwrap();
    let mut group = c.benchmark_group("monte_carlo");
    group.sample_size(10);
    group.bench_function("mc_1000_samples", |b| {
        b.iter(|| estimate_anonymity_degree(&model, &dist, 1000, 7).unwrap())
    });
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    let model = SystemModel::new(60, 1).unwrap();
    let mut group = c.benchmark_group("optimizer");
    group.sample_size(10);
    group.bench_function("uniform_family_mean10", |b| {
        b.iter(|| optimize::best_uniform_with_mean(&model, 59, 10).unwrap())
    });
    group.bench_function("mean_constrained_lmax30", |b| {
        b.iter(|| optimize::maximize_with_mean(&model, 30, 8.0).unwrap())
    });
    // the two solves of the repository benchmark's optimal_design cells,
    // with the support bounds campaign cells use at n = 100
    let model = SystemModel::new(100, 1).unwrap();
    group.bench_function("maximize_n100_lmax60", |b| {
        b.iter(|| optimize::maximize(&model, 60).unwrap())
    });
    group.bench_function("maximize_with_mean_n100_mean6", |b| {
        b.iter(|| optimize::maximize_with_mean(&model, 32, 6.0).unwrap())
    });
    // one fixed-mean projection of a gradient step on that support
    let y: Vec<f64> = (0..33)
        .map(|l| (l as f64 * 0.37).sin() * 0.3 + 1.0 / 33.0)
        .collect();
    group.bench_function("project_simplex_with_mean_k33", |b| {
        b.iter(|| optimize::project_simplex_with_mean(black_box(&y), 6.0).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_exact_engine,
    bench_evaluator_hot_loop,
    bench_closed_form,
    bench_posterior,
    bench_monte_carlo,
    bench_optimizer
);
criterion_main!(benches);
