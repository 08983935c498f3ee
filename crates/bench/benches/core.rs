//! Benchmarks of the multi-round intersection accumulator — the hot
//! inner loop every engine shares when a cell has `epochs > 1`.
//!
//! `fold_round` folds one closed-form round posterior into a session's
//! accumulator, the per-message step of the intersection attack; the
//! read-side `entropy_bits` and `best_guess` are what the scorer takes
//! per session and epoch. All three should cost the same at every `n`.
//! `fold_dense` is the dense-vector entry point, which compresses a
//! universe-length posterior in `O(n)`, and `posterior` the dense
//! expansion.

use anonroute_core::engine::{observe, sample_path, FoldWorkspace, RoundPosterior};
use anonroute_core::epochs::EpochZeroes;
use anonroute_core::{IntersectionPosterior, PathLengthDist, SystemModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Compromised nodes (the last ids) of every benched system.
const C: usize = 10;

/// One session's world at size `n`: the compromised mask, the strategy's
/// workspace, and `rounds` observations of one honest sender.
struct Session {
    n: usize,
    compromised: Vec<bool>,
    workspace: FoldWorkspace,
    observations: Vec<anonroute_core::engine::Observation>,
}

impl Session {
    fn new(n: usize, rounds: usize) -> Self {
        let model = SystemModel::new(n, C).unwrap();
        let dist = PathLengthDist::uniform(1, 6).unwrap();
        let compromised: Vec<bool> = (0..n).map(|i| i >= n - C).collect();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut scratch: Vec<usize> = (0..n).collect();
        let sender = rng.gen_range(0..n - C);
        let observations = (0..rounds)
            .map(|_| {
                let path = sample_path(
                    &model,
                    sender,
                    dist.sample(&mut rng),
                    &mut rng,
                    &mut scratch,
                );
                observe(sender, &path, &compromised)
            })
            .collect();
        Session {
            n,
            workspace: FoldWorkspace::new(&model, &dist).unwrap(),
            compromised,
            observations,
        }
    }

    fn round(&self, k: usize) -> RoundPosterior<'_> {
        self.workspace
            .round(&self.observations[k], &self.compromised)
            .unwrap()
    }

    /// An accumulator that has folded every round but the last, so the
    /// timed fold takes the multiply-and-renormalize path.
    fn warmed(&self, zeroes: &EpochZeroes<'_>) -> IntersectionPosterior {
        let mut acc = IntersectionPosterior::new(self.n);
        for k in 0..self.observations.len() - 1 {
            acc.fold_round(&self.round(k), zeroes).unwrap();
        }
        acc
    }
}

fn bench_intersection_posterior(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection_posterior");
    for n in [1_000usize, 100_000, 1_000_000] {
        let session = Session::new(n, 4);
        let compromised_ids: Vec<usize> = (n - C..n).collect();
        let zeroes = EpochZeroes::one_shot(n, &compromised_ids);
        let acc = session.warmed(&zeroes);
        let last = session.round(3);
        group.bench_with_input(
            BenchmarkId::new("fold_round", format!("n{n}")),
            &acc,
            |b, acc| {
                b.iter(|| {
                    let mut a = acc.clone();
                    a.fold_round(black_box(&last), &zeroes).unwrap();
                    a.folds()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("entropy_bits", format!("n{n}")),
            &acc,
            |b, acc| b.iter(|| black_box(acc).entropy_bits()),
        );
        group.bench_with_input(
            BenchmarkId::new("best_guess", format!("n{n}")),
            &acc,
            |b, acc| b.iter(|| black_box(acc).best_guess()),
        );
        if n <= 100_000 {
            let dense = last.posterior();
            let mut dense_acc = IntersectionPosterior::new(n);
            for k in 0..3 {
                dense_acc.fold(&session.round(k).posterior()).unwrap();
            }
            group.bench_with_input(
                BenchmarkId::new("fold_dense", format!("n{n}")),
                &dense_acc,
                |b, acc| {
                    b.iter(|| {
                        let mut a = acc.clone();
                        a.fold(black_box(&dense)).unwrap();
                        a.folds()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new("posterior", format!("n{n}")),
                &acc,
                |b, acc| b.iter(|| black_box(acc).posterior()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_intersection_posterior);
criterion_main!(benches);
