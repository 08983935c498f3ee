//! Shared, memoized [`Evaluator`], [`FoldWorkspace`] and optimizer
//! handles for multi-scenario sweeps.
//!
//! Building an [`Evaluator`] precomputes log-factorial tables for a
//! `(model, lmax)` pair; a parameter sweep evaluates many strategies
//! against the same handful of models, so paying that cost once per model
//! — and sharing the result across worker threads — is the difference
//! between `O(cells)` and `O(models)` table builds. The cache hands out
//! cheap-to-clone [`SharedEvaluator`] handles (`Arc`s) keyed by
//! `(n, c, path_kind, lmax)` and is safe to use concurrently.
//!
//! The cache keeps three maps, each counted separately:
//!
//! * evaluators, keyed by `(n, c, path_kind, lmax)`
//!   ([`EvaluatorCache::stats`]). One evaluator with a wide `lmax` (the
//!   campaign's exact cells use `n - 1`) serves every strategy on its
//!   model at the cost of that strategy's own support:
//!   [`Evaluator::analyze`] stops the class pass at the pmf's last
//!   positive length;
//! * [`FoldWorkspace`]s, keyed by `(model, path-length distribution)`, so
//!   multi-epoch estimators reuse one workspace per epoch model instead of
//!   rebuilding per-session tables ([`EvaluatorCache::workspace_stats`]);
//! * solved optimization problems ([`OptimizationOutcome`]s), keyed by
//!   `(n, c, path_kind, lmax, mean)`, so every engine scoring one
//!   `optimal` strategy shares one solve
//!   ([`EvaluatorCache::strategy_stats`]). The solver is deterministic and
//!   seed-free, so a reused outcome is the pmf a fresh solve would return,
//!   bit for bit.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::dist::PathLengthDist;
use crate::engine::fold::FoldWorkspace;
use crate::engine::simple::Evaluator;
use crate::error::Result;
use crate::model::{PathKind, SystemModel};
use crate::optimize::{self, OptimizationOutcome};

/// A cheap-to-clone, thread-shareable handle to an exact [`Evaluator`].
pub type SharedEvaluator = Arc<Evaluator>;

/// A cheap-to-clone, thread-shareable handle to a [`FoldWorkspace`].
pub type SharedWorkspace = Arc<FoldWorkspace>;

/// One cache entry: present-but-empty while unbuilt, filled exactly once.
/// Builders hold the slot's own lock for the duration of the build, so
/// concurrent first lookups of one key dedupe (one builds, the rest wait)
/// without serializing unrelated keys behind the map lock.
type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

/// Evaluators are keyed by the model identity plus the table ceiling.
type EvaluatorKey = (usize, usize, PathKind, usize);

/// Workspaces are keyed by the model identity plus the exact pmf bits
/// (`PathLengthDist` trims trailing zeros, so the pmf determines
/// `max_len` too).
type WorkspaceKey = (usize, usize, PathKind, Vec<u64>);

/// A cheap-to-clone, thread-shareable handle to a solved optimization
/// problem.
pub type SharedOutcome = Arc<OptimizationOutcome>;

/// Optimizer outcomes are keyed by the model identity, the support bound
/// and the exact bits of the fixed mean, if any.
type OutcomeKey = (usize, usize, PathKind, usize, Option<u64>);

/// Concurrency-safe memoization of [`Evaluator`] construction, keyed by
/// `(n, c, path_kind, lmax)`, with secondary [`FoldWorkspace`] and
/// optimizer-outcome maps.
///
/// # Examples
///
/// ```
/// use anonroute_core::engine::EvaluatorCache;
/// use anonroute_core::{PathLengthDist, SystemModel};
///
/// let cache = EvaluatorCache::new();
/// let model = SystemModel::new(100, 1)?;
/// let a = cache.evaluator(&model, 99)?;
/// let b = cache.evaluator(&model, 99)?; // same handle, no rebuild
/// assert_eq!(cache.stats().misses, 1);
/// assert_eq!(cache.stats().hits, 1);
/// let h = a.h_star(PathLengthDist::fixed(5).pmf());
/// assert!((h - b.h_star(PathLengthDist::fixed(5).pmf())).abs() == 0.0);
/// # Ok::<(), anonroute_core::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct EvaluatorCache {
    map: Mutex<HashMap<EvaluatorKey, Slot<Evaluator>>>,
    workspaces: Mutex<HashMap<WorkspaceKey, Slot<FoldWorkspace>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    ws_hits: AtomicUsize,
    ws_misses: AtomicUsize,
    optima: Mutex<HashMap<OutcomeKey, Slot<OptimizationOutcome>>>,
    opt_hits: AtomicUsize,
    opt_misses: AtomicUsize,
}

/// Hit/miss counters of an [`EvaluatorCache`] map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: usize,
    /// Lookups that had to build a fresh entry.
    pub misses: usize,
}

/// Looks up `key`, building at most once per key across all threads.
///
/// The build runs under the key's own slot lock: concurrent first lookups
/// of the same key wait for the winner instead of duplicating the build,
/// while lookups of other keys proceed (the map lock is only held to
/// fetch the slot). A failed build removes the still-empty slot so the
/// error does not poison later lookups, and counts neither hit nor miss —
/// `misses` is exactly the number of successfully built entries,
/// deterministically, whatever the interleaving.
fn get_or_build<K, T, F>(
    map: &Mutex<HashMap<K, Slot<T>>>,
    hits: &AtomicUsize,
    misses: &AtomicUsize,
    key: K,
    build: F,
) -> Result<Arc<T>>
where
    K: Eq + Hash + Clone,
    F: FnOnce() -> Result<T>,
{
    let slot = Arc::clone(
        map.lock()
            .expect("cache lock")
            .entry(key.clone())
            .or_default(),
    );
    let mut guard = slot.lock().expect("cache slot lock");
    if let Some(found) = guard.as_ref() {
        hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(found));
    }
    match build() {
        Ok(built) => {
            let shared = Arc::new(built);
            *guard = Some(Arc::clone(&shared));
            misses.fetch_add(1, Ordering::Relaxed);
            Ok(shared)
        }
        Err(e) => {
            // release the slot before touching the map: no thread ever
            // waits on the map while holding a slot
            drop(guard);
            let mut map = map.lock().expect("cache lock");
            if let Some(current) = map.get(&key) {
                let still_empty = Arc::ptr_eq(current, &slot)
                    && current.lock().expect("cache slot lock").is_none();
                if still_empty {
                    map.remove(&key);
                }
            }
            Err(e)
        }
    }
}

/// Number of built entries in a slot map.
fn built_len<K, T>(map: &Mutex<HashMap<K, Slot<T>>>) -> usize {
    map.lock()
        .expect("cache lock")
        .values()
        .filter(|slot| slot.lock().expect("cache slot lock").is_some())
        .count()
}

impl EvaluatorCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared evaluator for `(model, lmax)`, building it on
    /// first use.
    ///
    /// Concurrent first lookups of one key build once: the losers block on
    /// the key's slot and then count a *hit*, so `misses` is exactly the
    /// number of distinct cached evaluators, deterministically, whatever
    /// the interleaving.
    ///
    /// # Errors
    ///
    /// Propagates [`Evaluator::new`] validation (cyclic models, or
    /// `lmax > n - 1`).
    pub fn evaluator(&self, model: &SystemModel, lmax: usize) -> Result<SharedEvaluator> {
        let key = (model.n(), model.c(), model.path_kind(), lmax);
        get_or_build(&self.map, &self.hits, &self.misses, key, || {
            Evaluator::new(model, lmax)
        })
    }

    /// Returns the shared [`FoldWorkspace`] for `(model, dist)`, building
    /// it on first use with the same once-per-key deduplication as
    /// [`EvaluatorCache::evaluator`]. Counted in
    /// [`EvaluatorCache::workspace_stats`], not in the evaluator stats.
    ///
    /// # Errors
    ///
    /// Propagates [`FoldWorkspace::new`] validation (distributions the
    /// model rejects).
    pub fn workspace(&self, model: &SystemModel, dist: &PathLengthDist) -> Result<SharedWorkspace> {
        let key = (
            model.n(),
            model.c(),
            model.path_kind(),
            dist.pmf().iter().map(|p| p.to_bits()).collect(),
        );
        get_or_build(
            &self.workspaces,
            &self.ws_hits,
            &self.ws_misses,
            key,
            || FoldWorkspace::new(model, dist),
        )
    }

    /// Returns the shared solution of the paper's optimization problem
    /// over `0..=lmax` under `model` — [`optimize::maximize_with_mean`]
    /// when `mean` is set, [`optimize::maximize`] otherwise — solving it
    /// on first use with the same once-per-key deduplication as
    /// [`EvaluatorCache::evaluator`]. Counted in
    /// [`EvaluatorCache::strategy_stats`].
    ///
    /// # Errors
    ///
    /// Propagates the solver's validation (cyclic models, `lmax > n - 1`,
    /// infeasible means); a failed solve caches nothing.
    pub fn optimum(
        &self,
        model: &SystemModel,
        lmax: usize,
        mean: Option<f64>,
    ) -> Result<SharedOutcome> {
        let key = (
            model.n(),
            model.c(),
            model.path_kind(),
            lmax,
            mean.map(f64::to_bits),
        );
        get_or_build(
            &self.optima,
            &self.opt_hits,
            &self.opt_misses,
            key,
            || match mean {
                Some(m) => optimize::maximize_with_mean(model, lmax, m),
                None => optimize::maximize(model, lmax),
            },
        )
    }

    /// Number of distinct evaluators currently cached.
    pub fn len(&self) -> usize {
        built_len(&self.map)
    }

    /// Whether the cache holds no evaluators.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct fold workspaces currently cached.
    pub fn workspace_len(&self) -> usize {
        built_len(&self.workspaces)
    }

    /// Current evaluator hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Current fold-workspace hit/miss counters.
    pub fn workspace_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.ws_hits.load(Ordering::Relaxed),
            misses: self.ws_misses.load(Ordering::Relaxed),
        }
    }

    /// Current optimizer-outcome hit/miss counters: `misses` is the
    /// number of distinct problems solved, `hits` the solves saved.
    pub fn strategy_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.opt_hits.load(Ordering::Relaxed),
            misses: self.opt_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::PathLengthDist;

    #[test]
    fn distinct_keys_build_distinct_evaluators() {
        let cache = EvaluatorCache::new();
        let m1 = SystemModel::new(50, 1).unwrap();
        let m2 = SystemModel::new(50, 2).unwrap();
        cache.evaluator(&m1, 20).unwrap();
        cache.evaluator(&m1, 30).unwrap();
        cache.evaluator(&m2, 20).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 3 });
    }

    #[test]
    fn repeated_lookups_hit() {
        let cache = EvaluatorCache::new();
        let model = SystemModel::new(40, 1).unwrap();
        for _ in 0..5 {
            cache.evaluator(&model, 10).unwrap();
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 4, misses: 1 });
    }

    #[test]
    fn cached_evaluator_matches_fresh_one() {
        let cache = EvaluatorCache::new();
        let model = SystemModel::new(60, 2).unwrap();
        let shared = cache.evaluator(&model, 25).unwrap();
        let fresh = Evaluator::new(&model, 25).unwrap();
        let pmf = PathLengthDist::uniform(2, 12).unwrap();
        assert_eq!(shared.h_star(pmf.pmf()), fresh.h_star(pmf.pmf()));
    }

    #[test]
    fn invalid_requests_error_and_do_not_poison() {
        let cache = EvaluatorCache::new();
        let model = SystemModel::new(10, 1).unwrap();
        assert!(cache.evaluator(&model, 10).is_err()); // lmax > n-1
        assert!(cache.evaluator(&model, 9).is_ok());
        assert_eq!(cache.len(), 1);
        // same for workspaces: an infeasible dist fails, then a valid
        // lookup of the same model succeeds
        assert!(cache.workspace(&model, &PathLengthDist::fixed(10)).is_err());
        assert!(cache.workspace(&model, &PathLengthDist::fixed(5)).is_ok());
        assert_eq!(cache.workspace_len(), 1);
        assert_eq!(cache.workspace_stats(), CacheStats { hits: 0, misses: 1 });
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = std::sync::Arc::new(EvaluatorCache::new());
        let model = SystemModel::new(80, 1).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for lmax in [10usize, 20, 10, 20, 30] {
                        cache.evaluator(&model, lmax).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.len(), 3);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 40);
        // per-key dedup: racing first lookups build once (losers wait on
        // the slot and count hits), so misses == distinct keys exactly
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn workspace_lookups_dedupe_by_model_and_pmf() {
        let cache = EvaluatorCache::new();
        let model = SystemModel::new(30, 2).unwrap();
        let d1 = PathLengthDist::uniform(1, 6).unwrap();
        let d2 = PathLengthDist::fixed(4);
        cache.workspace(&model, &d1).unwrap();
        cache.workspace(&model, &d1).unwrap();
        cache.workspace(&model, &d2).unwrap();
        assert_eq!(cache.workspace_len(), 2);
        assert_eq!(cache.workspace_stats(), CacheStats { hits: 1, misses: 2 });
        // workspace traffic leaves evaluator stats untouched
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 0 });
    }

    #[test]
    fn cached_workspace_matches_one_shot_posterior() {
        use crate::engine::observation::observe;
        use crate::engine::posterior::sender_posterior;
        let cache = EvaluatorCache::new();
        let model = SystemModel::new(12, 1).unwrap();
        let dist = PathLengthDist::uniform(1, 5).unwrap();
        let compromised: Vec<bool> = (0..12).map(|i| i == 11).collect();
        let ws = cache.workspace(&model, &dist).unwrap();
        let obs = observe(2, &[11, 4, 6], &compromised);
        let got = ws.posterior(&obs, &compromised).unwrap();
        let expect = sender_posterior(&model, &dist, &obs, &compromised).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn racing_first_lookups_of_one_optimum_solve_once() {
        let cache = EvaluatorCache::new();
        let model = SystemModel::new(40, 1).unwrap();
        let start = std::sync::Barrier::new(8);
        let outcomes: Vec<SharedOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        cache.optimum(&model, 12, Some(4.0)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.strategy_stats(), CacheStats { hits: 7, misses: 1 });
        assert!(outcomes.iter().all(|o| Arc::ptr_eq(o, &outcomes[0])));
        // the memoized outcome is the one a fresh solve returns, bit for bit
        let fresh = optimize::maximize_with_mean(&model, 12, 4.0).unwrap();
        assert_eq!(*outcomes[0], fresh);
        // optimizer traffic leaves the other maps' stats untouched
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.workspace_stats(), CacheStats::default());
    }

    #[test]
    fn infeasible_optima_error_every_time_and_cache_nothing() {
        // `optimal:50` at n = 10: the support is 0..=9, so mean 50 is
        // infeasible in every cell that asks for it
        let cache = EvaluatorCache::new();
        let model = SystemModel::new(10, 1).unwrap();
        for _ in 0..3 {
            assert!(cache.optimum(&model, 9, Some(50.0)).is_err());
        }
        assert_eq!(cache.strategy_stats(), CacheStats::default());
        assert!(cache.optima.lock().unwrap().is_empty());
        // and a cyclic model never reaches a simple-path solve
        let cyclic = SystemModel::with_path_kind(10, 1, PathKind::Cyclic).unwrap();
        assert!(cache.optimum(&cyclic, 9, None).is_err());
        assert_eq!(cache.strategy_stats(), CacheStats::default());
    }

    #[test]
    fn distinct_means_get_distinct_optima() {
        let cache = EvaluatorCache::new();
        let model = SystemModel::new(30, 1).unwrap();
        let free = cache.optimum(&model, 12, None).unwrap();
        let six = cache.optimum(&model, 12, Some(6.0)).unwrap();
        let six_and_a_half = cache.optimum(&model, 12, Some(6.5)).unwrap();
        let six_again = cache.optimum(&model, 12, Some(6.0)).unwrap();
        assert_eq!(built_len(&cache.optima), 3);
        assert_eq!(cache.strategy_stats(), CacheStats { hits: 1, misses: 3 });
        assert!(Arc::ptr_eq(&six, &six_again));
        assert!(!Arc::ptr_eq(&six, &six_and_a_half));
        assert!((six.dist.mean() - 6.0).abs() < 1e-9);
        assert!((six_and_a_half.dist.mean() - 6.5).abs() < 1e-9);
        assert!(free.h_star >= six.h_star);
    }
}
