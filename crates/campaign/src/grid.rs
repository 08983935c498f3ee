//! The declarative scenario model: what to evaluate.
//!
//! A [`Scenario`] is one fully specified evaluation point — system size,
//! compromise level, path kind, route-selection strategy, multi-round
//! dynamics (epochs, compromised-set rotation, churn), and the engine
//! used to score it. A [`ScenarioGrid`] is the cartesian product of axis
//! value lists; [`ScenarioGrid::cells`] expands it in a fixed, documented
//! order so downstream output is stable across runs and thread counts.

use anonroute_core::engine::EvaluatorCache;
use anonroute_core::epochs::{ChurnModel, EpochSchedule, RotationPolicy};
use anonroute_core::{PathKind, PathLengthDist, SystemModel};

/// A route-selection strategy family member, by parameters rather than by
/// realized distribution, so one grid can span system sizes (the same
/// `geometric:0.75:50` cell is infeasible at `n = 20` but fine at
/// `n = 100`, and `optimal` depends on `n` by construction).
#[derive(Debug, Clone, PartialEq)]
pub enum StrategySpec {
    /// `F(l)` — exactly `l` intermediate nodes.
    Fixed(usize),
    /// `U(a, b)` — uniform over `a..=b` intermediate nodes.
    Uniform(usize, usize),
    /// Two-point mixture: `lo` with probability `p`, else `hi`.
    TwoPoint {
        /// First support point.
        lo: usize,
        /// Probability of `lo`.
        p: f64,
        /// Second support point.
        hi: usize,
    },
    /// Crowds-style geometric with forwarding probability `forward_prob`,
    /// truncated at `lmax`.
    Geometric {
        /// Forwarding probability `p_f ∈ [0, 1)`.
        forward_prob: f64,
        /// Truncation point of the geometric tail.
        lmax: usize,
    },
    /// The paper's optimization problem: the `H*`-maximizing distribution,
    /// optionally at a fixed expected path length.
    Optimal {
        /// Equal-overhead constraint `E[L] = mean`, when present.
        mean: Option<f64>,
    },
}

impl StrategySpec {
    /// Parses the CLI/spec-file form (`fixed:5`, `uniform:2:8`,
    /// `twopoint:3:0.5:7`, `geometric:0.75:50`, `optimal`, `optimal:8`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown forms or bad numbers.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let err = |m: &str| format!("strategy `{spec}`: {m}");
        let parts: Vec<&str> = spec.split(':').collect();
        let int = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| err(&format!("bad integer `{s}`")))
        };
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| err(&format!("bad number `{s}`")))
        };
        match parts.as_slice() {
            ["fixed", l] => Ok(StrategySpec::Fixed(int(l)?)),
            ["uniform", a, b] => {
                let (a, b) = (int(a)?, int(b)?);
                if a > b {
                    return Err(err("bounds out of order"));
                }
                Ok(StrategySpec::Uniform(a, b))
            }
            ["twopoint", lo, p, hi] => Ok(StrategySpec::TwoPoint {
                lo: int(lo)?,
                p: num(p)?,
                hi: int(hi)?,
            }),
            ["geometric", pf, lmax] => Ok(StrategySpec::Geometric {
                forward_prob: num(pf)?,
                lmax: int(lmax)?,
            }),
            ["optimal"] => Ok(StrategySpec::Optimal { mean: None }),
            ["optimal", mean] => Ok(StrategySpec::Optimal { mean: Some(num(mean)?) }),
            _ => Err(err("unknown form (fixed:L | uniform:A:B | twopoint:L1:P:L2 | geometric:PF:LMAX | optimal[:MEAN])")),
        }
    }

    /// The strategy family name (`fixed`, `uniform`, `twopoint`,
    /// `geometric`, `optimal`).
    pub fn family(&self) -> &'static str {
        match self {
            StrategySpec::Fixed(_) => "fixed",
            StrategySpec::Uniform(..) => "uniform",
            StrategySpec::TwoPoint { .. } => "twopoint",
            StrategySpec::Geometric { .. } => "geometric",
            StrategySpec::Optimal { .. } => "optimal",
        }
    }

    /// Realizes the concrete path-length distribution under `model`, with
    /// a fresh [`EvaluatorCache`]: every `optimal` strategy is solved
    /// anew. A sweep realizes through [`StrategySpec::realize_in`] and its
    /// own cache instead.
    ///
    /// # Errors
    ///
    /// As [`StrategySpec::realize_in`].
    pub fn realize(&self, model: &SystemModel) -> Result<PathLengthDist, String> {
        self.realize_in(model, &EvaluatorCache::new())
    }

    /// Realizes the concrete path-length distribution under `model`.
    ///
    /// For [`StrategySpec::Optimal`] this solves the paper's optimization
    /// problem over support `0..=min(n-1, bound)`, where the bound keeps
    /// sweep cells affordable. Solves are memoized in `cache`
    /// ([`EvaluatorCache::optimum`]), so the cells of one sweep that share
    /// `(n, c, bound, mean)` — the same strategy under several engines —
    /// solve it once. The solver is deterministic and seed-free, so a
    /// reused outcome is the distribution a fresh solve would return, bit
    /// for bit.
    ///
    /// # Errors
    ///
    /// Propagates distribution construction/validation errors (e.g. a
    /// fixed length exceeding `n - 1` on simple paths) as strings so a
    /// sweep can record infeasible cells instead of aborting.
    pub fn realize_in(
        &self,
        model: &SystemModel,
        cache: &EvaluatorCache,
    ) -> Result<PathLengthDist, String> {
        let dist = match self {
            StrategySpec::Fixed(l) => PathLengthDist::fixed(*l),
            StrategySpec::Uniform(a, b) => {
                PathLengthDist::uniform(*a, *b).map_err(|e| e.to_string())?
            }
            StrategySpec::TwoPoint { lo, p, hi } => {
                PathLengthDist::two_point(*lo, *p, *hi).map_err(|e| e.to_string())?
            }
            StrategySpec::Geometric { forward_prob, lmax } => {
                PathLengthDist::geometric(*forward_prob, *lmax).map_err(|e| e.to_string())?
            }
            StrategySpec::Optimal { mean } => {
                if model.path_kind() != PathKind::Simple {
                    return Err(
                        "optimal strategies cover the paper's simple-path design space".into(),
                    );
                }
                let bound = match mean {
                    Some(m) => (m.ceil() as usize).saturating_mul(2).saturating_add(20),
                    None => 60,
                };
                let lmax = (model.n() - 1).min(bound);
                cache
                    .optimum(model, lmax, *mean)
                    .map_err(|e| e.to_string())?
                    .dist
                    .clone()
            }
        };
        model.validate_dist(&dist).map_err(|e| e.to_string())?;
        Ok(dist)
    }
}

impl std::fmt::Display for StrategySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategySpec::Fixed(l) => write!(f, "fixed:{l}"),
            StrategySpec::Uniform(a, b) => write!(f, "uniform:{a}:{b}"),
            StrategySpec::TwoPoint { lo, p, hi } => write!(f, "twopoint:{lo}:{p}:{hi}"),
            StrategySpec::Geometric { forward_prob, lmax } => {
                write!(f, "geometric:{forward_prob}:{lmax}")
            }
            StrategySpec::Optimal { mean: None } => write!(f, "optimal"),
            StrategySpec::Optimal { mean: Some(m) } => write!(f, "optimal:{m}"),
        }
    }
}

/// Which evaluation backend scores a cell (see [`crate::backend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Closed-form exact `H*` (the paper's analysis).
    Exact,
    /// Seeded Monte-Carlo estimation over sampled observations.
    MonteCarlo,
    /// Full protocol simulation attacked by the passive adversary
    /// (onion routing on simple paths, Crowds on cyclic paths).
    Simulated,
    /// A real loopback TCP relay cluster: onion circuits over sockets,
    /// attacked through the per-link observation tap.
    Live,
}

impl EngineKind {
    /// Every engine, in canonical (cheapest-first) order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Exact,
        EngineKind::MonteCarlo,
        EngineKind::Simulated,
        EngineKind::Live,
    ];

    /// Parses `exact`, `mc`/`montecarlo`, `sim`/`simulated`, or `live`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "exact" => Ok(EngineKind::Exact),
            "mc" | "montecarlo" | "monte-carlo" => Ok(EngineKind::MonteCarlo),
            "sim" | "simulated" => Ok(EngineKind::Simulated),
            "live" => Ok(EngineKind::Live),
            other => Err(format!(
                "engine `{other}`: expected exact | mc | sim | live"
            )),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Exact => write!(f, "exact"),
            EngineKind::MonteCarlo => write!(f, "mc"),
            EngineKind::Simulated => write!(f, "sim"),
            EngineKind::Live => write!(f, "live"),
        }
    }
}

/// Parses a [`PathKind`] axis value (`simple` | `cyclic`).
///
/// # Errors
///
/// Returns a message naming the accepted forms.
pub fn parse_path_kind(s: &str) -> Result<PathKind, String> {
    match s {
        "simple" => Ok(PathKind::Simple),
        "cyclic" => Ok(PathKind::Cyclic),
        other => Err(format!("path kind `{other}`: expected simple | cyclic")),
    }
}

/// One fully specified evaluation point.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// System size `n`.
    pub n: usize,
    /// Compromised node count `c`.
    pub c: usize,
    /// Path-construction rule.
    pub path_kind: PathKind,
    /// Route-selection strategy.
    pub strategy: StrategySpec,
    /// Multi-round dynamics (epoch count, rotation, churn);
    /// [`EpochSchedule::one_shot`] is the classic single-round cell.
    pub dynamics: EpochSchedule,
    /// Scoring engine.
    pub engine: EngineKind,
}

impl Scenario {
    /// Parses the [`Display`](std::fmt::Display) form back into a
    /// scenario (`n=100 c=1 simple uniform:2:8 [exact]`, with an
    /// optional dynamics token before the engine for multi-round cells:
    /// `n=100 c=1 simple uniform:2:8 epochs=3;churn=iid:0.2 [sim]`), so
    /// rendered cell identities in logs and reports are
    /// machine-recoverable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed text.
    pub fn parse(s: &str) -> Result<Self, String> {
        let err = |m: &str| format!("scenario `{s}`: {m}");
        let parts: Vec<&str> = s.split_whitespace().collect();
        let (n, c, path, strategy, dynamics, engine) = match parts.as_slice() {
            [n, c, path, strategy, engine] => (n, c, path, strategy, None, engine),
            [n, c, path, strategy, dynamics, engine] => {
                (n, c, path, strategy, Some(dynamics), engine)
            }
            _ => return Err(err("expected `n=N c=C PATH STRATEGY [DYNAMICS] [ENGINE]`")),
        };
        let n = n
            .strip_prefix("n=")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| err("bad `n=` field"))?;
        let c = c
            .strip_prefix("c=")
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| err("bad `c=` field"))?;
        let engine = engine
            .strip_prefix('[')
            .and_then(|v| v.strip_suffix(']'))
            .ok_or_else(|| err("engine must be bracketed"))?;
        let dynamics = match dynamics {
            None => EpochSchedule::one_shot(),
            Some(d) => EpochSchedule::parse(d).map_err(|m| err(&m))?,
        };
        Ok(Scenario {
            n,
            c,
            path_kind: parse_path_kind(path).map_err(|m| err(&m))?,
            strategy: StrategySpec::parse(strategy).map_err(|m| err(&m))?,
            dynamics,
            engine: EngineKind::parse(engine).map_err(|m| err(&m))?,
        })
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} c={} {} {}",
            self.n, self.c, self.path_kind, self.strategy
        )?;
        if !self.dynamics.is_one_shot() {
            write!(f, " {}", self.dynamics)?;
        }
        write!(f, " [{}]", self.engine)
    }
}

/// A declarative cartesian grid of scenarios.
///
/// # Examples
///
/// ```
/// use anonroute_campaign::{EngineKind, ScenarioGrid, StrategySpec};
///
/// let grid = ScenarioGrid::new()
///     .ns([50, 100])
///     .cs([1, 2, 3])
///     .strategies((1..=5).map(StrategySpec::Fixed))
///     .engines([EngineKind::Exact]);
/// assert_eq!(grid.len(), 2 * 3 * 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    /// System sizes.
    pub ns: Vec<usize>,
    /// Compromised counts.
    pub cs: Vec<usize>,
    /// Path kinds (defaults to `[Simple]`).
    pub path_kinds: Vec<PathKind>,
    /// Strategies.
    pub strategies: Vec<StrategySpec>,
    /// Engines (defaults to `[Exact]`).
    pub engines: Vec<EngineKind>,
    /// Epoch counts (defaults to `[1]` — one-shot).
    pub epochs: Vec<usize>,
    /// Compromised-set rotation policies (defaults to `[Static]`).
    pub rotations: Vec<RotationPolicy>,
    /// Churn models (defaults to `[None]`).
    pub churns: Vec<ChurnModel>,
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        ScenarioGrid {
            ns: Vec::new(),
            cs: Vec::new(),
            path_kinds: vec![PathKind::Simple],
            strategies: Vec::new(),
            engines: vec![EngineKind::Exact],
            epochs: vec![1],
            rotations: vec![RotationPolicy::Static],
            churns: vec![ChurnModel::None],
        }
    }
}

impl ScenarioGrid {
    /// Empty grid with default path-kind (`simple`) and engine (`exact`)
    /// axes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the system-size axis.
    pub fn ns(mut self, ns: impl IntoIterator<Item = usize>) -> Self {
        self.ns = ns.into_iter().collect();
        self
    }

    /// Sets the compromised-count axis.
    pub fn cs(mut self, cs: impl IntoIterator<Item = usize>) -> Self {
        self.cs = cs.into_iter().collect();
        self
    }

    /// Sets the path-kind axis.
    pub fn path_kinds(mut self, kinds: impl IntoIterator<Item = PathKind>) -> Self {
        self.path_kinds = kinds.into_iter().collect();
        self
    }

    /// Sets the strategy axis.
    pub fn strategies(mut self, strategies: impl IntoIterator<Item = StrategySpec>) -> Self {
        self.strategies = strategies.into_iter().collect();
        self
    }

    /// Sets the engine axis.
    pub fn engines(mut self, engines: impl IntoIterator<Item = EngineKind>) -> Self {
        self.engines = engines.into_iter().collect();
        self
    }

    /// Sets the epoch-count axis.
    pub fn epochs(mut self, epochs: impl IntoIterator<Item = usize>) -> Self {
        self.epochs = epochs.into_iter().collect();
        self
    }

    /// Sets the rotation-policy axis.
    pub fn rotations(mut self, rotations: impl IntoIterator<Item = RotationPolicy>) -> Self {
        self.rotations = rotations.into_iter().collect();
        self
    }

    /// Sets the churn-model axis.
    pub fn churns(mut self, churns: impl IntoIterator<Item = ChurnModel>) -> Self {
        self.churns = churns.into_iter().collect();
        self
    }

    /// Number of cells in the cartesian product.
    pub fn len(&self) -> usize {
        self.ns.len()
            * self.cs.len()
            * self.path_kinds.len()
            * self.strategies.len()
            * self.engines.len()
            * self.epochs.len()
            * self.rotations.len()
            * self.churns.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in its canonical order: `n` outermost, then `c`,
    /// path kind, strategy, engine, and the dynamics axes (epochs, then
    /// rotation, then churn) innermost. Cell index in this expansion is
    /// the stable identity used for seeding and output; grids that leave
    /// the dynamics axes at their defaults keep their pre-dynamics
    /// indices (and therefore their seeds) unchanged.
    pub fn cells(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &n in &self.ns {
            for &c in &self.cs {
                for &path_kind in &self.path_kinds {
                    for strategy in &self.strategies {
                        for &engine in &self.engines {
                            for &epochs in &self.epochs {
                                for &rotation in &self.rotations {
                                    for &churn in &self.churns {
                                        out.push(Scenario {
                                            n,
                                            c,
                                            path_kind,
                                            strategy: strategy.clone(),
                                            dynamics: EpochSchedule {
                                                epochs,
                                                rotation,
                                                churn,
                                            },
                                            engine,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parse_display_roundtrip() {
        for s in [
            "fixed:5",
            "uniform:2:8",
            "twopoint:3:0.5:7",
            "geometric:0.75:50",
            "optimal",
            "optimal:8",
        ] {
            let spec = StrategySpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(StrategySpec::parse(&spec.to_string()).unwrap(), spec);
        }
        assert!(StrategySpec::parse("uniform:9:2").is_err());
        assert!(StrategySpec::parse("bogus:1").is_err());
        assert!(StrategySpec::parse("fixed:x").is_err());
    }

    #[test]
    fn realize_matches_direct_construction() {
        let model = SystemModel::new(50, 1).unwrap();
        assert_eq!(
            StrategySpec::Fixed(5).realize(&model).unwrap(),
            PathLengthDist::fixed(5)
        );
        assert_eq!(
            StrategySpec::Uniform(2, 8).realize(&model).unwrap(),
            PathLengthDist::uniform(2, 8).unwrap()
        );
    }

    #[test]
    fn realize_rejects_infeasible_cells() {
        let model = SystemModel::new(5, 1).unwrap();
        assert!(StrategySpec::Fixed(5).realize(&model).is_err());
        let cyclic = SystemModel::with_path_kind(5, 1, PathKind::Cyclic).unwrap();
        assert!(StrategySpec::Fixed(5).realize(&cyclic).is_ok());
        assert!(StrategySpec::Optimal { mean: None }
            .realize(&cyclic)
            .is_err());
    }

    #[test]
    fn optimal_spec_solves_the_optimization_problem() {
        let model = SystemModel::new(30, 1).unwrap();
        let dist = StrategySpec::Optimal { mean: Some(4.0) }
            .realize(&model)
            .unwrap();
        assert!((dist.mean() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn grid_expansion_order_is_canonical() {
        let grid = ScenarioGrid::new()
            .ns([10, 20])
            .cs([1, 2])
            .strategies([StrategySpec::Fixed(1), StrategySpec::Fixed(2)]);
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(
            (cells[0].n, cells[0].c, cells[0].strategy.clone()),
            (10, 1, StrategySpec::Fixed(1))
        );
        assert_eq!(
            (cells[1].n, cells[1].c, cells[1].strategy.clone()),
            (10, 1, StrategySpec::Fixed(2))
        );
        assert_eq!((cells[2].n, cells[2].c), (10, 2));
        assert_eq!((cells[4].n, cells[4].c), (20, 1));
        assert!(cells.iter().all(|s| s.engine == EngineKind::Exact));
        assert!(cells.iter().all(|s| s.path_kind == PathKind::Simple));
    }

    #[test]
    fn engine_and_path_parsing() {
        assert_eq!(EngineKind::parse("exact").unwrap(), EngineKind::Exact);
        assert_eq!(EngineKind::parse("mc").unwrap(), EngineKind::MonteCarlo);
        assert_eq!(EngineKind::parse("sim").unwrap(), EngineKind::Simulated);
        assert_eq!(EngineKind::parse("live").unwrap(), EngineKind::Live);
        assert!(EngineKind::parse("x").is_err());
        assert_eq!(parse_path_kind("cyclic").unwrap(), PathKind::Cyclic);
        assert!(parse_path_kind("loop").is_err());
        // every engine's Display round-trips through parse
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(&kind.to_string()).unwrap(), kind);
        }
    }

    #[test]
    fn scenario_display_round_trips() {
        for kind in EngineKind::ALL {
            let scenario = Scenario {
                n: 42,
                c: 3,
                path_kind: PathKind::Cyclic,
                strategy: StrategySpec::TwoPoint {
                    lo: 2,
                    p: 0.25,
                    hi: 7,
                },
                dynamics: EpochSchedule::one_shot(),
                engine: kind,
            };
            let text = scenario.to_string();
            assert_eq!(Scenario::parse(&text).unwrap(), scenario, "{text}");
        }
        assert!(Scenario::parse("n=5 c=1 simple fixed:1").is_err());
        assert!(Scenario::parse("n=x c=1 simple fixed:1 [exact]").is_err());
        assert!(Scenario::parse("n=5 c=1 simple fixed:1 exact").is_err());
    }

    #[test]
    fn multi_round_scenarios_round_trip_with_a_dynamics_token() {
        let scenario = Scenario {
            n: 30,
            c: 2,
            path_kind: PathKind::Simple,
            strategy: StrategySpec::Uniform(1, 5),
            dynamics: EpochSchedule {
                epochs: 4,
                rotation: RotationPolicy::Shift { step: 2 },
                churn: ChurnModel::Iid { rate: 0.25 },
            },
            engine: EngineKind::Simulated,
        };
        let text = scenario.to_string();
        assert_eq!(
            text,
            "n=30 c=2 simple uniform:1:5 epochs=4;rotation=shift:2;churn=iid:0.25 [sim]"
        );
        assert_eq!(Scenario::parse(&text).unwrap(), scenario);
        // one-shot cells keep the legacy five-token form
        let one_shot = Scenario {
            dynamics: EpochSchedule::one_shot(),
            ..scenario
        };
        assert_eq!(one_shot.to_string(), "n=30 c=2 simple uniform:1:5 [sim]");
        assert!(Scenario::parse("n=5 c=1 simple fixed:1 epochs=0 [exact]").is_err());
    }

    #[test]
    fn dynamics_axes_expand_innermost() {
        let grid = ScenarioGrid::new()
            .ns([10])
            .cs([1])
            .strategies([StrategySpec::Fixed(2)])
            .epochs([1, 3])
            .churns([ChurnModel::None, ChurnModel::Iid { rate: 0.2 }]);
        assert_eq!(grid.len(), 4);
        let cells = grid.cells();
        assert_eq!(cells[0].dynamics.epochs, 1);
        assert_eq!(cells[0].dynamics.churn, ChurnModel::None);
        assert_eq!(cells[1].dynamics.churn, ChurnModel::Iid { rate: 0.2 });
        assert_eq!(cells[2].dynamics.epochs, 3);
        assert!(cells[0].dynamics.is_one_shot());
        // default grids keep their pre-dynamics cell count and order
        let legacy = ScenarioGrid::new()
            .ns([10, 20])
            .cs([1])
            .strategies([StrategySpec::Fixed(2)]);
        assert_eq!(legacy.len(), 2);
        assert!(legacy.cells().iter().all(|s| s.dynamics.is_one_shot()));
    }
}
