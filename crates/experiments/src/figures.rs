//! Regeneration of every figure in the paper's evaluation (Section 6).
//!
//! All figures use the paper's configuration: `n = 100` nodes, `c = 1`
//! compromised node, simple paths. Simple paths in a 100-node system
//! support at most 99 intermediate hops, so sweeps that the paper draws to
//! `x = 100` stop at the feasibility boundary.
//!
//! The single-axis sweeps (Figures 3 and 4) are thin
//! [`anonroute_campaign`] grids: each figure declares its strategy axis
//! and maps the campaign cells back onto a plotted [`Series`], inheriting
//! the runner's parallelism and shared-evaluator memoization. Infeasible
//! cells (e.g. `U(a, a+Δ)` past the `n - 1` support bound) come back as
//! per-cell errors and turn into gaps in the series.

use anonroute_campaign::{run, CampaignConfig, CellResult, ScenarioGrid, StrategySpec};
use anonroute_core::engine::simple::Evaluator;
use anonroute_core::{optimize, PathLengthDist, SystemModel};

use crate::output::Series;

/// The paper's evaluation setting.
pub fn paper_model() -> SystemModel {
    SystemModel::new(100, 1).expect("valid constants")
}

fn evaluator(model: &SystemModel) -> Evaluator {
    Evaluator::new(model, model.n() - 1).expect("lmax = n-1 is valid")
}

fn h_fixed(ev: &Evaluator, lmax: usize, l: usize) -> f64 {
    let mut pmf = vec![0.0; lmax + 1];
    pmf[l] = 1.0;
    ev.h_star(&pmf)
}

fn h_uniform(ev: &Evaluator, a: usize, b: usize) -> f64 {
    ev.h_star(PathLengthDist::uniform(a, b).expect("a <= b").pmf())
}

/// Runs a strategy sweep at the paper's `n = 100`, `c = 1` setting and
/// returns the cells in strategy order.
pub(crate) fn paper_campaign(strategies: Vec<StrategySpec>) -> Vec<CellResult> {
    let grid = ScenarioGrid::new().ns([100]).cs([1]).strategies(strategies);
    run(&grid, &CampaignConfig::default()).cells
}

/// Extracts `H*` per cell, mapping infeasible cells to gaps.
pub(crate) fn h_points(cells: &[CellResult], x: impl Fn(usize) -> f64) -> Vec<(f64, Option<f64>)> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| (x(i), cell.outcome.as_ref().ok().map(|m| m.h_star)))
        .collect()
}

/// Figure 3(a): anonymity degree vs fixed path length, `l ∈ 0..=99`.
pub fn fig3a() -> Series {
    let cells = paper_campaign((0..=99).map(StrategySpec::Fixed).collect());
    Series {
        name: "H*(F(l))".into(),
        points: h_points(&cells, |i| i as f64),
    }
}

/// Figure 3(b): the short-path zoom, `l ∈ 0..=4`.
pub fn fig3b() -> Series {
    let cells = paper_campaign((0..=4).map(StrategySpec::Fixed).collect());
    Series {
        name: "H*(F(l))".into(),
        points: h_points(&cells, |i| i as f64),
    }
}

/// One Figure-4 panel: `H*` of `U(a, a+Δ)` as the spread Δ grows, for
/// each lower bound in `bases`.
pub fn fig4_panel(bases: &[usize], max_delta: usize) -> Vec<Series> {
    let strategies: Vec<StrategySpec> = bases
        .iter()
        .flat_map(|&a| (0..=max_delta).map(move |d| StrategySpec::Uniform(a, a + d)))
        .collect();
    let cells = paper_campaign(strategies);
    bases
        .iter()
        .zip(cells.chunks(max_delta + 1))
        .map(|(&a, chunk)| Series {
            name: format!("U({a},{a}+D)"),
            points: h_points(chunk, |i| i as f64),
        })
        .collect()
}

/// All four Figure-4 panels, with the paper's lower-bound groups.
pub fn fig4() -> [(String, Vec<Series>); 4] {
    [
        (
            "Figure 4(a): small lower bounds".into(),
            fig4_panel(&[4, 6, 10], 89),
        ),
        (
            "Figure 4(b): intermediate lower bounds".into(),
            fig4_panel(&[25, 40], 74),
        ),
        (
            "Figure 4(c): large lower bounds (long-path regime)".into(),
            fig4_panel(&[51, 60, 70], 48),
        ),
        (
            "Figure 4(d): short-path regime".into(),
            fig4_panel(&[0, 1, 6], 93),
        ),
    ]
}

/// One Figure-5 panel: equal-mean comparison of `F(L)` against
/// `U(a, 2L-a)` for each `a` in `bases`, sweeping the mean `L`.
pub fn fig5_panel(bases: &[usize], l_from: usize, l_to: usize) -> Vec<Series> {
    let model = paper_model();
    let ev = evaluator(&model);
    let mut series = Vec::new();
    let fixed_pts = (l_from..=l_to)
        .map(|l| (l as f64, Some(h_fixed(&ev, 99, l))))
        .collect();
    series.push(Series {
        name: "F(L)".into(),
        points: fixed_pts,
    });
    for &a in bases {
        let points = (l_from..=l_to)
            .map(|l| {
                let x = l as f64;
                // U(a, 2L-a) has mean L; defined when a <= L and 2L-a <= 99
                if l >= a && 2 * l - a < model.n() {
                    (x, Some(h_uniform(&ev, a, 2 * l - a)))
                } else {
                    (x, None)
                }
            })
            .collect();
        series.push(Series {
            name: format!("U({a},2L-{a})"),
            points,
        });
    }
    series
}

/// All four Figure-5 panels with the paper's groupings.
pub fn fig5() -> [(String, Vec<Series>); 4] {
    [
        (
            "Figure 5(a): variance at equal mean, small bounds".into(),
            fig5_panel(&[4, 6, 10], 1, 50),
        ),
        (
            "Figure 5(b): intermediate bounds".into(),
            fig5_panel(&[25, 40], 25, 62),
        ),
        (
            "Figure 5(c): large bounds".into(),
            fig5_panel(&[51, 70], 51, 75),
        ),
        (
            "Figure 5(d): short-path bounds (ineq. 18)".into(),
            fig5_panel(&[1, 2, 6], 1, 50),
        ),
    ]
}

/// Figure 6: the plotted series and the optimizer outcomes behind them.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `F(L)`, `U(2, 2L-2)`, the best uniform spread and the optimum,
    /// each indexed by `L`.
    pub series: Vec<Series>,
    /// The mean-constrained optimum at each plotted `L`, in order:
    /// `optima[i]` is the solve at `E[L] = l_from + i`.
    pub optima: Vec<optimize::OptimizationOutcome>,
}

/// Figure 6: the optimization result. For each expected length `L`,
/// compares `F(L)`, the paper's family pick `U(2, 2L-2)`, the best uniform
/// spread `U(L-Δ*, L+Δ*)`, and the general mean-constrained optimum over
/// all distributions on `0..=lmax`. The optimal distributions themselves
/// come back in [`Fig6::optima`], so callers describing their shape need
/// not solve again.
pub fn fig6(l_from: usize, l_to: usize, lmax: usize) -> Fig6 {
    let model = paper_model();
    let ev = evaluator(&model);
    let mut fixed = Vec::new();
    let mut u2 = Vec::new();
    let mut best_uniform = Vec::new();
    let mut optimal = Vec::new();
    let mut optima = Vec::new();
    for l in l_from..=l_to {
        let x = l as f64;
        fixed.push((x, Some(h_fixed(&ev, 99, l))));
        u2.push((
            x,
            (l >= 2 && 2 * l - 2 <= 99).then(|| h_uniform(&ev, 2, 2 * l - 2)),
        ));
        let (_, fam) =
            optimize::best_uniform_with_mean(&model, lmax, l).expect("mean within support");
        best_uniform.push((x, Some(fam.h_star)));
        let opt =
            optimize::maximize_with_mean(&model, lmax, l as f64).expect("mean within support");
        optimal.push((x, Some(opt.h_star)));
        optima.push(opt);
    }
    let series = vec![
        Series {
            name: "F(L)".into(),
            points: fixed,
        },
        Series {
            name: "U(2,2L-2)".into(),
            points: u2,
        },
        Series {
            name: "best U(L-D,L+D)".into(),
            points: best_uniform,
        },
        Series {
            name: "Optimization".into(),
            points: optimal,
        },
    ];
    Fig6 { series, optima }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_reproduces_the_papers_shape() {
        let s = fig3a();
        assert_eq!(s.points.len(), 100);
        let y = |l: usize| s.points[l].1.unwrap();
        // anchors from the paper's plot
        assert_eq!(y(0), 0.0);
        assert!((y(1) - 6.4824).abs() < 1e-3);
        assert!((y(1) - y(2)).abs() < 1e-12);
        // rises, peaks strictly inside, falls: the long-path effect
        let (peak_x, peak_y) = s.argmax().unwrap();
        assert!(peak_x > 10.0 && peak_x < 90.0, "peak at {peak_x}");
        assert!(peak_y > 6.53 && peak_y < 6.55, "peak {peak_y}");
        assert!(y(99) < peak_y);
        // the whole curve lives in the paper's axis range [6.48, 6.54]
        for l in 1..=99 {
            assert!(y(l) > 6.45 && y(l) < 6.55, "l={l}: {}", y(l));
        }
    }

    #[test]
    fn fig4d_zero_lower_bound_is_bad_when_short() {
        let panels = fig4();
        let d_panel = &panels[3].1;
        let u0 = &d_panel[0]; // U(0, D)
        let u6 = &d_panel[2]; // U(6, 6+D)
                              // small spread: U(0,·) much worse (receiver sees the sender often)
        let at = |s: &Series, d: usize| s.points[d].1.unwrap();
        assert!(at(u0, 4) < at(u6, 4) - 0.01);
        // large spread: U(0,·) catches up (the paper's observation)
        assert!(at(u0, 80) > at(u0, 4));
    }

    #[test]
    fn fig5a_curves_overlay_for_lower_bounds_at_least_three() {
        // Theorem 3: same mean ⇒ same H* when a >= 3, so the F(L) and
        // U(a, 2L-a) curves coincide wherever defined
        let panels = fig5();
        let a_panel = &panels[0].1;
        let f = &a_panel[0];
        for s in &a_panel[1..] {
            for (pf, ps) in f.points.iter().zip(&s.points) {
                if let (Some(yf), Some(ys)) = (pf.1, ps.1) {
                    assert!((yf - ys).abs() < 1e-12, "x={} {} vs {}", pf.0, yf, ys);
                }
            }
        }
    }

    #[test]
    fn fig5d_low_bounds_differ_from_fixed() {
        let panels = fig5();
        let d_panel = &panels[3].1;
        let f = &d_panel[0];
        let u1 = &d_panel[1];
        // at mean 5 the curves must differ measurably
        let idx = f.points.iter().position(|p| p.0 == 5.0).unwrap();
        let yf = f.points[idx].1.unwrap();
        let y1 = u1.points[idx].1.unwrap();
        assert!((yf - y1).abs() > 1e-4);
    }

    #[test]
    fn fig6_optimization_dominates_families() {
        let Fig6 { series, optima } = fig6(3, 10, 30);
        assert_eq!(optima.len(), 8);
        for (i, opt) in optima.iter().enumerate() {
            assert!((opt.dist.mean() - (3 + i) as f64).abs() < 1e-9);
        }
        let get = |name: &str| series.iter().find(|s| s.name == name).unwrap();
        let opt = get("Optimization");
        let fam = get("best U(L-D,L+D)");
        let fixed = get("F(L)");
        for i in 0..opt.points.len() {
            let o = opt.points[i].1.unwrap();
            let u = fam.points[i].1.unwrap();
            let f = fixed.points[i].1.unwrap();
            assert!(o >= u - 1e-9, "x={}: opt {o} < family {u}", opt.points[i].0);
            assert!(
                u >= f - 1e-9,
                "x={}: family {u} < fixed {f}",
                opt.points[i].0
            );
        }
        // and the variable-length optimum strictly beats fixed somewhere
        let strictly = opt
            .points
            .iter()
            .zip(&fixed.points)
            .any(|(o, f)| o.1.unwrap() > f.1.unwrap() + 1e-6);
        assert!(strictly, "optimization should strictly beat fixed lengths");
    }
}
